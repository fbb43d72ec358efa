"""The fixed point's stages, one part at a time: the stepwise reference.

``zonoridge.learning.fixed_point`` runs every stage in one kernel over a
stack of parts.  The functions here run the same private stages on one
part, the dataset itself, so that the tests can check each stage on its
own and compare the kernel's results with a fit built step by step:

    w_R = ridge_closed_form_real(ad.X_R, ad.y_R, lam)
    G_D = closed_form_symbolic_data(ad, lam, w_R)
    A, A_inv = build_transform(ad.X_R, cfg)
    sys = build_non_data_system(ad, lam, w_R, G_D, A, A_inv)
    k = solve_non_data(sys, lam)

``residual`` is the residual reference: the report of one gradient step,
rebuilt from the dataset and the weights alone, which a fit that does not
split carries in ``diag.residual``.  ``split`` is the split reference: the
parts of an even split as datasets of their own, which ``fixed_point``
builds and solves in batches.  ``loss_interval_residual`` is the loss
reference: the loss coefficients formed from the residual generators
``R = X W``, which ``zonoridge.inference.loss_interval`` forms through the
d x d Hessian instead.
"""

from __future__ import annotations

import numpy as np

from zonoridge.dataset import AbstractDataset
from zonoridge.errors import LambdaTooSmall, ShapeMismatchError, SplitBudgetError
from zonoridge.inference import LossInterval
from zonoridge.learning import (
    TOLERANCE,
    AbstractWeights,
    NonDataSystem,
    ResidualReport,
    RidgeConfig,
    _at_cells,
    _data_rhs,
    _diameter_terms,
    _diameters,
    _index_plan,
    _residual_report,
    _ridge,
    _system,
    _check_lam,
    _test_set,
    _transform,
)


def ridge_closed_form_real(X_R: np.ndarray, y_R: np.ndarray, lam: float) -> np.ndarray:
    """Ridge solution on the real centers: ``(X_R'X_R + lam n I)^-1 X_R'y_R``."""
    X_R = np.asarray(X_R, dtype=float)
    y_R = np.asarray(y_R, dtype=float)
    return _ridge((X_R.T @ X_R)[None], (X_R.T @ y_R)[None], lam, X_R.shape[0])[0][0]


def closed_form_symbolic_data(
    ad: AbstractDataset, lam: float, w_R: np.ndarray
) -> np.ndarray:
    """Generators ``G_D`` ``(S, d)`` of the data-symbol weight part.

    Solves ``(X_R'X_R + lam n I) w_D = X_S'y_R + X_R'y_S
    - (X_R'X_S + X_S'X_R) w_R`` for all data symbols at once: each symbol
    lives in exactly one cell, so its column of the right-hand side is
    assembled directly from that cell's row and coefficient.  Row j belongs
    to entry j of ``ad.nonzero_cells()``.
    """
    X_R = ad.X_R
    n, d = X_R.shape
    gram = X_R.T @ X_R + lam * n * np.eye(d)
    cells = ad.nonzero_cells()
    rhs = _data_rhs(cells, *_at_cells(ad, cells), w_R[None])[0]
    return np.ascontiguousarray(np.linalg.solve(gram, rhs).T)


def build_transform(X_R: np.ndarray, cfg: RidgeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Order-reduction transform and its inverse.

    The SVD choice diagonalizes ``X_R'X_R`` so the q-matrix of the diameter
    system is diagonal; it is computed by a symmetric eigendecomposition, the
    SVD's basis up to the sign of each row.  Identity leaves the original
    space.  Custom matrices are validated for conditioning before inverting.
    """
    A, A_inv = _transform((X_R.T @ X_R)[None], cfg)
    return A[0], A_inv[0]


def build_non_data_system(
    ad: AbstractDataset,
    lam: float,
    w_R: np.ndarray,
    G_D: np.ndarray,
    A: np.ndarray,
    A_inv: np.ndarray,
) -> NonDataSystem:
    """Assemble the diameter system from dense per-symbol terms.

    ``c'`` and ``c0`` are sums of |coefficients| over the distinct monomials
    of degree at most 3 that the expansion of the gradient produces.  Each
    data symbol lives in exactly one cell, so two products can land on the
    same monomial only when all of its symbols lie in one row; those
    same-row monomials are merged before taking absolute values, so
    cancellations between summands are honored exactly as a full
    polynomial expansion would, and every other product is summed as is
    (see ``_diameter_terms``).  This matches what linearization followed by
    an interval hull produces and is never looser.  ``G_D`` has one row per
    entry of ``ad.nonzero_cells()``, as ``closed_form_symbolic_data`` gives.
    """
    cells = ad.nonzero_cells()
    if G_D.shape != (len(cells.coef), ad.d):
        raise ShapeMismatchError(f"G_D must be {(len(cells.coef), ad.d)}, got {G_D.shape}")
    x, _ = _at_cells(ad, cells)
    plan = _index_plan(cells.rows, cells.cols, ad.d)
    cprime, h = _diameter_terms(plan, cells.coef, x, w_R[None], G_D[None], A[None], A_inv[None])
    Q = A @ (ad.X_R.T @ ad.X_R) @ A_inv
    return _system(Q, cprime[0], h[0], ad.n)


def _stack_of_one(sys: NonDataSystem) -> NonDataSystem:
    """A one-part system as the kernel's stack of one part."""
    return NonDataSystem(
        Q=sys.Q[None], Cprime=sys.Cprime[None], c0=sys.c0[None], beta=np.array([sys.beta]), n=sys.n
    )


def solve_non_data(sys: NonDataSystem, lam: float, tolerance: float = TOLERANCE) -> np.ndarray:
    """Solve the diameter system; requires ``lam >= beta`` up to tolerance.

    The homogeneous case (zero constant column, e.g. certain or label-only
    data) is solved exactly by ``k = 0`` whatever the matrix looks like, so
    it bypasses the feasibility threshold.  Otherwise M-matrix theory
    guarantees a nonnegative solution in the feasible regime; negative
    entries beyond a small clamp indicate numerical trouble and are
    rejected.  Below the threshold it raises ``LambdaTooSmall``.
    """
    k, _, infeasible = _diameters(_stack_of_one(sys), lam, tolerance)
    if infeasible:
        raise LambdaTooSmall(float(sys.beta))
    return k[0]


def m_matrix_margin(sys: NonDataSystem, lam: float) -> float | np.ndarray:
    """Least diagonal dominance ``min_i (m_ii - sum_{j!=i} |m_ij|)`` of the coefficient matrix.

    The definition, from the matrix; ``fixed_point`` reports ``n (lam - beta)``, its value.
    """
    m = sys.coefficient_matrix(lam)
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    margin = np.min(diag - (np.abs(m).sum(axis=-1) - np.abs(diag)), axis=-1)
    return margin if margin.ndim else float(margin)


def residual(ad: AbstractDataset, weights: AbstractWeights, cfg: RidgeConfig) -> ResidualReport:
    """The residual of one gradient step at ``cfg.lam``, rebuilt from ``ad`` and ``weights``.

    Assembles the diameter system from the weights' own ``w_D`` and takes
    the sums ``X_R'X_R`` and ``X_R'y_R`` and the data right-hand side from
    ``ad``; ``learning._residual_report`` defines the step.  ``G_D`` has one
    row per entry of ``ad.nonzero_cells()``, as a fit that did not split
    gives; for such a fit's weights this is, bit for bit, ``diag.residual``.
    """
    sys = build_non_data_system(ad, cfg.lam, weights.w_R, weights.G_D, weights.A, weights.A_inv)
    gram = ad.X_R.T @ ad.X_R
    cells = ad.nonzero_cells()
    rhs = _data_rhs(cells, *_at_cells(ad, cells), weights.w_R[None])[0]
    reg = gram + cfg.lam * ad.n * np.eye(ad.d)
    return _residual_report(weights.w_R, weights.G_D, weights.k, _stack_of_one(sys),
                            sys.coefficient_matrix(cfg.lam), cfg.lam, gram, ad.X_R.T @ ad.y_R, reg, rhs)


def split(ad: AbstractDataset, m: int, budget: int = 65536) -> list[AbstractDataset]:
    """Partition evenly into ``m`` parts per data symbol (``m**s`` parts).

    Each part keeps the same symbols with coefficients scaled by ``1/m``
    and centers shifted to one sub-cell; the union of the parts'
    concretizations equals the dataset's.  Zero-coefficient symbols are
    excluded from ``s``: splitting them would only clone parts.  Part p, in
    ``itertools.product`` order over the split symbols, takes sub-cell ``j
    = combos[p, i]`` of symbol i, whose center moves by ``coef_i (2j + 1 -
    m) / m``: the parts and the order of ``fixed_point``'s split, built
    with the same expressions.  Raises ``SplitBudgetError`` when the parts
    exceed ``budget``.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    moved = ad.cells.coef != 0.0
    cells = ad.cells.select(moved)
    s = len(cells.coef)
    if m**s > budget:
        raise SplitBudgetError(f"{m**s} parts exceed budget {budget}")
    if m == 1 or s == 0:
        return [ad]
    combos = np.indices((m,) * s).reshape(s, m**s).T
    shifts = (2 * np.arange(m) + 1 - m) / m
    coef = ad.cells.coef.copy()
    coef[moved] = cells.coef / m
    X, y = cells.move(ad.X_R, ad.y_R, cells.coef * shifts[combos])
    return [
        AbstractDataset(
            X_R=X_p,
            y_R=y_p,
            registry=ad.registry,
            cells=ad.cells._replace(coef=coef.copy()),
            columns=list(ad.columns),
            label_name=ad.label_name,
        )
        for X_p, y_p in zip(X, y)
    ]


def nearest_zero(center: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """The point of each interval ``center +- radius`` nearest 0, where ``v**2`` is least:
    the structural lower end's reference, which ``loss_interval`` takes as the distance
    ``max(|center| - radius, 0)`` instead."""
    lo, hi = center - radius, center + radius
    return np.where(lo > 0.0, lo, np.where(hi < 0.0, hi, 0.0))


def loss_interval_residual(
    test_X: np.ndarray, test_y: np.ndarray, weights: AbstractWeights, lam: float
) -> LossInterval:
    """``loss_interval`` with its coefficients in the residual form, at O(n (S+d)^2).

    ``Q = R'R/n + lam W'W`` and ``b = 2R'c/n + 2 lam W'w_R`` with the
    residual generators ``R = X W`` and centers ``c = X w_R - y``; the
    radius is ``sum |b|`` plus the diagonal and twice the upper triangle of
    ``|Q|``.  The lower end takes each square's exact minimum, as in
    ``loss_interval``, whose centers and structural terms are the same sums.
    """
    test_X, test_y = _test_set(test_X, weights.dim, test_y)
    _check_lam(lam)
    n = test_X.shape[0]
    W = weights.generators()
    R = test_X @ W
    c = test_X @ weights.w_R - test_y
    b = R.T @ (2.0 * c / n)
    Q = R.T @ (R / n)
    center = np.add.reduce(c * c / n)
    v = nearest_zero(c, np.add.reduce(np.abs(R, out=R), axis=1))
    structural_lo = np.add.reduce(v * v / n)
    if lam > 0.0:
        w_R = weights.w_R
        center += np.add.reduce(lam * w_R * w_R)
        v = nearest_zero(w_R, np.add.reduce(np.abs(W), axis=1))
        structural_lo += np.add.reduce(lam * v * v)
        b += 2.0 * lam * (W.T @ w_R)
        Q += lam * (W.T @ W)
    np.abs(Q, out=Q)
    radius = (
        np.add.reduce(np.abs(b, out=b))
        + np.add.reduce(Q.diagonal())
        + 2.0 * np.add.reduce(np.triu(Q, 1), axis=None)
    )
    return LossInterval(float(max(center - radius, structural_lo)), float(center + radius))
