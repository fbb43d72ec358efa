"""Polynomial-form reference versions of the dense kernels.

These are the implementations that the library used before its dense
generator-matrix kernels.  ``build_non_data_system``,
``verify_fixed_point_residual`` and ``loss_interval`` expand every product
into :class:`~zonoridge.forms.PolyForm` monomials and sum coefficients per
canonical monomial; ``predict_interval`` loops over generators;
``parameter_intervals`` and ``split_join`` concretize the weights as affine
forms, the latter through ``box_join``.  They are slow but follow the
definitions term by term, so the differential tests compare the dense
kernels against them.
"""

from __future__ import annotations

import numpy as np

from zonoridge.dataset import AbstractDataset
from zonoridge.errors import ShapeMismatchError
from zonoridge.forms import PolyForm, sum_forms
from zonoridge.inference import LossInterval, ParameterIntervals, PredictionInterval
from zonoridge.learning import (
    AbstractWeights,
    NonDataSystem,
    ResidualReport,
    RidgeConfig,
    build_transform,
    closed_form_symbolic_data,
    ridge_closed_form_real,
    solve_non_data,
)
from zonoridge.symbols import SymbolKind
from zonoridge.zonotope import (
    ZVector,
    box_join,
    interval_hull,
    interval_of,
    linearize,
    mat_mul,
    mat_real,
    mat_vec,
    real_mat_mat,
    real_mat_vec,
)


def _w_d_zvector(ad: AbstractDataset, w_D: dict[int, np.ndarray], d: int) -> ZVector:
    entries = []
    for i in range(d):
        terms = {(sid,): gen[i] for sid, gen in w_D.items() if gen[i] != 0.0}
        entries.append(PolyForm(ad.registry, 0.0, terms))
    return ZVector(ad.registry, entries)


def build_non_data_system(
    ad: AbstractDataset,
    lam: float,
    w_R: np.ndarray,
    w_D: dict[int, np.ndarray],
    A: np.ndarray,
    A_inv: np.ndarray,
) -> NonDataSystem:
    """Assemble the diameter system via exact polynomial-form algebra.

    The coefficient sums behind ``c'`` and ``c0`` are taken per distinct
    monomial after full expansion, so cancellations across the summands are
    honored; this matches what linearization followed by an interval hull
    produces and is never looser.
    """
    X_R = ad.X_R
    n, d = X_R.shape
    XS = ad.x_symbolic()
    yS = ad.y_symbolic()
    XSt = XS.transpose()

    Q = A @ (X_R.T @ X_R) @ A_inv

    cross = real_mat_mat(X_R.T, XS) + mat_real(XSt, X_R)  # X_R'X_S + X_S'X_R
    xss = mat_mul(XSt, XS)
    quad = cross + xss
    projected = mat_real(real_mat_mat(A, quad), A_inv)
    cprime = np.array(
        [[projected[i, j].coeff_abs_sum() for j in range(d)] for i in range(d)]
    )

    w_d_vec = _w_d_zvector(ad, w_D, d)
    w_r_vec = ZVector.from_real(ad.registry, w_R)
    const_part = (
        mat_vec(cross, w_d_vec)
        + mat_vec(xss, w_r_vec + w_d_vec)
        - mat_vec(XSt, yS)
    )
    h = np.array([f.coeff_abs_sum() for f in real_mat_vec(A, const_part)])
    c0 = (2.0 / n) * h

    off = np.abs(Q) + cprime
    np.fill_diagonal(off, 0.0)
    beta = float(np.max(off.sum(axis=1) + np.diag(cprime) - np.diag(Q)) / n)
    return NonDataSystem(Q=Q, Cprime=cprime, c0=c0, beta=beta, n=n)


def verify_fixed_point_residual(
    ad: AbstractDataset, weights: AbstractWeights, cfg: RidgeConfig
) -> ResidualReport:
    """Apply one symbolic gradient step and measure how far it moves.

    Uses the exact form algebra end to end: the box part is rebuilt as
    affine forms, the high-order gradient component is expanded as
    polynomial forms, linearized with fresh symbols (regenerated per call),
    and the interval hull in the transformed space yields new box diameters
    ``k'``.  At a true fixed point the real and data-symbol parts are
    unchanged and ``k' = k``.  The normalized box residual divides out the
    ``2 eta / n`` step factor, making it comparable to the system's scale.
    """
    X_R, y_R = ad.X_R, ad.y_R
    n, d = X_R.shape
    lam = weights.lam
    reg = ad.registry
    gram = X_R.T @ X_R
    Q = weights.A @ gram @ weights.A_inv
    qmax = float(np.max(np.diag(Q), initial=0.0))
    denom = 2.0 * lam + (2.0 / n) * max(qmax, 0.0)
    eta = 0.5 / denom if denom > 0 else 0.1

    # Real part: one concrete gradient step.
    g_r = (2.0 / n) * (gram @ weights.w_R - X_R.T @ y_R) + 2.0 * lam * weights.w_R
    real_residual = float(np.max(np.abs(eta * g_r), initial=0.0))

    # Data-symbol part, symbolically.
    XS = ad.x_symbolic()
    yS = ad.y_symbolic()
    XSt = XS.transpose()
    w_d_vec = _w_d_zvector(ad, weights.w_D_coeffs, d)
    cross = real_mat_mat(X_R.T, XS) + mat_real(XSt, X_R)
    g_ld = (
        real_mat_vec(2.0 * lam * np.eye(d) + (2.0 / n) * gram, w_d_vec)
        + mat_vec(cross, ZVector.from_real(reg, weights.w_R)).scale(2.0 / n)
        - mat_vec(XSt, ZVector.from_real(reg, y_R)).scale(2.0 / n)
        - real_mat_vec((2.0 / n) * X_R.T, yS)
    )
    data_residual = 0.0
    for f in g_ld.entries:
        if abs(f.center) > data_residual:
            data_residual = abs(f.center)
        for coef in f.terms.values():
            data_residual = max(data_residual, abs(coef))
    data_residual *= eta

    # Box part: w_ND as affine forms over the stored fresh symbols.
    w_nd_entries = []
    for i in range(d):
        terms = {}
        for j, fid in enumerate(weights.fresh_ids):
            coef = weights.A_inv[i, j] * weights.k[j]
            if coef != 0.0:
                terms[(fid,)] = coef
        w_nd_entries.append(PolyForm(reg, 0.0, terms))
    w_nd = ZVector(reg, w_nd_entries)

    g_lnd = real_mat_vec(2.0 * lam * np.eye(d) + (2.0 / n) * gram, w_nd)
    xss = mat_mul(XSt, XS)
    w_total = ZVector.from_real(reg, weights.w_R) + w_d_vec + w_nd
    g_h = (
        mat_vec(cross, w_d_vec + w_nd)
        + mat_vec(xss, w_total)
        - mat_vec(XSt, yS)
    ).scale(2.0 / n)
    stepped = w_nd - (g_lnd + linearize(g_h)).scale(eta)
    projected = real_mat_vec(weights.A, stepped)
    hull = interval_hull(projected, projected.symbols())
    k_new = np.zeros(d)
    for i, f in enumerate(hull.entries):
        coeffs = f.linear_coeffs()
        k_new[i] = abs(next(iter(coeffs.values()))) if coeffs else 0.0
    box_residual = float(np.max(np.abs(k_new - weights.k), initial=0.0))
    return ResidualReport(
        eta=eta,
        real_residual=real_residual,
        data_residual=data_residual,
        box_residual=box_residual,
        box_residual_normalized=box_residual / (2.0 * eta / n),
    )


def loss_interval(
    test_X: np.ndarray,
    test_y: np.ndarray,
    weights: AbstractWeights,
    lam: float,
    formula: str = "ridge",
) -> LossInterval:
    """Range of the test loss over the weight zonotope.

    Expands the quadratic loss as one polynomial form (degree <= 2 in the
    symbols), linearizes, and concretizes.  Aggregating symbolically before
    concretizing keeps the cross-point correlations that per-prediction
    interval arithmetic would lose, which tightens the upper end.  Both
    supported formulas are nonnegative combinations of squares of affine
    forms, so the lower end additionally uses each square's exact minimum
    (the squared distance of zero to the affine term's interval); the
    linearized lower bound alone would forget that squares cannot go
    negative.
    """
    test_X = np.asarray(test_X, dtype=float)
    test_y = np.asarray(test_y, dtype=float)
    if test_X.ndim != 2 or test_X.shape[1] != weights.dim:
        raise ShapeMismatchError(f"test set must be (n, {weights.dim})")
    if test_X.shape[0] != test_y.shape[0]:
        raise ShapeMismatchError("test X and y row counts differ")
    if formula not in ("ridge", "mse"):
        raise ValueError(f"unknown loss formula {formula!r}")
    reg = weights.registry
    w_vec = weights.as_zvector()
    n = test_X.shape[0]

    def square_min(f: PolyForm) -> float:
        lo, hi = interval_of(f)
        if lo <= 0.0 <= hi:
            return 0.0
        return min(lo * lo, hi * hi)

    pieces = []
    structural_lo = 0.0
    for i in range(n):
        pred = sum_forms(
            reg,
            (w_vec[j].scale(test_X[i, j]) for j in range(weights.dim) if test_X[i, j] != 0.0),
        )
        resid = pred - test_y[i]
        structural_lo += square_min(resid) / n
        pieces.append((resid * resid).scale(1.0 / n))
    if formula == "ridge" and lam > 0.0:
        for j in range(weights.dim):
            structural_lo += lam * square_min(w_vec[j])
            pieces.append((w_vec[j] * w_vec[j]).scale(lam))
    total = sum_forms(reg, pieces)
    linear = linearize(ZVector(reg, [total]))
    lo, hi = interval_of(linear[0])
    return LossInterval(lo=max(lo, structural_lo), hi=hi, formula=formula)


def predict_interval(x: np.ndarray, weights: AbstractWeights) -> PredictionInterval:
    """Viable prediction range for a concrete test point.

    The prediction ``x . w`` is affine in the symbols: the data part
    contributes ``sum_s |x . g_s|`` and the box part ``sum_i |x . a_i| k_i``
    where ``a_i`` are the columns of the inverse transform.  Exact for the
    weight zonotope.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (weights.dim,):
        raise ShapeMismatchError(f"test point must have dimension {weights.dim}")
    center = float(x @ weights.w_R)
    radius = 0.0
    for gen in weights.w_D_coeffs.values():
        radius += abs(float(x @ gen))
    for i in range(weights.dim):
        radius += abs(float(x @ weights.A_inv[:, i])) * weights.k[i]
    return PredictionInterval(center - radius, center + radius)


def parameter_intervals(
    weights: AbstractWeights, names: list[str] | None = None
) -> ParameterIntervals:
    """Componentwise bounds of the weight zonotope (exact per dimension)."""
    boxes = [interval_of(f) for f in weights.as_zvector()]
    lo = np.array([b[0] for b in boxes])
    hi = np.array([b[1] for b in boxes])
    return ParameterIntervals(lo=lo, hi=hi, names=names or [f"w{j}" for j in range(len(lo))])


def split_join(
    parts: list[AbstractDataset], cfg: RidgeConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Center and diameters of the box join of the parts' fixed points."""
    results = []
    for part in parts:
        w_R = ridge_closed_form_real(part.X_R, part.y_R, cfg.lam)
        w_D = closed_form_symbolic_data(part, cfg.lam, w_R)
        A, A_inv = build_transform(part.X_R, cfg)
        part_sys = build_non_data_system(part, cfg.lam, w_R, w_D, A, A_inv)
        k = solve_non_data(part_sys, cfg.lam, cfg.tolerance)
        fresh = part.registry.new_symbols(part.d, SymbolKind.FRESH)
        results.append(
            AbstractWeights(
                w_R=w_R, w_D_coeffs=w_D, k=k, A=A, A_inv=A_inv, fresh_ids=fresh,
                registry=part.registry, lam=cfg.lam,
            )
        )
    joined_vec = box_join([w.as_zvector() for w in results])
    k = np.array([f.coeff_abs_sum() for f in joined_vec.entries])
    return joined_vec.centers(), k
