"""Closed-form fixed point of abstract gradient descent for ridge regression.

The abstract weights decompose as ``w = w_R + w_D + w_ND``: a real center, an
affine part over the data symbols, and a box over the weights' own symbols
mapped through an invertible transform,

    w_ND = A^-1 diag(k) [eps'_1 ... eps'_d]^T,   k >= 0 componentwise.

``w_R`` is the concrete ridge solution on the centers; ``w_D`` solves its
fixed-point equation in closed form,

    w_D = (X_R'X_R + lam n I)^-1 (X_S'y_R + X_R'y_S - (X_R'X_S + X_S'X_R) w_R).

The diameters ``k`` are fixed by requiring that the transformed interval
hull of one gradient step reproduces the same box.  With

    q_ij   = entry (i,j) of  A X_R'X_R A^-1,
    c'_ij  = sum of |coefficients| of entry (i,j) of
             A (X_R'X_S + X_S'X_R + X_S'X_S) A^-1,
    h_i    = sum of |coefficients| of entry i of
             A ((X_R'X_S + X_S'X_R) w_D + X_S'X_S (w_R + w_D) - X_S'y_S),

a gradient step with learning rate eta small enough that
``1 - 2 eta lam - (2 eta / n) q_ii >= 0`` maps box diameters k to

    k'_i = (1 - 2 eta lam - (2 eta/n) q_ii) k_i
           + (2 eta/n) ( sum_{j!=i} |q_ij| k_j + sum_j c'_ij k_j + h_i ).

Setting ``k' = k`` and dividing by ``2 eta / n`` (eta cancels, so the
learning rate is not a model hyperparameter) gives the linear system solved
here:

    (lam n + q_ii - c'_ii) k_i - sum_{j!=i} (|q_ij| + c'_ij) k_j = h_i.

The constant column is stored as ``c0 = (2/n) h`` so the scalar case reads
``k = (n/2) c0 / (lam n + q - c')``.  The coefficient matrix is an M-matrix
(hence solvable with k >= 0) whenever ``lam >= beta`` where

    beta = (1/n) max_i ( sum_{j!=i} (|q_ij| + c'_ij) + c'_ii - q_ii ).

Below that threshold the dataset is mu-split until every part satisfies the
bound, the fixed points of all parts are computed in one batched pass, and
the results are box-joined.

One kernel (``_fit_stack``) computes these fixed points for a stack of parts:
the part index is a leading axis of its arrays, and it reads each part only
through its sums ``X'X`` and ``X'y`` and its rows at the uncertain cells.  The
unsplit fit is the stack of one part, the dataset itself; a split builds the
rows of its parts and passes them all.  The public one-part functions
(``ridge_closed_form_real`` ... ``solve_non_data``) run the same stages on
one part and serve as the stepwise reference and the residual check.

Everything here works on arrays, not on polynomial forms.  Each data symbol
lives in exactly one cell (a row, a column or the label, and a coefficient),
so the coefficient of every monomial in ``c'`` and ``h`` is a small product
of rows of ``X_R``, ``A``, ``A^-1`` and the ``w_D`` generators, and only
monomials whose symbols all share one row can collect more than one term
(see ``_diameter_terms``).  The weight zonotope is the generator matrix
``[G_D' | A^-1 diag(k)]`` around ``w_R``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

import numpy as np

from .dataset import LABEL_COL, AbstractDataset, Cells
from .errors import (
    IllConditionedError,
    LambdaTooSmall,
    ShapeMismatchError,
    SplitBudgetError,
    ZonoError,
)
from .symbols import SymbolRegistry

_COND_BOUND = 1e12
#: Slack of the feasibility test ``lam >= beta`` and of the clamp on negative diameters.
TOLERANCE = 1e-9
#: Elements of one temporary array in the chunked kernels (512 KB of float64).
CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class RidgeConfig:
    """Learning configuration.

    ``transform`` selects the order-reduction space: ``"svd"`` diagonalizes
    the center covariance (the default), ``"identity"`` reduces to a plain
    interval hull, or a custom invertible matrix may be supplied.
    """

    lam: float = 0.0
    transform: str | np.ndarray = "svd"
    split_budget: int = 4096

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be >= 0 and finite")
        if isinstance(self.transform, str) and self.transform not in ("svd", "identity"):
            raise ValueError(f"unknown transform {self.transform!r}")


@dataclass
class AbstractWeights:
    """Weight zonotope ``w_R + G_D' e + A^-1 diag(k) eps'``.

    ``G_D`` ``(S, d)`` is the data part: row j is the generator of data
    symbol ``data_ids[j]``.  A fit has one row per entry of the dataset's
    cell table with a nonzero coefficient, in table order, and none after
    the box join of a split.  The box part ``A^-1 diag(k) eps'`` has no
    symbol ids: its d symbols are the weights' own and appear in no dataset
    or test point.

    The generator matrix and its data-symbol-to-column index are built on
    first use and kept; reassigning any field (``weights.k = ...``) drops
    them.  Changing a field's array in place does not.
    """

    w_R: np.ndarray
    G_D: np.ndarray
    data_ids: np.ndarray
    k: np.ndarray
    A: np.ndarray
    A_inv: np.ndarray
    registry: SymbolRegistry

    def __setattr__(self, name, value):
        self.__dict__.pop("_zonotope", None)
        super().__setattr__(name, value)

    @property
    def dim(self) -> int:
        return self.w_R.shape[0]

    def w_D(self, assignment: Mapping[int, float]) -> np.ndarray:
        """Evaluate the data-symbol part at a concrete assignment: ``e @ G_D``."""
        ids = self.data_ids.tolist()
        return np.fromiter(map(assignment.__getitem__, ids), float, len(ids)) @ self.G_D

    def _generator_columns(self) -> tuple[np.ndarray, dict[int, int]]:
        """The cached ``generators()`` and the column of each data symbol id."""
        cached = self.__dict__.get("_zonotope")
        if cached is None:
            W = np.hstack([self.G_D.T, self.A_inv * self.k])
            W.flags.writeable = False
            ids = self.data_ids.tolist()
            cached = self.__dict__["_zonotope"] = (W, dict(zip(ids, range(len(ids)))))
        return cached

    def generators(self) -> np.ndarray:
        """Generator matrix ``W = [G_D' | A^-1 diag(k)]`` of the weight zonotope.

        Row i is dimension i; column j multiplies one error symbol: first the
        data symbols of ``data_ids``, then the last d columns, the box
        part.  The zonotope is ``{w_R + W e : e in [-1, 1]^m}``.  The array
        is read-only: it is the weights' cached copy.
        """
        return self._generator_columns()[0]


@dataclass
class NonDataSystem:
    """Assembled diameter system ``(lam n + q_ii - c'_ii) k_i - ... = (n/2) c0_i``.

    The public functions build and take one system; the split path stacks
    the systems of many parts along a leading axis (``Q`` and ``Cprime`` of
    shape ``(P, d, d)``, ``c0`` of ``(P, d)``, ``beta`` of ``(P,)``), and
    the methods then return one result per part.
    """

    Q: np.ndarray
    Cprime: np.ndarray
    c0: np.ndarray
    beta: float | np.ndarray
    n: int

    def coefficient_matrix(self, lam: float) -> np.ndarray:
        m = -(np.abs(self.Q) + self.Cprime)
        i = np.arange(self.Q.shape[-1])
        m[..., i, i] = lam * self.n + self.Q[..., i, i] - self.Cprime[..., i, i]
        return m

    def m_matrix_margin(self, lam: float) -> float | np.ndarray:
        """Least diagonal dominance ``min_i (m_ii - sum_{j!=i} |m_ij|)``."""
        m = self.coefficient_matrix(lam)
        diag = np.diagonal(m, axis1=-2, axis2=-1)
        off = np.abs(m).sum(axis=-1) - np.abs(diag)
        margin = np.min(diag - off, axis=-1)
        return margin if margin.ndim else float(margin)


@dataclass
class ResidualReport:
    """Self-consistency of one symbolic gradient step at the fixed point."""

    eta: float
    real_residual: float
    data_residual: float
    box_residual: float
    box_residual_normalized: float


@dataclass
class FixedPointDiagnostics:
    beta: float
    splits_used: int
    m_matrix_margin: float
    residual: ResidualReport | None = None
    part_betas: list[float] | None = None


_RANK_DEFICIENT = "centers are rank-deficient at lambda = 0"


def _ridge(
    gram: np.ndarray, xty: np.ndarray, lam: float, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ridge solutions ``(X'X + lam n I)^-1 X'y`` of a stack of parts.

    Returns the solutions ``(P, d)``, the regularized Gram matrices and the
    parts whose centers are rank-deficient at ``lam = 0``; those are solved
    against the identity instead, and the caller refuses them.
    """
    reg = gram + lam * n * np.eye(gram.shape[-1])
    deficient = np.zeros(len(reg), dtype=bool)
    if lam == 0.0:
        deficient = np.linalg.cond(reg) > 1e13
        reg[deficient] = np.eye(gram.shape[-1])
    return np.linalg.solve(reg, xty[..., None])[..., 0], reg, deficient


def ridge_closed_form_real(X_R: np.ndarray, y_R: np.ndarray, lam: float) -> np.ndarray:
    """Ridge solution on the real centers: ``(X_R'X_R + lam n I)^-1 X_R'y_R``."""
    X_R = np.asarray(X_R, dtype=float)
    y_R = np.asarray(y_R, dtype=float)
    w_R, _, deficient = _ridge((X_R.T @ X_R)[None], (X_R.T @ y_R)[None], lam, X_R.shape[0])
    if deficient[0]:
        raise np.linalg.LinAlgError(_RANK_DEFICIENT)
    return w_R[0]


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


def _at_cells(ad: AbstractDataset, cells: Cells) -> tuple[np.ndarray, np.ndarray]:
    """The feature row ``(1, S, d)`` and label ``(1, S)`` at each cell, as a stack of one part."""
    return ad.X_R[cells.rows][None], ad.y_R[cells.rows][None]


def _data_rhs(cells: Cells, x: np.ndarray, y: np.ndarray, w_R: np.ndarray) -> np.ndarray:
    """``X_S'y_R + X_R'y_S - (X_R'X_S + X_S'X_R) w_R``, one column per symbol.

    Part p has the feature row ``x[p, i]`` and label ``y[p, i]`` at cell i
    and the ridge solution ``w_R[p]``; the result is ``(P, d, S)``.
    """
    rhs = cells.coef[:, None] * x  # a label cell contributes coef * x_r
    f = np.flatnonzero(cells.cols != LABEL_COL)
    c, a = cells.cols[f], cells.coef[f]
    xf = x[:, f]
    rhs[:, f] = -(a * w_R[:, c])[..., None] * xf
    rhs[:, f, c] += a * (y[:, f] - (xf @ w_R[..., None])[..., 0])
    return rhs.swapaxes(1, 2)


def _matches(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs ``(i, j)`` with ``a[i] == b[j]``."""
    order = np.argsort(a, kind="stable")
    first = np.searchsorted(a[order], b, side="left")
    counts = np.searchsorted(a[order], b, side="right") - first
    ends = np.cumsum(counts)
    j = np.repeat(np.arange(len(b)), counts)
    pos = np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts - first, counts)
    return order[pos], j


def _abs_row_sums(parts: int, count: int, inner: int, d: int, block) -> np.ndarray:
    """Per-part, per-row sums of ``|block(lo, hi)|`` over its inner axis, in chunks.

    ``block(lo, hi)`` returns the ``(parts, hi - lo, inner, d)`` coefficients
    of rows ``lo..hi-1``.  Each row of each part is reduced on its own and
    the caller sums the rows afterwards, so the result does not depend on
    the chunk size.
    """
    out = np.zeros((parts, count, d))
    step = max(1, CHUNK_ELEMENTS // max(1, parts * inner * d))
    for lo in range(0, count, step):
        hi = min(count, lo + step)
        coefs = block(lo, hi)
        out[:, lo:hi] = np.abs(coefs, out=coefs).sum(axis=2)
    return out


def _diameter_terms(
    cells: Cells,
    x: np.ndarray,
    w_R: np.ndarray,
    G: np.ndarray,
    A: np.ndarray,
    A_inv: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``c'`` and ``h`` of the diameter systems of P parts, as sums of |coefficients|.

    The parts share ``cells``; part p has the feature row ``x[p, i]`` at
    cell i, the ridge solution ``w_R[p]``, one ``w_D`` generator per cell in
    ``G[p]`` and the transform ``A[p]``, ``A_inv[p]``.  Returns ``c'`` as
    ``(P, d, d)`` and ``h`` as ``(P, d)``.

    Feature symbol s sits in row r, column c with coefficient a; g_s is its
    ``w_D`` generator (label symbols have generators but no M or N terms).
    With ``M_s = a (x_r e_c' + e_c x_r')`` and, for same-row feature symbols
    ``s <= t``, ``N_st = a_s a_t (E_{c_s c_t} + E_{c_t c_s})`` (``N_ss =
    a_s^2 E_cc``), the monomials and their coefficients, all mapped by A, are

    * ``c'``: ``e_s -> A M_s A^-1`` and ``e_s e_t -> A N_st A^-1``;
    * ``h``, degree 2: ``e_s e_t -> A (M_s g_t + M_t g_s)`` (``M_s g_s``
      once for ``s = t``), plus ``A N_st w_R`` for a same-row feature pair
      and ``-a_s b_t A e_{c_s}`` for a same-row feature/label pair;
    * ``h``, degree 3: ``e_s e_t e_u -> A N_st g_u``.

    A monomial is reached from more than one source only when all its
    symbols lie in one row, so only same-row triples are merged before
    taking absolute values; every other product is its own monomial and is
    abs-summed in chunks of ``CHUNK_ELEMENTS``.
    """
    P, d = w_R.shape
    feat = cells.cols != LABEL_COL
    order = np.concatenate([np.flatnonzero(feat), np.flatnonzero(~feat)])  # features first
    rows, cols, coef = cells.rows[order], cells.cols[order], cells.coef[order]
    nf, ns = int(feat.sum()), len(order)
    G = G[:, order]

    fr, fc, fa = rows[:nf], cols[:nf], coef[:nf]
    x = x[:, order[:nf]]
    A_t = A.swapaxes(1, 2)
    Ax = x @ A_t  # A x_r
    Ac = A_t[:, fc]  # A e_c
    Ai = A_inv[:, fc]  # e_c' A^-1
    cprime = np.abs(
        fa[:, None, None]
        * (Ax[..., :, None] * Ai[..., None, :] + Ac[..., :, None] * (x @ A_inv)[..., None, :])
    ).sum(axis=1)

    i, j = _matches(fr, fr)
    ps, pt = i[i <= j], j[i <= j]  # same-row feature pairs s <= t
    # N_st = fp (E_{c_s c_t} + E_{c_t c_s}); halving fp for s = t gives N_ss = a_s^2 E_cc.
    fp = fa[ps] * fa[pt] * np.where(ps == pt, 0.5, 1.0)
    cprime += np.abs(
        fp[:, None, None]
        * (
            Ac[:, ps, :, None] * Ai[:, pt, None, :]
            + Ac[:, pt, :, None] * Ai[:, ps, None, :]
        )
    ).sum(axis=1)

    # Degree 2: row s of a block holds the monomials e_s e_t with s < t
    # among features, s = t, and every label t.
    aY = fa[:, None] * G[:, :, fc].swapaxes(1, 2)  # a_s g_t[c_s]
    aZ = fa[:, None] * (x @ G.swapaxes(1, 2))  # a_s (x_r . g_t)
    fl, tl = _matches(fr, rows[nf:])  # same-row feature/label pairs
    ex_s = np.concatenate([ps, fl])
    ex_t = np.concatenate([pt, nf + tl])
    ex_v = np.concatenate(
        [
            fp[:, None] * (Ac[:, ps] * w_R[:, fc[pt], None] + Ac[:, pt] * w_R[:, fc[ps], None]),
            -(fa[fl] * coef[nf + tl])[:, None] * Ac[:, fl],
        ],
        axis=1,
    )
    findex = np.arange(nf)

    def pairs(lo: int, hi: int) -> np.ndarray:
        b = slice(lo, hi)
        s = findex[b, None]
        own = np.ones((hi - lo, ns), dtype=bool)
        own[:, :nf] = findex >= s
        y, z = aY[:, b] * own, aZ[:, b] * own  # M_s g_t
        out = y[..., None] * Ax[:, b, None, :]
        out += z[..., None] * Ac[:, b, None, :]
        later = findex > s
        y, z = aY[:, :, b].swapaxes(1, 2) * later, aZ[:, :, b].swapaxes(1, 2) * later  # M_t g_s
        back = y[..., None] * Ax[:, None]
        back += z[..., None] * Ac[:, None]
        out[:, :, :nf] += back
        sel = (ex_s >= lo) & (ex_s < hi)
        out[:, ex_s[sel] - lo, ex_t[sel]] += ex_v[:, sel]
        return out

    # Degree 3 across rows: pair p times a symbol u outside the pair's row.
    prow = fr[ps]
    v_s, v_t = fp[:, None] * Ac[:, ps], fp[:, None] * Ac[:, pt]

    def triples(lo: int, hi: int) -> np.ndarray:
        b = slice(lo, hi)
        other = rows != prow[b, None]
        out = (G[:, :, fc[pt[b]]].swapaxes(1, 2) * other)[..., None] * v_s[:, b, None, :]
        out += (G[:, :, fc[ps[b]]].swapaxes(1, 2) * other)[..., None] * v_t[:, b, None, :]
        return out

    h = (
        _abs_row_sums(P, nf, ns, d, pairs).sum(axis=1)
        + _abs_row_sums(P, len(ps), ns, d, triples).sum(axis=1)
    )

    # Degree 3 within a row: merge the sources of each sorted triple.
    u, p = _matches(rows, prow)
    vals = G[:, u, fc[pt[p]]][..., None] * v_s[:, p] + G[:, u, fc[ps[p]]][..., None] * v_t[:, p]
    keys = np.sort(np.stack([ps[p], pt[p], u], axis=1), axis=1) @ np.array([ns * ns, ns, 1])
    uniq, inverse = np.unique(keys, return_inverse=True)
    merged = np.zeros((P, len(uniq), d))
    np.add.at(merged, (slice(None), inverse), vals)
    h += np.abs(merged).sum(axis=1)
    return cprime, h


def _transform(gram: np.ndarray, cfg: RidgeConfig) -> tuple[np.ndarray, np.ndarray]:
    """``build_transform`` for a stack of Gram matrices ``X_R'X_R``: ``(P, d, d)`` each."""
    P, d = gram.shape[0], gram.shape[-1]
    if isinstance(cfg.transform, str):
        if cfg.transform == "identity":
            eye = np.repeat(np.eye(d)[None], P, axis=0)
            return eye, eye.copy()
        _, _, vt = np.linalg.svd(gram)
        return vt, vt.swapaxes(1, 2)
    a = np.asarray(cfg.transform, dtype=float)
    if a.shape != (d, d):
        raise ShapeMismatchError(f"transform must be {d}x{d}, got {a.shape}")
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > _COND_BOUND:
        raise IllConditionedError(f"custom transform condition number {cond:.3e}")
    return np.repeat(a[None], P, axis=0), np.repeat(np.linalg.inv(a)[None], P, axis=0)


def build_transform(X_R: np.ndarray, cfg: RidgeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Order-reduction transform and its inverse.

    The SVD choice diagonalizes ``X_R'X_R`` so the q-matrix of the diameter
    system is diagonal; identity leaves the original space.  Custom matrices
    are validated for conditioning before inverting.
    """
    A, A_inv = _transform((X_R.T @ X_R)[None], cfg)
    return A[0], A_inv[0]


def _system(Q: np.ndarray, cprime: np.ndarray, h: np.ndarray, n: int) -> NonDataSystem:
    """The diameter system with ``c0 = (2/n) h`` and its threshold ``beta``.

    Works on one system or on a stack of them along a leading axis.
    """
    off = np.abs(Q) + cprime
    i = np.arange(Q.shape[-1])
    off[..., i, i] = 0.0
    beta = np.max(off.sum(axis=-1) + cprime[..., i, i] - Q[..., i, i], axis=-1) / n
    return NonDataSystem(
        Q=Q, Cprime=cprime, c0=(2.0 / n) * h, beta=beta if beta.ndim else float(beta), n=n
    )


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
    if G_D.shape != (len(cells.symbols), ad.d):
        raise ShapeMismatchError(f"G_D must be {(len(cells.symbols), ad.d)}, got {G_D.shape}")
    x, _ = _at_cells(ad, cells)
    cprime, h = _diameter_terms(cells, x, w_R[None], G_D[None], A[None], A_inv[None])
    Q = A @ (ad.X_R.T @ ad.X_R) @ A_inv
    return _system(Q, cprime[0], h[0], ad.n)


def _solve_each(m: np.ndarray, rhs: np.ndarray, solve: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``m k = rhs`` for the parts marked in ``solve``; the others get ``k = 0``.

    Returns ``k`` and the parts whose matrix is singular (their ``k`` is 0).
    """
    singular = np.zeros_like(solve)
    try:
        if solve.all():
            return np.linalg.solve(m, rhs[..., None])[..., 0], singular
        k = np.zeros_like(rhs)
        k[solve] = np.linalg.solve(m[solve], rhs[solve][..., None])[..., 0]
    except np.linalg.LinAlgError:
        k = np.zeros_like(rhs)
        for p in np.flatnonzero(solve):
            try:
                k[p] = np.linalg.solve(m[p], rhs[p])
            except np.linalg.LinAlgError:
                singular[p] = True
    return k, singular


def _diameters(sys: NonDataSystem, lam: float, tolerance: float) -> tuple[np.ndarray, list]:
    """``solve_non_data`` on a stack of systems.

    Returns the diameters ``(P, d)`` and the checks, in the order
    ``solve_non_data`` makes them, as ``(failed parts, error of part p)``
    pairs (see ``_first_failure``).  A homogeneous part gets ``k = 0`` and
    no check.
    """
    homogeneous = ~sys.c0.any(axis=-1)
    if homogeneous.all():
        return np.zeros_like(sys.c0), []
    infeasible = ~homogeneous & (lam < sys.beta - tolerance)
    solved = ~(homogeneous | infeasible)
    m = sys.coefficient_matrix(lam)
    rhs = (sys.n / 2.0) * sys.c0
    k, singular = _solve_each(m, rhs, solved)
    # An unsolved part has k = 0: a homogeneous one passes the last two
    # checks, and any other already failed an earlier one, which wins.
    resid = np.abs(np.einsum("pij,pj->pi", m, k) - rhs).max(axis=-1, initial=0.0)
    scale = 1.0 + np.abs(rhs).max(axis=-1, initial=0.0)
    clamp = tolerance * (1.0 + np.abs(k).max(axis=-1, initial=0.0))
    checks = [
        (infeasible, lambda p: LambdaTooSmall(float(sys.beta[p]))),
        (singular, lambda p: np.linalg.LinAlgError("Singular matrix")),
        (
            resid > 1e-8 * scale,
            lambda p: ZonoError(f"diameter system residual {resid[p]:.3e} too large"),
        ),
        (
            (k < -clamp[:, None]).any(axis=-1),
            lambda p: ZonoError(f"negative box diameter {k[p].min():.3e} beyond tolerance"),
        ),
    ]
    return np.maximum(k, 0.0), checks


def _first_failure(checks: list) -> Exception | None:
    """The error that solving the parts one by one, in order, raises first.

    ``checks`` lists ``(failed, error)`` pairs in the order one part runs
    them: ``failed`` marks the parts that fail the check and ``error(p)``
    builds part p's exception.  The lowest failing part wins, and within it
    the earliest check.
    """
    first = None
    for failed, error in checks:
        if failed.any():
            p = int(failed.argmax())
            if first is None or p < first[0]:
                first = (p, error)
    return None if first is None else first[1](first[0])


def solve_non_data(sys: NonDataSystem, lam: float, tolerance: float = TOLERANCE) -> np.ndarray:
    """Solve the diameter system; requires ``lam >= beta`` up to tolerance.

    The homogeneous case (zero constant column, e.g. certain or label-only
    data) is solved exactly by ``k = 0`` whatever the matrix looks like, so
    it bypasses the feasibility threshold.  Otherwise M-matrix theory
    guarantees a nonnegative solution in the feasible regime; negative
    entries beyond a small clamp indicate numerical trouble and are
    rejected.
    """
    stack = NonDataSystem(
        Q=sys.Q[None], Cprime=sys.Cprime[None], c0=sys.c0[None], beta=np.array([sys.beta]), n=sys.n
    )
    k, checks = _diameters(stack, lam, tolerance)
    error = _first_failure(checks)
    if error is not None:
        raise error
    return k[0]


def determine_num_splits(sys: NonDataSystem, lam: float) -> int:
    """Smallest per-symbol split count predicted to bring beta under lam.

    Uses the bound ``beta(m) <= (d * c'_max / m - min_i q_ii) / n`` obtained
    from scaling the symbolic part by 1/m; the caller re-checks actual
    per-part betas after splitting, since centers shift per part.
    """
    if sys.beta <= lam:
        return 1
    cmax = float(np.max(sys.Cprime, initial=0.0))
    if cmax <= 0.0:
        return 1
    d = sys.Q.shape[0]
    min_q = float(np.min(np.diag(sys.Q)))
    denom = lam * sys.n + min_q
    if denom <= 0.0:
        raise LambdaTooSmall(sys.beta)
    return max(2, int(np.ceil(d * cmax / denom)))


def _fit_stack(
    gram: np.ndarray, xty: np.ndarray, cells: Cells, x: np.ndarray, y: np.ndarray, n: int,
    cfg: RidgeConfig,
) -> tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, NonDataSystem, Exception | None
]:
    """Fixed points of P parts that share ``cells``, every stage one call over all parts.

    Part p has ``n`` rows, the sums ``gram[p] = X'X`` and ``xty[p] = X'y``,
    and the feature row ``x[p, i]`` and label ``y[p, i]`` at cell i.
    Returns ``w_R``, the ``w_D`` generators ``G`` ``(P, S, d)``, ``A``,
    ``A_inv``, ``k`` and the diameter systems, all with a leading part axis,
    and the error that solving the parts one by one, in order, raises first
    (``None`` if every part is solved).  Each part gets the rank check of
    ``ridge_closed_form_real``, then those of ``solve_non_data``; a
    rank-deficient first part raises at once, as nothing can precede it.
    """
    w_R, reg, deficient = _ridge(gram, xty, cfg.lam, n)
    if deficient[0]:
        raise np.linalg.LinAlgError(_RANK_DEFICIENT)
    G = np.linalg.solve(reg, _data_rhs(cells, x, y, w_R)).swapaxes(1, 2)
    A, A_inv = _transform(gram, cfg)
    sys = _system(A @ gram @ A_inv, *_diameter_terms(cells, x, w_R, G, A, A_inv), n)
    k, checks = _diameters(sys, cfg.lam, TOLERANCE)
    error = _first_failure(
        [(deficient, lambda p: np.linalg.LinAlgError(_RANK_DEFICIENT)), *checks]
    )
    return w_R, G, A, A_inv, k, sys, error


def _part_block(pos: np.ndarray, touched: int, d: int) -> int:
    """Parts solved together: a block's largest temporary stays near ``CHUNK_ELEMENTS``.

    ``pos`` is the index of each cell's row among the ``touched`` rows that
    hold a split cell.  The largest per-part temporaries are the ``(terms,
    d, d)`` products of ``c'`` (one per feature cell and same-row pair), the
    same-row triples of ``h``, one row of the degree-2 block and the touched
    rows.
    """
    per_row = np.bincount(pos).astype(np.int64)
    S = len(pos)
    pairs, triples = int(per_row @ per_row), int(per_row @ per_row**2)
    largest = d * max(d * (S + pairs), triples, S * S, touched)
    return max(1, CHUNK_ELEMENTS // max(1, largest))


def _join_split(
    ad: AbstractDataset, m: int, cfg: RidgeConfig
) -> tuple[tuple, list[float], float] | None:
    """Box join of the fixed points of all parts of an ``m``-way split.

    Every part shares the rows without a split cell, so their sums ``X_U'X_U``
    and ``X_U'y_U`` are taken once; only the touched rows are built per part,
    with ``Cells.move``, and ``_fit_stack`` solves the parts in blocks that
    bound memory, in ``AbstractDataset.split`` order.  The join is the
    smallest box holding every part's interval hull ``w_R +- radius``.
    Returns the fit ``(w_R, G_D, data_ids, k, A, A_inv)`` of that box, the
    part betas and the least M-matrix margin; ``None`` if the first part to
    fail is below its feasibility threshold.
    """
    plan = ad.split_plan(m, budget=cfg.split_budget)
    cells = ad.nonzero_cells()._replace(coef=plan.coefficients)
    touched, pos = np.unique(cells.rows, return_inverse=True)
    X_U, y_U = np.delete(ad.X_R, touched, axis=0), np.delete(ad.y_R, touched)
    gram_U, xty_U = X_U.T @ X_U, X_U.T @ y_U
    X_T, y_T = ad.X_R[touched], ad.y_R[touched]
    block = _part_block(pos, len(touched), ad.d)
    lo = np.full(ad.d, np.inf)
    hi = np.full(ad.d, -np.inf)
    betas, margin = [], np.inf
    for start in range(0, len(plan.combos), block):
        X, y = cells._replace(rows=pos).move(X_T, y_T, plan.offsets(slice(start, start + block)))
        gram = gram_U + X.swapaxes(1, 2) @ X
        xty = xty_U + (X.swapaxes(1, 2) @ y[..., None])[..., 0]
        w_R, G, _, A_inv, k, sys, error = _fit_stack(
            gram, xty, cells, X[:, pos], y[:, pos], ad.n, cfg
        )
        if isinstance(error, LambdaTooSmall):
            return None
        if error is not None:
            raise error
        # Interval hull of [G_D' | A^-1 diag(k)] around w_R.
        radius = np.abs(np.concatenate([G.swapaxes(1, 2), A_inv * k[:, None, :]], axis=2)).sum(axis=2)
        lo = np.minimum(lo, (w_R - radius).min(axis=0))
        hi = np.maximum(hi, (w_R + radius).max(axis=0))
        betas.extend(sys.beta.tolist())
        margin = min(margin, float(sys.m_matrix_margin(cfg.lam).min()))
    d = ad.d
    box = (0.5 * (lo + hi), np.zeros((0, d)), np.zeros(0, dtype=np.int64), 0.5 * (hi - lo),
           np.eye(d), np.eye(d))
    return box, betas, margin


def fixed_point(
    ad: AbstractDataset, cfg: RidgeConfig
) -> tuple[AbstractWeights, FixedPointDiagnostics]:
    """Compute the abstract fixed point, mu-splitting when beta exceeds lam.

    Both paths run one kernel, ``_fit_stack``, over a stack of parts, and
    yield the fit ``(w_R, G_D, data_ids, k, A, A_inv)``, the part betas and
    the least M-matrix margin, from which the weights and diagnostics are
    built in one place.  The direct path is the stack of one part, the
    dataset itself: the result shares data symbols with the dataset and
    carries the solved box diameters, and only its diagnostics carry the
    residual of one gradient step (``verify_fixed_point_residual``), taken
    on the diameter system just assembled.  If that part is below its
    feasibility threshold, the ``m**s`` parts of a split are solved and
    box-joined by ``_join_split``.  Each part gets the checks of the direct
    path, and the first failing part decides, as if the parts were solved
    in order.  The join drops the data-symbol correlation: the joined
    weights have no data part, and ``splits_used > 1`` tells them apart.
    """
    X_R, y_R = ad.X_R, ad.y_R
    cells = ad.nonzero_cells()
    w_R, G, A, A_inv, k, sys, error = _fit_stack(
        (X_R.T @ X_R)[None], (X_R.T @ y_R)[None], cells, *_at_cells(ad, cells), ad.n, cfg
    )
    sys0 = NonDataSystem(
        Q=sys.Q[0], Cprime=sys.Cprime[0], c0=sys.c0[0], beta=float(sys.beta[0]), n=ad.n
    )
    if not isinstance(error, LambdaTooSmall):
        if error is not None:
            raise error
        # G_D in C order: a view can round later products differently.
        fit = (w_R[0], np.ascontiguousarray(G[0]), cells.symbols, k[0], A[0], A_inv[0])
        part_betas, margin = None, sys0.m_matrix_margin(cfg.lam)
    else:
        # Grow m until every part is feasible (centers shift per part, so
        # the prediction must be re-checked).  An infeasible system has a
        # nonzero constant column, which requires at least one feature
        # symbol with a nonzero coefficient, so splitting makes progress.
        s = len(cells.symbols)
        m = determine_num_splits(sys0, cfg.lam)
        while True:
            if m**s > cfg.split_budget:
                raise SplitBudgetError(f"{m}**{s} parts exceed split budget {cfg.split_budget}")
            joined = _join_split(ad, m, cfg)
            if joined is not None:
                break
            m += 1
        fit, part_betas, margin = joined
    weights = AbstractWeights(*fit, registry=ad.registry)
    diag = FixedPointDiagnostics(
        beta=sys0.beta,
        splits_used=1 if part_betas is None else len(part_betas),
        m_matrix_margin=margin,
        residual=_residual_report(ad, weights, sys0, cfg.lam) if part_betas is None else None,
        part_betas=part_betas,
    )
    return weights, diag


def verify_fixed_point_residual(
    ad: AbstractDataset, weights: AbstractWeights, cfg: RidgeConfig
) -> ResidualReport:
    """Apply one symbolic gradient step at ``cfg.lam`` and measure how far it moves.

    The step is taken on the dense terms of the diameter system.  With
    ``H = 2 lam I + (2/n) X_R'X_R``, the data-symbol part of the gradient is
    ``(2/n) ((X_R'X_R + lam n I) G_D' - RHS)`` (``RHS`` as in
    :func:`closed_form_symbolic_data`), and the interval hull of the box
    part after the step, in the transformed space, has diameters

        k' = |A (I - eta H) A^-1| k + eta ((2/n) c' k + c0),

    where ``c'`` and ``c0 = (2/n) h`` are assembled by
    :func:`build_non_data_system` from the weights' own ``w_D``.  At a true
    fixed point the real and data-symbol parts are unchanged and
    ``k' = k``.  The normalized box residual divides out the ``2 eta / n``
    step factor, making it comparable to the system's scale.
    """
    sys = build_non_data_system(ad, cfg.lam, weights.w_R, weights.G_D, weights.A, weights.A_inv)
    return _residual_report(ad, weights, sys, cfg.lam)


def _residual_report(
    ad: AbstractDataset, weights: AbstractWeights, sys: NonDataSystem, lam: float
) -> ResidualReport:
    """``verify_fixed_point_residual`` at ``lam`` on ``sys``, the weights' assembled system."""
    X_R, y_R = ad.X_R, ad.y_R
    n, d = X_R.shape
    gram = X_R.T @ X_R
    qmax = float(np.max(np.diag(sys.Q), initial=0.0))
    denom = 2.0 * lam + (2.0 / n) * max(qmax, 0.0)
    eta = 0.5 / denom if denom > 0 else 0.1

    # Real part: one concrete gradient step.
    g_r = (2.0 / n) * (gram @ weights.w_R - X_R.T @ y_R) + 2.0 * lam * weights.w_R
    real_residual = float(np.max(np.abs(eta * g_r), initial=0.0))

    cells = ad.nonzero_cells()
    rhs = _data_rhs(cells, *_at_cells(ad, cells), weights.w_R[None])[0]
    g_d = (gram + lam * n * np.eye(d)) @ weights.G_D.T - rhs
    data_residual = eta * (2.0 / n) * float(np.max(np.abs(g_d), initial=0.0))

    step = weights.A @ (np.eye(d) - eta * (2.0 * lam * np.eye(d) + (2.0 / n) * gram)) @ weights.A_inv
    k_new = np.abs(step) @ weights.k + eta * ((2.0 / n) * (sys.Cprime @ weights.k) + sys.c0)
    box_residual = float(np.max(np.abs(k_new - weights.k), initial=0.0))
    return ResidualReport(
        eta=eta,
        real_residual=real_residual,
        data_residual=data_residual,
        box_residual=box_residual,
        box_residual_normalized=box_residual / (2.0 * eta / n),
    )


def contains_world_weights(
    weights: AbstractWeights,
    e_data: Mapping[int, float],
    w_star: np.ndarray,
    tol: float | None = None,
) -> bool:
    """Membership of one world's trained weights in the joint concretization.

    Checks ``A (w* - w_R - w_D(e))`` against the box diameters: dimensions
    with a positive diameter allow the full box plus tolerance, degenerate
    dimensions must match to tolerance.  Valid for the structured fixed
    point shape (unsplit, or the box produced by a join).  A ``w*`` with a
    NaN or infinite entry is never inside: its ``r`` has one too, as ``A``
    is invertible.
    """
    w_star = np.asarray(w_star, dtype=float)
    if tol is None:
        tol = 1e-7 * (1.0 + float(np.abs(w_star).max()))
    r = weights.A @ (w_star - weights.w_R - weights.w_D(e_data))
    # k (1 + 1e-12) + tol where k > 0, else tol (fmax maps NaN to 0 too)
    bound = np.fmax(weights.k, 0.0) * (1.0 + 1e-12) + tol
    return bool(np.isfinite(r).all() and (np.abs(r) <= bound).all())
