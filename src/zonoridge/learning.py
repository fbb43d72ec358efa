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
the results are box-joined; ``_split_fit`` owns that whole search.

One kernel (``_fit_stack``) computes these fixed points for a stack of parts:
the part index is a leading axis of its arrays, and it reads each part only
through its sums ``X'X`` and ``X'y`` and its rows at the uncertain cells.  The
unsplit fit is the stack of one part, the dataset itself; a split builds the
rows of its parts and passes them all.  It raises every failure but
infeasibility, which ``_split_fit`` answers.  Inside ``_diameter_terms`` the
part axis is the innermost one instead, so that its numpy loops run over the
parts, not over the d coefficients of a row; its results are part-first.
The kernel is the only way into the stages: the module exports the fit,
the weights and the membership check, and nothing that runs one stage on
its own.  A fit computes each intermediate once: its residual
(``_residual_report``) and M-matrix margin come from the sums, right-hand
sides and coefficient matrices the kernel already built.

Everything here works on arrays, not on polynomial forms.  Each data symbol
lives in exactly one cell (a row, a column or the label, and a coefficient),
so the coefficient of every monomial in ``c'`` and ``h`` is a small product
of rows of ``X_R``, ``A``, ``A^-1`` and the ``w_D`` generators, and only
monomials whose symbols all share one row can collect more than one term.
A same-row feature pair's cubic terms are built once per column pair, and
its triples across rows are prefix and suffix sums (see ``_diameter_terms``).
The weight zonotope is the generator matrix ``[G_D' | A^-1 diag(k)]`` around ``w_R``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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


def _check_lam(lam: float) -> None:
    """Raise ``ValueError`` unless ``lam`` is a finite, nonnegative penalty (NaN too)."""
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError("lam must be >= 0 and finite")


@dataclass(frozen=True)
class RidgeConfig:
    """Learning configuration.

    ``transform`` selects the order-reduction space: ``"svd"`` diagonalizes
    the center covariance (the default), ``"identity"`` reduces to a plain
    interval hull, or a custom invertible matrix may be supplied.  A
    ``split_budget`` of 1 never splits.
    """

    lam: float = 0.0
    transform: str | np.ndarray = "svd"
    split_budget: int = 4096

    def __post_init__(self):
        _check_lam(self.lam)
        if isinstance(self.transform, str) and self.transform not in ("svd", "identity"):
            raise ValueError(f"unknown transform {self.transform!r}")
        if not self.split_budget >= 1:
            raise ValueError("split budget must be >= 1")


@dataclass
class AbstractWeights:
    """Weight zonotope ``w_R + G_D' e + A^-1 diag(k) eps'``.

    ``G_D`` ``(S, d)`` is the data part: row j is the generator of data
    symbol ``data_ids[j]``, the position of its entry in the dataset's cell
    table.  A fit has one row per entry with a nonzero coefficient, in
    table order, and none after the box join of a split.  The box part
    ``A^-1 diag(k) eps'`` has no symbol ids: its d symbols are the weights'
    own and appear in no dataset or test point.

    The generator matrix is built on first use and kept; the column of each
    data symbol id is indexed only when an uncertain test point first asks
    for it.  Reassigning any field (``weights.k = ...``) drops both.
    Changing a field's array in place does not.
    """

    w_R: np.ndarray
    G_D: np.ndarray
    data_ids: np.ndarray
    k: np.ndarray
    A: np.ndarray
    A_inv: np.ndarray
    registry: SymbolRegistry

    def __setattr__(self, name, value):
        self.__dict__.pop("_generators", None)
        self.__dict__.pop("_columns", None)
        super().__setattr__(name, value)

    @property
    def dim(self) -> int:
        return self.w_R.shape[0]

    def w_D(self, values: np.ndarray) -> np.ndarray:
        """The data-symbol part at a world, a row of one value per cell table entry:
        ``values[data_ids] @ G_D``."""
        return np.asarray(values, dtype=float)[self.data_ids] @ self.G_D

    @cached_property
    def _generators(self) -> np.ndarray:
        W = np.hstack([self.G_D.T, self.A_inv * self.k])
        W.flags.writeable = False
        return W

    @cached_property
    def _columns(self) -> dict[int, int]:
        """The column of ``generators()`` of each data symbol id."""
        ids = self.data_ids.tolist()
        return dict(zip(ids, range(len(ids))))

    def generators(self) -> np.ndarray:
        """Generator matrix ``W = [G_D' | A^-1 diag(k)]`` of the weight zonotope.

        Row i is dimension i; column j multiplies one error symbol: first the
        data symbols of ``data_ids``, then the last d columns, the box
        part.  The zonotope is ``{w_R + W e : e in [-1, 1]^m}``.  The array
        is read-only: it is the weights' cached copy.
        """
        return self._generators


@dataclass
class NonDataSystem:
    """Assembled diameter system ``(lam n + q_ii - c'_ii) k_i - ... = (n/2) c0_i``.

    Internal.  The kernel stacks the systems of its parts along a leading
    axis (``Q`` and ``Cprime`` of shape ``(P, d, d)``, ``c0`` of ``(P, d)``,
    ``beta`` of ``(P,)``), and ``coefficient_matrix`` then returns one
    matrix per part; the tests' one-part stages build one without that axis.
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


def _margin(m: np.ndarray) -> np.ndarray:
    """The M-matrix margin of a coefficient matrix, or of each one of a stack.

    The margin is the least diagonal dominance ``min_i (m_ii - sum_{j!=i} |m_ij|)``.
    """
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    off = np.abs(m).sum(axis=-1) - np.abs(diag)
    return np.min(diag - off, axis=-1)


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
    if len(f) == 0:
        return rhs.swapaxes(1, 2)
    c, a = cells.cols[f], cells.coef[f]
    xf = x[:, f]
    rhs[:, f] = -(a * w_R[:, c])[..., None] * xf
    rhs[:, f, c] += a * (y[:, f] - (xf @ w_R[..., None])[..., 0])
    return rhs.swapaxes(1, 2)


def _abs_row_sums(parts: int, count: int, inner: int, d: int, block) -> np.ndarray:
    """Per-row sums of ``|block(lo, hi)|`` over its inner axis, in chunks: ``(count, d, parts)``.

    ``block(lo, hi)`` returns the ``(hi - lo, inner, d, parts)`` coefficients
    of rows ``lo..hi-1``.  Each row of each part is reduced on its own and
    the caller sums the rows afterwards, so the result does not depend on
    the chunk size.
    """
    out = np.zeros((count, d, parts))
    step = max(1, CHUNK_ELEMENTS // max(1, parts * inner * d))
    for lo in range(0, count, step):
        hi = min(count, lo + step)
        coefs = block(lo, hi)
        out[lo:hi] = np.abs(coefs, out=coefs).sum(axis=1)
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
    ``(P, d, d)`` and ``h`` as ``(P, d)``, both C-contiguous.

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

    Every monomial has a feature symbol, so without one both are zero.
    A monomial is reached from more than one source only when all its
    symbols lie in one row, so only same-row triples are merged before
    taking absolute values; every other product is its own monomial.

    ``N_st`` depends on its pair only through ``fp = a_s a_t`` (halved for
    ``s = t``) and its column pair ``(c1, c2)``: ``A N_st g_u = fp T[c1 c2, u]``
    with ``T[c1 c2, u] = A e_c1 g_u[c2] + A e_c2 g_u[c1]``, and ``A N_st A^-1``
    likewise.  ``T`` is built once per column pair that occurs (at most
    d(d+1)/2) over a table of each touched row's symbols; a pair's triples
    across rows add ``|fp|`` times the prefix plus the suffix sum of the row
    sums of ``|T|`` that skips its own row (nothing is subtracted), and its
    same-row triples take ``fp T``.
    Degree 3 costs O(S d^3 + pairs d) per part, not O(pairs S d).  The
    degree-2 block and ``T`` are built in blocks of whole rows of about
    ``CHUNK_ELEMENTS`` elements, so the chunk size does not change a sum.

    The part axis is the last axis of every broadcast and sum, so numpy's
    inner loops run over the P parts, not over the d (3 on a typical split)
    coefficients of a row.  The products with ``x`` are taken part-first,
    one matrix per part, then transposed; so each part's terms equal, bit
    for bit, its own one-part call's (but for d = 1, where numpy sums 8 or
    more terms of one part pairwise and those of a stack in order; the
    prefix and suffix sums are always in order).
    """
    P, d = w_R.shape
    feat = cells.cols != LABEL_COL
    nf, ns = np.count_nonzero(feat), len(feat)
    if nf == 0:
        return np.zeros((P, d, d)), np.zeros((P, d))
    order = (~feat).argsort(kind="stable")  # features first
    rows, cols, coef = cells.rows[order], cells.cols[order], cells.coef[order]
    fc, fa = cols[:nf], coef[:nf]
    # Each touched row's symbols in order (so its features first), padded with ns.
    by_row = rows.argsort(kind="stable")
    sr = rows[by_row]
    start = sr.searchsorted(sr)  # where the symbol's row starts in by_row
    place = np.arange(ns) - start
    at = (place == 0).nonzero()[0].searchsorted(start)
    table = np.full((int(at[-1]) + 1, int(place.max()) + 1), ns)
    table[at, place] = by_row
    isf, filled, nr = table < nf, table < ns, len(table)
    # Same-row (feature s, symbol t), s <= t, by row: feature pairs, then feature/label pairs.
    label, r, i, j = (np.array([isf, filled > isf])[:, :, None] & isf[:, :, None]
                      & (table[:, :, None] <= table[:, None])).nonzero()
    s, t, npairs = table[r, i], table[r, j], label.searchsorted(1)
    ps, pt, prow = s[:npairs], t[:npairs], r[:npairs]
    fl, lt = s[npairs:], t[npairs:]
    # N_st = fp (E_{c_s c_t} + E_{c_t c_s}); halving fp for s = t gives N_ss = a_s^2 E_cc.
    fp = fa[ps] * fa[pt] * np.where(ps == pt, 0.5, 1.0)
    # The column pair (c1, c2), c1 <= c2, of each pair, numbered among those that occur.
    cs, ct = fc[ps], fc[pt]
    pair_col = np.minimum(cs, ct) * d + np.maximum(cs, ct)
    occurs = np.zeros(d * d, dtype=bool)
    occurs[pair_col] = True
    flat = occurs.nonzero()[0]
    c1, c2, cp = flat // d, flat % d, flat.searchsorted(pair_col)
    # Pair q times a symbol of its row (table row tq, place w), by row; in the
    # ``srt`` order each run of equal sorted triples, from ``runs`` on, is one monomial.
    q, w = filled[prow].nonzero()
    tq = prow[q]
    qs, qt, u = ps[q], pt[q], table[tq, w]  # qs <= qt: the triple sorts to (min, median, max)
    keys = (np.minimum(qs, u) * ns + np.minimum(np.maximum(u, qs), qt)) * ns + np.maximum(qt, u)
    srt = keys.argsort(kind="stable")
    keys = keys[srt]
    runs = (keys != np.concatenate([[-1], keys[:-1]])).nonzero()[0]

    G, x = G[:, order], x[:, order[:nf]]
    # A x_r, x_r' A^-1, x_r . g_t, A e_c, e_c' A^-1, g_t[c], part last (a view if P = 1)
    A_t, G_t = A.swapaxes(1, 2), G.swapaxes(1, 2)
    Ax, xAi, xG, Ac, Ai, Gc = (np.ascontiguousarray(a.transpose(1, 2, 0))
                               for a in (x @ A_t, x @ A_inv, x @ G_t, A_t, A_inv, G_t))
    A1, A2, I1, I2 = Ac[c1], Ac[c2], Ai[c1], Ai[c2]
    Ac, Ai = Ac[fc], Ai[fc]

    cprime = 0.0  # sum |a (A x_r e_c' A^-1 + A e_c x_r' A^-1)|, then sum |fp| per column pair
    for k, a, b, c, e in ((fa, Ax, Ai, Ac, xAi), (np.bincount(cp, np.abs(fp)), A1, I2, A2, I1)):
        t = a[:, :, None] * b[:, None]
        t += c[:, :, None] * e[:, None]
        t *= k[:, None, None, None]
        cprime = cprime + np.abs(t, out=t).sum(axis=0)

    # Degree 2: row s of a block holds the monomials e_s e_t with s < t
    # among features, s = t, and every label t.  The same-row terms are
    # multiples of A e_c too: N_st w_R = fp (w_R[c_t] A e_{c_s} + w_R[c_s]
    # A e_{c_t}) and -a_s b_t A e_{c_s}, so they join the factors of aZ.
    aY = fa[:, None, None] * Gc[fc]  # a_s g_t[c_s]
    aZ = fa[:, None, None] * xG  # a_s (x_r . g_t), entry (t, s) for M_t g_s
    aZ[ps, pt] += fp[:, None] * w_R.T[ct]
    aZ[pt, ps] += fp[:, None] * w_R.T[cs]  # a second term when s = t
    aZ[fl, lt] -= (fa[fl] * coef[lt])[:, None]
    findex = np.arange(nf)
    own = (np.arange(ns) >= findex[:, None])[..., None]  # t >= s, so every label t
    later = (findex > findex[:, None])[..., None]  # t > s among features

    def pairs(lo: int, hi: int) -> np.ndarray:
        b = slice(lo, hi)
        out = (aY[b] * own[b])[:, :, None] * Ax[b, None]  # M_s g_t
        out += (aZ[b] * own[b])[:, :, None] * Ac[b, None]
        back = (aY[:, b].swapaxes(0, 1) * later[b])[:, :, None] * Ax  # M_t g_s
        back += (aZ[:, b].swapaxes(0, 1) * later[b])[:, :, None] * Ac
        out[:, :nf] += back
        return out

    h = _abs_row_sums(P, nf, ns, d, pairs).sum(axis=0)

    # Degree 3: A N_st g_u = fp T[cp, u], T[cp, u] = A e_c1 g_u[c2] + A e_c2 g_u[c1], in whole
    # table rows: its same-row values are kept, its sums of |T| per row go into ``rsum``.
    Gz = np.zeros((d, ns + 1, 1, P))  # g_u[c], and a zero generator for the padding
    Gz[:, :ns, 0] = Gc
    vals, rsum = np.empty((len(q), d, P)), np.zeros((len(c1), nr + 2, d, P))
    step = max(1, CHUNK_ELEMENTS // (len(c1) * table.shape[1] * d * P))
    for lo in range(0, nr, step):
        hi = min(nr, lo + step)
        T = A1[:, None, None] * Gz[c2[:, None, None], table[lo:hi]]
        T += A2[:, None, None] * Gz[c1[:, None, None], table[lo:hi]]
        a, b = tq.searchsorted([lo, hi])
        vals[a:b] = T[cp[q[a:b]], tq[a:b] - lo, w[a:b]]
        rsum[:, lo + 1 : hi + 1] = np.abs(T, out=T).sum(axis=2)
    # Across rows each (pair, u) is its own monomial: |fp| times the row sums
    # before the pair's row plus those after it.
    outside = rsum.cumsum(axis=1)[:, :nr] + rsum[:, ::-1].cumsum(axis=1)[:, nr - 1 :: -1]
    h += (np.abs(fp)[:, None, None] * outside[cp, prow]).sum(axis=0)
    # Within a row the (at most 3) sources of a monomial are merged first.
    vals *= fp[q, None, None]
    h += np.abs(np.add.reduceat(vals[srt], runs)).sum(axis=0)
    return np.ascontiguousarray(cprime.transpose(2, 0, 1)), np.ascontiguousarray(h.T)


def _transform(gram: np.ndarray, cfg: RidgeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Order-reduction transforms and their inverses for a stack of Gram matrices ``X_R'X_R``.

    Each is ``(P, d, d)``.  The SVD choice diagonalizes ``X_R'X_R`` so the
    q-matrix of the diameter system is diagonal; identity leaves the
    original space.  Custom matrices are validated for shape, finite
    entries and conditioning before inverting.
    """
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
    if not np.isfinite(a).all():
        raise IllConditionedError("custom transform has a non-finite entry")
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > _COND_BOUND:
        raise IllConditionedError(f"custom transform condition number {cond:.3e}")
    return np.repeat(a[None], P, axis=0), np.repeat(np.linalg.inv(a)[None], P, axis=0)


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


def _diameters(
    sys: NonDataSystem, lam: float, tolerance: float
) -> tuple[np.ndarray, list, np.ndarray]:
    """Solve a stack of diameter systems; each requires ``lam >= beta`` up to tolerance.

    Returns the diameters ``(P, d)``, the checks, in the order one part
    makes them, as ``(failed parts, error of part p)`` pairs (see
    ``_first_failure``), and the coefficient matrices, built once for the
    solve and the margins.  A homogeneous part (zero constant column, e.g.
    certain or label-only data) gets ``k = 0``, whatever its matrix looks
    like, and passes every check; with no part left to solve, the
    feasibility check is the only one.  Otherwise M-matrix theory
    guarantees a nonnegative solution in the feasible regime; negative
    entries beyond a small clamp indicate numerical trouble and fail.
    """
    m = sys.coefficient_matrix(lam)
    homogeneous = ~sys.c0.any(axis=-1)
    infeasible = ~homogeneous & (lam < sys.beta - tolerance)
    checks = [(infeasible, lambda p: LambdaTooSmall(float(sys.beta[p])))]
    solved = ~(homogeneous | infeasible)
    if not solved.any():
        return np.zeros_like(sys.c0), checks, m
    rhs = (sys.n / 2.0) * sys.c0
    k, singular = _solve_each(m, rhs, solved)
    # An unsolved part has k = 0: a homogeneous one passes the last two
    # checks, and any other already failed an earlier one, which wins.
    resid = np.abs(np.einsum("pij,pj->pi", m, k) - rhs).max(axis=-1, initial=0.0)
    scale = 1.0 + np.abs(rhs).max(axis=-1, initial=0.0)
    clamp = tolerance * (1.0 + np.abs(k).max(axis=-1, initial=0.0))
    checks += [
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
    return np.maximum(k, 0.0), checks, m


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


def _first_split_count(sys: NonDataSystem, lam: float) -> int:
    """Where ``_split_fit`` starts: the least split count predicted to bring beta under lam.

    Uses the bound ``beta(m) <= (d * c'_max / m - min_i q_ii) / n`` obtained
    from scaling the symbolic part by 1/m; ``_split_fit`` re-checks actual
    per-part betas after splitting, since centers shift per part.  ``sys``
    (one part, or a stack of one) is infeasible with a feature cell, so
    ``c'_max > 0``.
    """
    cmax = float(np.max(sys.Cprime, initial=0.0))
    denom = lam * sys.n + float(np.min(np.diagonal(sys.Q, axis1=-2, axis2=-1)))
    if denom <= 0.0:
        raise LambdaTooSmall(float(np.max(sys.beta)))
    return max(2, int(np.ceil(sys.Q.shape[-1] * cmax / denom)))


class _Fit(NamedTuple):
    """What ``_fit_stack`` computes, each with a leading part axis."""

    w_R: np.ndarray
    G: np.ndarray  # the w_D generators, (P, S, d)
    A: np.ndarray
    A_inv: np.ndarray
    k: np.ndarray
    sys: NonDataSystem
    m: np.ndarray  # the coefficient matrix of each part's diameter system
    reg: np.ndarray  # X'X + lam n I
    rhs: np.ndarray  # the data right-hand side, (P, d, S)
    infeasible: bool  # the first failure is a part below its feasibility threshold


def _fit_stack(
    gram: np.ndarray, xty: np.ndarray, cells: Cells, x: np.ndarray, y: np.ndarray, n: int,
    cfg: RidgeConfig,
) -> _Fit:
    """Fixed points of P parts that share ``cells``, every stage one call over all parts.

    Part p has ``n`` rows, the sums ``gram[p] = X'X`` and ``xty[p] = X'y``,
    and the feature row ``x[p, i]`` and label ``y[p, i]`` at cell i.
    Returns the fits of the parts, with the regularized Gram matrices and
    the data right-hand sides they were solved from.  Each part gets the
    rank check of ``_ridge``, then those of ``_diameters``; the error that
    solving the parts one by one, in order, raises first is raised here,
    unless it is ``LambdaTooSmall``: then the fit is returned with
    ``infeasible`` set, for the caller to split.  A rank-deficient first
    part raises at once, as nothing can precede it.
    """
    w_R, reg, deficient = _ridge(gram, xty, cfg.lam, n)
    if deficient[0]:
        raise np.linalg.LinAlgError(_RANK_DEFICIENT)
    rhs = _data_rhs(cells, x, y, w_R)
    G = np.linalg.solve(reg, rhs).swapaxes(1, 2)
    A, A_inv = _transform(gram, cfg)
    sys = _system(A @ gram @ A_inv, *_diameter_terms(cells, x, w_R, G, A, A_inv), n)
    k, checks, m = _diameters(sys, cfg.lam, TOLERANCE)
    error = _first_failure(
        [(deficient, lambda p: np.linalg.LinAlgError(_RANK_DEFICIENT)), *checks]
    )
    if error is not None and not isinstance(error, LambdaTooSmall):
        raise error
    return _Fit(w_R, G, A, A_inv, k, sys, m, reg, rhs, error is not None)


def _part_block(pos: np.ndarray, touched: int, d: int) -> int:
    """Parts solved together: a block's largest temporary stays near ``CHUNK_ELEMENTS``.

    ``pos`` is the index of each cell's row among the ``touched`` rows that
    hold a split cell.  The largest per-part temporaries are the ``(terms,
    d, d)`` products of ``c'`` (one per feature cell and column pair), the
    same-row triples of ``h``, the degree-2 factors, and the row sums of
    the degree-3 block with one table row of it (see ``_diameter_terms``).
    """
    per_row = np.bincount(pos).astype(np.int64)
    S = len(pos)
    pairs, triples = int(per_row @ per_row), int(per_row @ per_row**2)
    ncp = min(pairs, d * (d + 1) // 2)  # column pairs
    largest = d * max(d * (S + ncp), triples, S * S, ncp * (touched + 2 + int(per_row.max())))
    return max(1, CHUNK_ELEMENTS // max(1, largest))


def _split_fit(
    ad: AbstractDataset, cells: Cells, sys: NonDataSystem, cfg: RidgeConfig
) -> tuple[tuple, list[float], float]:
    """Box join of the parts of the least feasible even split.

    ``sys`` is the kernel's infeasible stack of one, the unsplit fit on
    ``cells``, the entries with a nonzero coefficient.  Part p of an
    ``m``-way split, in ``itertools.product`` order, takes sub-cell ``j =
    combos[p, i]`` of cell i: its center moves by ``coef_i (2j + 1 - m) /
    m`` and its coefficient is ``coef_i / m``.  m starts at
    ``_first_split_count`` and grows while the kernel flags its stack
    infeasible (centers shift per part; a nonzero constant column needs a
    feature cell, so splitting makes progress); ``m**s`` parts over
    ``cfg.split_budget`` are refused before any is built.  The sums of the
    rows without a split cell are taken once per fit; each block of parts
    gets its touched rows from ``Cells.move`` and one ``_fit_stack`` call.  Returns the fit ``(w_R,
    G_D, data_ids, k, A, A_inv)`` of the smallest box holding every part's
    interval hull, the part betas and the least M-matrix margin.
    """
    s, d = len(cells.coef), ad.d
    touched, pos = np.unique(cells.rows, return_inverse=True)
    X_U, y_U = np.delete(ad.X_R, touched, axis=0), np.delete(ad.y_R, touched)
    gram_U, xty_U = X_U.T @ X_U, X_U.T @ y_U
    X_T, y_T = ad.X_R[touched], ad.y_R[touched]
    block = _part_block(pos, len(touched), d)
    m = _first_split_count(sys, cfg.lam)
    while True:
        if m**s > cfg.split_budget:
            raise SplitBudgetError(f"{m}**{s} parts exceed split budget {cfg.split_budget}")
        combos = np.indices((m,) * s).reshape(s, m**s).T
        shifts = (2 * np.arange(m) + 1 - m) / m
        parts = cells._replace(coef=cells.coef / m)
        lo, hi = np.full(d, np.inf), np.full(d, -np.inf)
        betas, margin = [], np.inf
        for start in range(0, len(combos), block):
            offsets = cells.coef * shifts[combos[start:start + block]]
            X, y = cells._replace(rows=pos).move(X_T, y_T, offsets)
            gram = gram_U + X.swapaxes(1, 2) @ X
            xty = xty_U + (X.swapaxes(1, 2) @ y[..., None])[..., 0]
            fit = _fit_stack(gram, xty, parts, X[:, pos], y[:, pos], ad.n, cfg)
            if fit.infeasible:
                break
            # Interval hull of [G_D' | A^-1 diag(k)] around w_R.
            generators = [fit.G.swapaxes(1, 2), fit.A_inv * fit.k[:, None, :]]
            radius = np.abs(np.concatenate(generators, axis=2)).sum(axis=2)
            lo = np.minimum(lo, (fit.w_R - radius).min(axis=0))
            hi = np.maximum(hi, (fit.w_R + radius).max(axis=0))
            betas.extend(fit.sys.beta.tolist())
            margin = min(margin, float(_margin(fit.m).min()))
        else:
            box = (0.5 * (lo + hi), np.zeros((0, d)), np.zeros(0, dtype=np.int64),
                   0.5 * (hi - lo), np.eye(d), np.eye(d))
            return box, betas, margin
        m += 1


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
    residual of one gradient step (``_residual_report``).  The residual is
    taken from what the fit already holds: the diameter system
    just assembled, the sums ``X_R'X_R`` and ``X_R'y_R`` passed to the
    kernel, the regularized Gram matrix and data right-hand side that
    ``w_D`` was solved from, and the coefficient matrix of the diameter
    solve, which also gives the margin.  If that part is below its
    feasibility threshold (the kernel raises any other failure), the split
    path is one call: ``_split_fit`` searches for the least feasible split
    count and box-joins the ``m**s`` parts of that split.  Each part gets
    the checks of the direct path, and the first failing part decides.
    The join drops the data-symbol correlation: the joined weights have no
    data part, and ``splits_used > 1`` tells them apart.
    """
    data_ids = np.flatnonzero(ad.cells.coef != 0.0)
    cells = ad.cells.select(data_ids)
    gram, xty = ad.X_R.T @ ad.X_R, ad.X_R.T @ ad.y_R
    one = _fit_stack(gram[None], xty[None], cells, *_at_cells(ad, cells), ad.n, cfg)
    if not one.infeasible:
        # G_D in C order: a view can round later products differently.
        fit = (one.w_R[0], np.ascontiguousarray(one.G[0]), data_ids, one.k[0], one.A[0],
               one.A_inv[0])
        part_betas, margin = None, float(_margin(one.m)[0])
    else:
        fit, part_betas, margin = _split_fit(ad, cells, one.sys, cfg)
    weights = AbstractWeights(*fit, registry=ad.registry)
    diag = FixedPointDiagnostics(
        beta=float(one.sys.beta[0]),
        splits_used=1 if part_betas is None else len(part_betas),
        m_matrix_margin=margin,
        residual=None if part_betas is not None else _residual_report(
            weights, one.sys, one.m[0], cfg.lam, gram, xty, one.reg[0], one.rhs[0]
        ),
        part_betas=part_betas,
    )
    return weights, diag


def _residual_report(
    weights: AbstractWeights, sys: NonDataSystem, m: np.ndarray, lam: float, gram: np.ndarray,
    xty: np.ndarray, reg: np.ndarray, rhs: np.ndarray,
) -> ResidualReport:
    """Apply one symbolic gradient step at ``lam`` and measure how far it moves.

    ``sys`` is a stack of one, the diameter system assembled from the
    weights' own ``w_D``.  The centers enter only through their sums ``gram
    = X_R'X_R`` and ``xty = X_R'y_R``, the regularized ``reg = gram + lam n
    I`` and the data right-hand side ``rhs`` ``(d, S)`` (``_data_rhs``);
    ``m`` is the system's coefficient matrix at ``lam``.  ``fixed_point``
    passes the arrays its fit was solved from, so nothing is computed twice.

    With ``H = 2 lam I + (2/n) X_R'X_R``, the data-symbol part of the
    gradient is ``(2/n) (reg G_D' - rhs)``, and the interval hull of the box
    part after the step, in the transformed space, has diameters

        k' = |A (I - eta H) A^-1| k + eta ((2/n) c' k + c0).

    The step size ``eta`` keeps the diagonal of ``A (I - eta H) A^-1 = I -
    eta (2 lam I + (2/n) Q)`` nonnegative, so ``k' - k = (2 eta / n) ((n/2)
    c0 - M k)`` with ``M = m``, and the report computes it so.  At a true
    fixed point the real and data-symbol parts are unchanged and ``k' = k``.
    The normalized box residual ``max |M k - (n/2) c0|`` divides out the
    ``2 eta / n`` step factor, making it comparable to the system's scale.
    """
    n = sys.n
    qmax = float(np.max(np.diag(sys.Q[0]), initial=0.0))
    denom = 2.0 * lam + (2.0 / n) * max(qmax, 0.0)
    eta = 0.5 / denom if denom > 0 else 0.1

    # Real part: one concrete gradient step.
    g_r = (2.0 / n) * (gram @ weights.w_R - xty) + 2.0 * lam * weights.w_R
    real_residual = float(np.max(np.abs(eta * g_r), initial=0.0))

    g_d = reg @ weights.G_D.T - rhs
    data_residual = eta * (2.0 / n) * float(np.max(np.abs(g_d), initial=0.0))

    # k' - k = (2 eta / n) ((n/2) c0 - M k), see the docstring.
    box_normalized = float(np.max(np.abs(m @ weights.k - (n / 2.0) * sys.c0[0]), initial=0.0))
    return ResidualReport(
        eta=eta,
        real_residual=real_residual,
        data_residual=data_residual,
        box_residual=(2.0 * eta / n) * box_normalized,
        box_residual_normalized=box_normalized,
    )


def contains_world_weights(
    weights: AbstractWeights,
    values: np.ndarray,
    w_star: np.ndarray,
    tol: float | None = None,
) -> bool:
    """Membership of one world's trained weights in the joint concretization.

    ``values`` is the world: one value per cell table entry, as a row of
    the oracles' worlds.  Checks ``A (w* - w_R - w_D(values))`` against the
    box diameters: dimensions with a positive diameter allow the full box
    plus tolerance, degenerate dimensions must match to tolerance.  Valid
    for the structured fixed point shape (unsplit, or the box produced by a
    join).  A ``w*`` with a NaN or infinite entry is never inside: its ``r``
    has one too, as ``A`` is invertible.
    """
    w_star = np.asarray(w_star, dtype=float)
    if tol is None:
        tol = 1e-7 * (1.0 + float(np.abs(w_star).max()))
    r = weights.A @ (w_star - weights.w_R - weights.w_D(values))
    # k (1 + 1e-12) + tol where k > 0, else tol (fmax maps NaN to 0 too)
    bound = np.fmax(weights.k, 0.0) * (1.0 + 1e-12) + tol
    return bool(np.isfinite(r).all() and (np.abs(r) <= bound).all())


def _inside(value, lo, hi):
    """``lo <= value <= hi`` elementwise, up to the world checks' slack ``1e-7 (1 + |value|)``:
    it scales, as ``contains_world_weights``' does, because a world rounds at its own scale."""
    tol = 1e-7 * (1.0 + np.abs(value))
    return (lo - tol <= value) & (value <= hi + tol)
