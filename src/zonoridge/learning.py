"""Closed-form fixed point of abstract gradient descent for ridge regression.

The abstract weights decompose as ``w = w_R + w_D + w_ND``: a real center, an
affine part over the data symbols, and a box over fresh symbols mapped
through an invertible transform,

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
bound, per-part fixed points are computed, and the results are box-joined.

Everything here works on arrays, not on polynomial forms.  Each data symbol
lives in exactly one cell (a row, a column or the label, and a coefficient),
so the coefficient of every monomial in ``c'`` and ``h`` is a small product
of rows of ``X_R``, ``A``, ``A^-1`` and the ``w_D`` generators, and only
monomials whose symbols all share one row can collect more than one term
(see ``_diameter_terms``).  The weight zonotope is the generator matrix
``[G_D' | A^-1 diag(k)]`` around ``w_R``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from collections.abc import Mapping

import numpy as np

from .dataset import LABEL_COL, AbstractDataset
from .errors import (
    IllConditionedError,
    LambdaTooSmall,
    ShapeMismatchError,
    SplitBudgetError,
    ZonoError,
)
from .forms import PolyForm
from .symbols import SymbolKind, SymbolRegistry
from .zonotope import ZVector

_COND_BOUND = 1e12
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
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if isinstance(self.transform, str) and self.transform not in ("svd", "identity"):
            raise ValueError(f"unknown transform {self.transform!r}")


@dataclass
class AbstractWeights:
    """Weight zonotope ``w_R + w_D + A^-1 diag(k) eps'``.

    ``w_D_coeffs`` maps each data symbol to its generator vector; only
    nonzero generators are stored.  ``fresh_ids`` are the d fresh symbols
    carrying the box part.
    """

    w_R: np.ndarray
    w_D_coeffs: dict[int, np.ndarray]
    k: np.ndarray
    A: np.ndarray
    A_inv: np.ndarray
    fresh_ids: list[int]
    registry: SymbolRegistry
    lam: float
    provenance: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.w_R.shape[0]

    def w_D(self, assignment: Mapping[int, float]) -> np.ndarray:
        """Evaluate the data-symbol part at a concrete assignment."""
        out = np.zeros(self.dim)
        for sid, gen in self.w_D_coeffs.items():
            out += gen * assignment[sid]
        return out

    def generators(self) -> np.ndarray:
        """Generator matrix ``W = [G_D' | A^-1 diag(k)]`` of the weight zonotope.

        Row i is dimension i; column j multiplies one error symbol: first the
        data symbols in ``w_D_coeffs`` order, then the d fresh symbols of the
        box part.  The zonotope is ``{w_R + W e : e in [-1, 1]^m}``.
        """
        return _generator_matrix(self.w_D_coeffs, self.A_inv, self.k)

    def as_zvector(self) -> ZVector:
        """The weight zonotope as a vector of affine forms."""
        entries = []
        for i in range(self.dim):
            terms = {}
            for sid, gen in self.w_D_coeffs.items():
                if gen[i] != 0.0:
                    terms[(sid,)] = gen[i]
            for j, fid in enumerate(self.fresh_ids):
                coef = self.A_inv[i, j] * self.k[j]
                if coef != 0.0:
                    terms[(fid,)] = terms.get((fid,), 0.0) + coef
            entries.append(PolyForm(self.registry, self.w_R[i], terms))
        return ZVector(self.registry, entries)

    def to_json(self, diagnostics: "FixedPointDiagnostics | None" = None) -> str:
        payload = {
            "w_R": self.w_R.tolist(),
            "w_D": [
                {
                    "symbol": sid,
                    "row": self.provenance.get(sid, (-1, -1))[0],
                    "col": self.provenance.get(sid, (-1, -1))[1],
                    "coeffs": self.w_D_coeffs[sid].tolist(),
                }
                for sid in sorted(self.w_D_coeffs)
            ],
            "k": self.k.tolist(),
            "A": self.A.tolist(),
            "A_inv": self.A_inv.tolist(),
            "fresh_ids": list(self.fresh_ids),
            "lam": self.lam,
        }
        if diagnostics is not None:
            payload["diagnostics"] = diagnostics.to_dict()
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AbstractWeights":
        data = json.loads(text)
        reg = SymbolRegistry()
        data_ids = {rec["symbol"] for rec in data["w_D"]}
        max_id = max(list(data_ids) + data["fresh_ids"], default=-1)
        # Rebuild the registry with the original ids.
        for sid in range(max_id + 1):
            reg.new_symbol(SymbolKind.DATA if sid in data_ids else SymbolKind.FRESH)
        return cls(
            w_R=np.array(data["w_R"]),
            w_D_coeffs={rec["symbol"]: np.array(rec["coeffs"]) for rec in data["w_D"]},
            k=np.array(data["k"]),
            A=np.array(data["A"]),
            A_inv=np.array(data["A_inv"]),
            fresh_ids=list(data["fresh_ids"]),
            registry=reg,
            lam=float(data["lam"]),
            provenance={rec["symbol"]: (rec["row"], rec["col"]) for rec in data["w_D"]},
        )


@dataclass
class NonDataSystem:
    """Assembled diameter system ``(lam n + q_ii - c'_ii) k_i - ... = (n/2) c0_i``."""

    Q: np.ndarray
    Cprime: np.ndarray
    c0: np.ndarray
    beta: float
    n: int

    def coefficient_matrix(self, lam: float) -> np.ndarray:
        d = self.Q.shape[0]
        m = -(np.abs(self.Q) + self.Cprime)
        for i in range(d):
            m[i, i] = lam * self.n + self.Q[i, i] - self.Cprime[i, i]
        return m

    def m_matrix_margin(self, lam: float) -> float:
        m = self.coefficient_matrix(lam)
        d = m.shape[0]
        off = np.abs(m).sum(axis=1) - np.abs(np.diag(m))
        return float(np.min(np.diag(m) - off))


@dataclass
class ResidualReport:
    """Self-consistency of one symbolic gradient step at the fixed point."""

    eta: float
    real_residual: float
    data_residual: float
    box_residual: float
    box_residual_normalized: float

    def to_dict(self) -> dict:
        return {
            "eta": self.eta,
            "real_residual": self.real_residual,
            "data_residual": self.data_residual,
            "box_residual": self.box_residual,
            "box_residual_normalized": self.box_residual_normalized,
        }


@dataclass
class FixedPointDiagnostics:
    beta: float
    lambda_used: float
    splits_used: int
    m_matrix_margin: float
    residual: ResidualReport | None = None
    join_lost_correlation: bool = False
    part_betas: list[float] | None = None

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "lambda_used": self.lambda_used,
            "splits_used": self.splits_used,
            "m_matrix_margin": self.m_matrix_margin,
            "residual": self.residual.to_dict() if self.residual else None,
            "join_lost_correlation": self.join_lost_correlation,
            "part_betas": self.part_betas,
        }


def ridge_closed_form_real(X_R: np.ndarray, y_R: np.ndarray, lam: float) -> np.ndarray:
    """Ridge solution on the real centers: ``(X_R'X_R + lam n I)^-1 X_R'y_R``."""
    X_R = np.asarray(X_R, dtype=float)
    y_R = np.asarray(y_R, dtype=float)
    n, d = X_R.shape
    gram = X_R.T @ X_R + lam * n * np.eye(d)
    if lam == 0.0 and np.linalg.cond(gram) > 1e13:
        raise np.linalg.LinAlgError("centers are rank-deficient at lambda = 0")
    return np.linalg.solve(gram, X_R.T @ y_R)


def closed_form_symbolic_data(
    ad: AbstractDataset, lam: float, w_R: np.ndarray
) -> dict[int, np.ndarray]:
    """Generator vectors of the data-symbol weight part.

    Solves ``(X_R'X_R + lam n I) w_D = X_S'y_R + X_R'y_S
    - (X_R'X_S + X_S'X_R) w_R`` for all data symbols at once: each symbol
    lives in exactly one cell, so its column of the right-hand side is
    assembled directly from that cell's row and coefficient.
    """
    X_R = ad.X_R
    n, d = X_R.shape
    gram = X_R.T @ X_R + lam * n * np.eye(d)
    sids, rows, cols, coef = _cells(ad)
    gens = np.linalg.solve(gram, _data_rhs(ad, w_R, rows, cols, coef)).T
    return {sid: gen for sid, gen in zip(sids, gens) if np.any(gen != 0.0)}


def _cells(ad: AbstractDataset) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """The data symbols with a nonzero coefficient, in id order, as arrays.

    Returns the ids and, per symbol, the row and column of its cell
    (``LABEL_COL`` for a label cell) and its coefficient.
    """
    sids = ad.split_symbols()
    cells = np.array([ad.provenance[s] for s in sids], dtype=np.intp).reshape(-1, 2)
    coef = np.array([ad.coefficients[s] for s in sids], dtype=float)
    return sids, cells[:, 0], cells[:, 1], coef


def _data_rhs(
    ad: AbstractDataset, w_R: np.ndarray, rows: np.ndarray, cols: np.ndarray, coef: np.ndarray
) -> np.ndarray:
    """``X_S'y_R + X_R'y_S - (X_R'X_S + X_S'X_R) w_R``, one column per symbol."""
    x = ad.X_R[rows]
    rhs = coef[:, None] * x  # a label cell contributes coef * x_r
    f = np.flatnonzero(cols != LABEL_COL)
    c, a = cols[f], coef[f]
    rhs[f] = -(a * w_R[c])[:, None] * x[f]
    rhs[f, c] += a * (ad.y_R[rows[f]] - x[f] @ w_R)
    return rhs.T


def _generator_rows(w_D: Mapping[int, np.ndarray], sids: list[int], d: int) -> np.ndarray:
    """``w_D`` generators of ``sids`` as rows; a symbol without one gets zeros."""
    zero = np.zeros(d)
    return np.array([w_D.get(s, zero) for s in sids], dtype=float).reshape(len(sids), d)


def _generator_matrix(
    w_D: Mapping[int, np.ndarray], A_inv: np.ndarray, k: np.ndarray
) -> np.ndarray:
    data = _generator_rows(w_D, list(w_D), A_inv.shape[0])
    return np.hstack([data.T, A_inv * k])


def _matches(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs ``(i, j)`` with ``a[i] == b[j]``."""
    order = np.argsort(a, kind="stable")
    first = np.searchsorted(a[order], b, side="left")
    counts = np.searchsorted(a[order], b, side="right") - first
    ends = np.cumsum(counts)
    j = np.repeat(np.arange(len(b)), counts)
    pos = np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts - first, counts)
    return order[pos], j


def _abs_row_sums(count: int, inner: int, d: int, block) -> np.ndarray:
    """Per-row sums of ``|block(lo, hi)|`` over its middle axis, in chunks.

    ``block(lo, hi)`` returns the ``(hi - lo, inner, d)`` coefficients of
    rows ``lo..hi-1``.  Each row is reduced on its own and the caller sums
    the rows afterwards, so the result does not depend on the chunk size.
    """
    out = np.zeros((count, d))
    step = max(1, CHUNK_ELEMENTS // max(1, inner * d))
    for lo in range(0, count, step):
        hi = min(count, lo + step)
        coefs = block(lo, hi)
        out[lo:hi] = np.abs(coefs, out=coefs).sum(axis=1)
    return out


def _diameter_terms(
    ad: AbstractDataset,
    w_R: np.ndarray,
    w_D: Mapping[int, np.ndarray],
    A: np.ndarray,
    A_inv: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``c'`` and ``h`` of the diameter system, as sums of |coefficients|.

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
    d = ad.d
    sids, rows, cols, coef = _cells(ad)
    feat = cols != LABEL_COL
    order = np.concatenate([np.flatnonzero(feat), np.flatnonzero(~feat)])  # features first
    rows, cols, coef = rows[order], cols[order], coef[order]
    nf, ns = int(feat.sum()), len(sids)
    G = _generator_rows(w_D, [sids[i] for i in order], d)

    fr, fc, fa = rows[:nf], cols[:nf], coef[:nf]
    x = ad.X_R[fr]
    Ax = x @ A.T  # A x_r
    Ac = A[:, fc].T  # A e_c
    cprime = np.abs(
        fa[:, None, None]
        * (Ax[:, :, None] * A_inv[fc][:, None, :] + Ac[:, :, None] * (x @ A_inv)[:, None, :])
    ).sum(axis=0)

    i, j = _matches(fr, fr)
    ps, pt = i[i <= j], j[i <= j]  # same-row feature pairs s <= t
    # N_st = fp (E_{c_s c_t} + E_{c_t c_s}); halving fp for s = t gives N_ss = a_s^2 E_cc.
    fp = fa[ps] * fa[pt] * np.where(ps == pt, 0.5, 1.0)
    cprime += np.abs(
        fp[:, None, None]
        * (
            Ac[ps][:, :, None] * A_inv[fc[pt]][:, None, :]
            + Ac[pt][:, :, None] * A_inv[fc[ps]][:, None, :]
        )
    ).sum(axis=0)

    # Degree 2: row s of a block holds the monomials e_s e_t with s < t
    # among features, s = t, and every label t.
    aY = fa[:, None] * G[:, fc].T  # a_s g_t[c_s]
    aZ = fa[:, None] * (x @ G.T)  # a_s (x_r . g_t)
    fl, tl = _matches(fr, rows[nf:])  # same-row feature/label pairs
    ex_s = np.concatenate([ps, fl])
    ex_t = np.concatenate([pt, nf + tl])
    ex_v = np.concatenate(
        [
            fp[:, None] * (Ac[ps] * w_R[fc[pt]][:, None] + Ac[pt] * w_R[fc[ps]][:, None]),
            -(fa[fl] * coef[nf + tl])[:, None] * Ac[fl],
        ]
    ).reshape(-1, d)
    findex = np.arange(nf)

    def pairs(lo: int, hi: int) -> np.ndarray:
        b = slice(lo, hi)
        s = findex[b, None]
        own = np.ones((hi - lo, ns), dtype=bool)
        own[:, :nf] = findex >= s
        y, z = aY[b] * own, aZ[b] * own  # M_s g_t
        out = y[:, :, None] * Ax[b, None, :]
        out += z[:, :, None] * Ac[b, None, :]
        y, z = aY[:, b].T * (findex > s), aZ[:, b].T * (findex > s)  # M_t g_s
        back = y[:, :, None] * Ax
        back += z[:, :, None] * Ac
        out[:, :nf] += back
        sel = (ex_s >= lo) & (ex_s < hi)
        out[ex_s[sel] - lo, ex_t[sel]] += ex_v[sel]
        return out

    # Degree 3 across rows: pair p times a symbol u outside the pair's row.
    prow = fr[ps]
    v_s, v_t = fp[:, None] * Ac[ps], fp[:, None] * Ac[pt]

    def triples(lo: int, hi: int) -> np.ndarray:
        b = slice(lo, hi)
        other = rows != prow[b, None]
        out = (G[:, fc[pt[b]]].T * other)[:, :, None] * v_s[b, None, :]
        out += (G[:, fc[ps[b]]].T * other)[:, :, None] * v_t[b, None, :]
        return out

    h = (
        _abs_row_sums(nf, ns, d, pairs).sum(axis=0)
        + _abs_row_sums(len(ps), ns, d, triples).sum(axis=0)
    )

    # Degree 3 within a row: merge the sources of each sorted triple.
    u, p = _matches(rows, prow)
    vals = G[u, fc[pt[p]]][:, None] * v_s[p] + G[u, fc[ps[p]]][:, None] * v_t[p]
    keys = np.sort(np.stack([ps[p], pt[p], u], axis=1), axis=1) @ np.array([ns * ns, ns, 1])
    uniq, inverse = np.unique(keys, return_inverse=True)
    merged = np.zeros((len(uniq), d))
    np.add.at(merged, inverse, vals)
    h += np.abs(merged).sum(axis=0)
    return cprime, h


def build_transform(X_R: np.ndarray, cfg: RidgeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Order-reduction transform and its inverse.

    The SVD choice diagonalizes ``X_R'X_R`` so the q-matrix of the diameter
    system is diagonal; identity leaves the original space.  Custom matrices
    are validated for conditioning before inverting.
    """
    d = X_R.shape[1]
    if isinstance(cfg.transform, str):
        if cfg.transform == "identity":
            return np.eye(d), np.eye(d)
        gram = X_R.T @ X_R
        _, _, vt = np.linalg.svd(gram)
        return vt, vt.T
    a = np.asarray(cfg.transform, dtype=float)
    if a.shape != (d, d):
        raise ShapeMismatchError(f"transform must be {d}x{d}, got {a.shape}")
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > _COND_BOUND:
        raise IllConditionedError(f"custom transform condition number {cond:.3e}")
    return a, np.linalg.inv(a)


def build_non_data_system(
    ad: AbstractDataset,
    lam: float,
    w_R: np.ndarray,
    w_D: dict[int, np.ndarray],
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
    an interval hull produces and is never looser.
    """
    n = ad.n
    Q = A @ (ad.X_R.T @ ad.X_R) @ A_inv
    cprime, h = _diameter_terms(ad, w_R, w_D, A, A_inv)
    c0 = (2.0 / n) * h

    off = np.abs(Q) + cprime
    np.fill_diagonal(off, 0.0)
    beta = float(np.max(off.sum(axis=1) + np.diag(cprime) - np.diag(Q)) / n)
    return NonDataSystem(Q=Q, Cprime=cprime, c0=c0, beta=beta, n=n)


def solve_non_data(sys: NonDataSystem, lam: float, tolerance: float = 1e-9) -> np.ndarray:
    """Solve the diameter system; requires ``lam >= beta`` up to tolerance.

    The homogeneous case (zero constant column, e.g. certain or label-only
    data) is solved exactly by ``k = 0`` whatever the matrix looks like, so
    it bypasses the feasibility threshold.  Otherwise M-matrix theory
    guarantees a nonnegative solution in the feasible regime; negative
    entries beyond a small clamp indicate numerical trouble and are
    rejected.
    """
    if np.all(sys.c0 == 0.0):
        return np.zeros(sys.Q.shape[0])
    if lam < sys.beta - tolerance:
        raise LambdaTooSmall(sys.beta)
    m = sys.coefficient_matrix(lam)
    rhs = (sys.n / 2.0) * sys.c0
    k = np.linalg.solve(m, rhs)
    resid = np.max(np.abs(m @ k - rhs)) if k.size else 0.0
    scale = 1.0 + float(np.max(np.abs(rhs), initial=0.0))
    if resid > 1e-8 * scale:
        raise ZonoError(f"diameter system residual {resid:.3e} too large")
    clamp = tolerance * (1.0 + float(np.max(np.abs(k), initial=0.0)))
    if np.any(k < -clamp):
        raise ZonoError(f"negative box diameter {k.min():.3e} beyond tolerance")
    return np.maximum(k, 0.0)


def determine_num_splits(
    sys: NonDataSystem, lam: float, ad: AbstractDataset
) -> int:
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


def _prepare(
    ad: AbstractDataset, cfg: RidgeConfig
) -> tuple[np.ndarray, dict[int, np.ndarray], np.ndarray, np.ndarray, NonDataSystem]:
    w_R = ridge_closed_form_real(ad.X_R, ad.y_R, cfg.lam)
    w_D = closed_form_symbolic_data(ad, cfg.lam, w_R)
    A, A_inv = build_transform(ad.X_R, cfg)
    sys = build_non_data_system(ad, cfg.lam, w_R, w_D, A, A_inv)
    return w_R, w_D, A, A_inv, sys


def _assemble(
    ad: AbstractDataset,
    cfg: RidgeConfig,
    w_R: np.ndarray,
    w_D: dict[int, np.ndarray],
    A: np.ndarray,
    A_inv: np.ndarray,
    sys: NonDataSystem,
) -> AbstractWeights:
    k = solve_non_data(sys, cfg.lam, cfg.tolerance)
    fresh = ad.registry.new_symbols(ad.d, SymbolKind.FRESH)
    return AbstractWeights(
        w_R=w_R,
        w_D_coeffs=w_D,
        k=k,
        A=A,
        A_inv=A_inv,
        fresh_ids=fresh,
        registry=ad.registry,
        lam=cfg.lam,
        provenance={sid: ad.provenance[sid] for sid in w_D},
    )


def _solve_part(
    part: AbstractDataset, cfg: RidgeConfig
) -> tuple[np.ndarray, dict[int, np.ndarray], np.ndarray, NonDataSystem, np.ndarray]:
    w_R, w_D, _, A_inv, sys = _prepare(part, cfg)
    return w_R, w_D, A_inv, sys, solve_non_data(sys, cfg.lam, cfg.tolerance)


def fixed_point(
    ad: AbstractDataset, cfg: RidgeConfig, verify: bool = True
) -> tuple[AbstractWeights, FixedPointDiagnostics]:
    """Compute the abstract fixed point, mu-splitting when beta exceeds lam.

    On the direct path the result shares data symbols with the dataset and
    carries the solved box diameters.  On the splitting path each part gets
    its own fixed point and the per-part weight zonotopes are box-joined;
    the join drops data-symbol correlation, which is flagged in the
    diagnostics.
    """
    w_R0, w_D0, A0, A0_inv, sys0 = _prepare(ad, cfg)
    try:
        weights = _assemble(ad, cfg, w_R0, w_D0, A0, A0_inv, sys0)
    except LambdaTooSmall:
        pass
    else:
        diag = FixedPointDiagnostics(
            beta=sys0.beta,
            lambda_used=cfg.lam,
            splits_used=1,
            m_matrix_margin=sys0.m_matrix_margin(cfg.lam),
            residual=verify_fixed_point_residual(ad, weights, cfg) if verify else None,
        )
        return weights, diag

    # Splitting path: grow m until every part is feasible (centers shift per
    # part, so the prediction must be re-checked).  An infeasible system has
    # a nonzero constant column, which requires at least one feature symbol
    # with a nonzero coefficient, so splitting makes progress.
    s = len(ad.split_symbols())
    m = determine_num_splits(sys0, cfg.lam, ad)
    while True:
        if m**s > cfg.split_budget:
            raise SplitBudgetError(
                f"{m}**{s} parts exceed split budget {cfg.split_budget}"
            )
        parts = ad.split(m, budget=cfg.split_budget)
        try:
            solved = [_solve_part(part, cfg) for part in parts]
        except LambdaTooSmall:
            m += 1
            continue
        break

    # Box join: the smallest box holding every part's interval hull
    # w_R +- (row sums of |W|).
    d = ad.d
    lo = np.full(d, np.inf)
    hi = np.full(d, -np.inf)
    part_betas = []
    margin = np.inf
    for w_R, w_D, A_inv, part_sys, k in solved:
        margin = min(margin, part_sys.m_matrix_margin(cfg.lam))
        part_betas.append(part_sys.beta)
        radius = np.abs(_generator_matrix(w_D, A_inv, k)).sum(axis=1)
        lo = np.minimum(lo, w_R - radius)
        hi = np.maximum(hi, w_R + radius)
    weights = AbstractWeights(
        w_R=0.5 * (lo + hi),
        w_D_coeffs={},
        k=0.5 * (hi - lo),
        A=np.eye(d),
        A_inv=np.eye(d),
        fresh_ids=ad.registry.new_symbols(d, SymbolKind.FRESH),
        registry=ad.registry,
        lam=cfg.lam,
        provenance={},
    )
    diag = FixedPointDiagnostics(
        beta=sys0.beta,
        lambda_used=cfg.lam,
        splits_used=len(parts),
        m_matrix_margin=float(margin),
        residual=None,
        join_lost_correlation=True,
        part_betas=part_betas,
    )
    return weights, diag


def verify_fixed_point_residual(
    ad: AbstractDataset, weights: AbstractWeights, cfg: RidgeConfig
) -> ResidualReport:
    """Apply one symbolic gradient step and measure how far it moves.

    The step is taken on the dense terms of the diameter system.  With
    ``H = 2 lam I + (2/n) X_R'X_R``, the data-symbol part of the gradient is
    ``(2/n) ((X_R'X_R + lam n I) G_D' - RHS)`` (``RHS`` as in
    :func:`closed_form_symbolic_data`), and the interval hull of the box
    part after the step, in the transformed space, has diameters

        k' = |A (I - eta H) A^-1| k + eta (2/n) (c' k + h),

    where ``c'`` and ``h`` come from the weights' own ``w_D``.  At a true
    fixed point the real and data-symbol parts are unchanged and
    ``k' = k``.  The normalized box residual divides out the ``2 eta / n``
    step factor, making it comparable to the system's scale.
    """
    X_R, y_R = ad.X_R, ad.y_R
    n, d = X_R.shape
    lam = weights.lam
    gram = X_R.T @ X_R
    Q = weights.A @ gram @ weights.A_inv
    qmax = float(np.max(np.diag(Q), initial=0.0))
    denom = 2.0 * lam + (2.0 / n) * max(qmax, 0.0)
    eta = 0.5 / denom if denom > 0 else 0.1

    # Real part: one concrete gradient step.
    g_r = (2.0 / n) * (gram @ weights.w_R - X_R.T @ y_R) + 2.0 * lam * weights.w_R
    real_residual = float(np.max(np.abs(eta * g_r), initial=0.0))

    sids, rows, cols, coef = _cells(ad)
    G = _generator_rows(weights.w_D_coeffs, sids, d)
    g_d = (gram + lam * n * np.eye(d)) @ G.T - _data_rhs(ad, weights.w_R, rows, cols, coef)
    data_residual = eta * (2.0 / n) * float(np.max(np.abs(g_d), initial=0.0))

    cprime, h = _diameter_terms(ad, weights.w_R, weights.w_D_coeffs, weights.A, weights.A_inv)
    step = weights.A @ (np.eye(d) - eta * (2.0 * lam * np.eye(d) + (2.0 / n) * gram)) @ weights.A_inv
    k_new = np.abs(step) @ weights.k + eta * (2.0 / n) * (cprime @ weights.k + h)
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
    point shape (unsplit, or the box produced by a join).
    """
    w_star = np.asarray(w_star, dtype=float)
    if tol is None:
        tol = 1e-7 * (1.0 + float(np.max(np.abs(w_star))))
    r = weights.A @ (w_star - weights.w_R - weights.w_D(e_data))
    for i in range(weights.dim):
        k_i = weights.k[i]
        if k_i > 0.0:
            if abs(r[i]) > k_i * (1.0 + 1e-12) + tol:
                return False
        elif abs(r[i]) > tol:
            return False
    return True
