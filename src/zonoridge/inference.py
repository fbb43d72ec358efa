"""Prediction ranges, robustness certificates, loss intervals, parameter bounds.

Everything here consumes the weight zonotope produced by learning, as its
generator matrix ``W`` around ``w_R``; the weights build ``W`` once and keep
it.  A prediction for a concrete point is affine in the symbols, so its range
is exact for the zonotope; a robustness report computes the bounds and flags
of all its points as arrays, in one pass, before it wraps each point in a
:class:`PredictionInterval`, an immutable ``(lo, hi)`` tuple.  Losses are
quadratic in the symbols and are linearized before concretizing, which stays
sound but can widen; a loss range is a :class:`LossInterval`, the same
``(lo, hi)`` tuple.  An uncertain test point is a vector of affine forms
(:class:`~zonoridge.forms.ZVector`), read in one pass into its center and a
generator matrix over its own symbols; its prediction is quadratic in the
symbols and is linearized the same way.  A point with a higher-degree entry
is not a zonotope and raises :class:`~zonoridge.errors.DegreeError`.
Absolute values are taken in place on temporaries that nothing else reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegreeError, RegistryMismatchError, ShapeMismatchError
from .forms import ZVector
from .learning import AbstractWeights, _check_lam


class _Bounds(NamedTuple):
    lo: float
    hi: float


class _Interval(_Bounds):
    """An immutable ``(lo, hi)`` tuple that refuses ``lo > hi``."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float):
        if lo > hi:
            raise ValueError("interval requires lo <= hi")
        return tuple.__new__(cls, (lo, hi))

    @property
    def width(self) -> float:
        return self.hi - self.lo


class PredictionInterval(_Interval):
    """Prediction range ``[lo, hi]``, an immutable ``(lo, hi)`` tuple."""

    __slots__ = ()


class LossInterval(_Interval):
    """Test-loss range ``[lo, hi]``, an immutable ``(lo, hi)`` tuple."""

    __slots__ = ()


@dataclass
class RobustnessReport:
    """Per-point robustness at an absolute width threshold."""

    threshold: float
    per_point: list[tuple[PredictionInterval, bool]]
    ratio: float


@dataclass
class ParameterIntervals:
    """Per-dimension bounds of the weight zonotope, with sign conclusiveness."""

    lo: np.ndarray
    hi: np.ndarray
    names: list[str]

    def inconclusive_direction(self, j: int) -> bool:
        """True when the interval straddles zero, so the sign is ambiguous."""
        return self.lo[j] < 0.0 < self.hi[j]

    def to_csv_rows(self) -> list[dict]:
        return [
            {
                "coefficient": self.names[j] if j < len(self.names) else f"w{j}",
                "lo": float(self.lo[j]),
                "hi": float(self.hi[j]),
                "inconclusive_direction": int(self.inconclusive_direction(j)),
            }
            for j in range(len(self.lo))
        ]


def _prediction_bounds(X: np.ndarray, weights: AbstractWeights) -> tuple[np.ndarray, np.ndarray]:
    """Centers ``X w_R`` and radii (row sums of ``|X W|``) of the predictions ``X w``."""
    XW = X @ weights.generators()
    return X @ weights.w_R, np.add.reduce(np.abs(XW, out=XW), axis=1)


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
    center, radius = _prediction_bounds(x[None, :], weights)
    return PredictionInterval(float(center[0] - radius[0]), float(center[0] + radius[0]))


def predict_interval_uncertain(
    x_abstract: ZVector, weights: AbstractWeights
) -> PredictionInterval:
    """Prediction range for an uncertain test point.

    The point must be a vector of affine forms, ``x_c + P e``; an entry of
    degree 2 or more raises :class:`DegreeError`.  Sharing data symbols with
    the training data expresses correlated uncertainty; new symbols express
    independence, and no point shares the box part's symbols.  With ``W``
    the weights' generator matrix over their symbols and ``P`` the point's
    over its own, the product ``x . w`` has

    * center ``x_c . w_R``,
    * linear coefficients ``x_c'W`` and ``w_R'P``, added where a symbol is
      in both,
    * degree-2 coefficients ``C = P'W``: ``C[a,v]`` for the monomial
      ``e_a e_v``, plus ``C[v,a]`` when both symbols are in both.

    Linearizing gives every monomial its own fresh symbol, so the radius is
    the sum of the absolute values of all these coefficients: a sound
    superset.
    """
    if len(x_abstract) != weights.dim:
        raise ShapeMismatchError(f"test point must have dimension {weights.dim}")
    if x_abstract.registry is not weights.registry:
        raise RegistryMismatchError("test point and weights belong to different registries")
    # One pass over the forms: the centers, and P' as one flat row-major
    # list, with the point's symbols numbered in order of first use.
    d = weights.dim
    centers, flat = [], []
    blank = [0.0] * d
    own: dict[int, int] = {}
    for i, f in enumerate(x_abstract):
        centers.append(f.center)
        for mono, coef in f.terms.items():
            if len(mono) != 1:
                raise DegreeError("uncertain test points must be affine forms")
            a = own.get(mono[0])
            if a is None:
                a = own[mono[0]] = len(own)
                flat += blank
            flat[a * d + i] = coef
    x_c = np.array(centers)
    Pt = np.array(flat).reshape(len(own), d)  # P', row a: the point's symbol a

    W = weights.generators()
    linear = x_c @ W
    own_linear = Pt @ weights.w_R
    C = Pt @ W  # row a: the monomials e_a e_v, for every weight symbol v
    merged = 0.0
    column = weights._columns
    both = [(a, column[sid]) for sid, a in own.items() if sid in column]
    if both:
        a, v = np.array(both).T
        linear[v] += own_linear[a]
        own_linear[a] = 0.0
        block = C[a[:, None], v]  # e_a e_b with both symbols in both: merge both orders
        C[a[:, None], v] = 0.0
        pairs = block + block.T
        merged = np.add.reduce(np.abs(block.diagonal())) + np.add.reduce(
            np.triu(np.abs(pairs, out=pairs), 1), axis=None
        )
    center = float(x_c @ weights.w_R)
    radius = float(
        np.add.reduce(np.abs(linear, out=linear))
        + np.add.reduce(np.abs(own_linear, out=own_linear))
        + np.add.reduce(np.abs(C, out=C), axis=None)
        + merged
    )
    return PredictionInterval(center - radius, center + radius)


def certify_robustness(
    test_X: np.ndarray, weights: AbstractWeights, threshold: float
) -> RobustnessReport:
    """Fraction of test points whose prediction interval is narrower than
    the absolute ``threshold`` (full width; thresholds given as a fraction
    of the label range must be converted by the caller).  A point whose
    width equals the threshold is not certified; a threshold that is not
    positive, NaN included, raises ``ValueError``.
    """
    test_X = np.asarray(test_X, dtype=float)
    if test_X.ndim != 2 or test_X.shape[0] == 0:
        raise ShapeMismatchError("test set must be a nonempty 2-d array")
    if test_X.shape[1] != weights.dim:
        raise ShapeMismatchError(f"test points must have dimension {weights.dim}")
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    center, radius = _prediction_bounds(test_X, weights)
    lo, hi = center - radius, center + radius
    certified = hi - lo < threshold
    return RobustnessReport(
        threshold=threshold,
        per_point=list(zip(map(PredictionInterval, lo.tolist(), hi.tolist()), certified.tolist())),
        ratio=np.count_nonzero(certified) / test_X.shape[0],
    )


def _square_min(center: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Least value of ``v**2`` over each interval ``center +- radius``."""
    lo, hi = center - radius, center + radius
    return np.where((lo <= 0.0) & (hi >= 0.0), 0.0, np.minimum(lo * lo, hi * hi))


def loss_interval(
    test_X: np.ndarray,
    test_y: np.ndarray,
    weights: AbstractWeights,
    lam: float,
) -> LossInterval:
    """Range of the test loss ``mean((X w - y)**2) + lam w'w`` over the weight zonotope.

    With the generator matrix ``W`` (see ``AbstractWeights.generators``),
    residual generators ``R = X W`` and centers ``c = X w_R - y``, the loss
    is the quadratic ``center + b'e + e'Qe`` in the symbols ``e``, where

        Q = R'R / n + lam W'W,   b = 2 R'c / n + 2 lam W'w_R.

    Linearizing every degree-2 monomial and concretizing gives the radius
    ``sum |b| + sum |Q|``.  Aggregating symbolically before concretizing
    keeps the cross-point correlations that per-prediction interval
    arithmetic would lose, which tightens the upper end.  The loss is a
    nonnegative combination of squares of affine forms, so the lower end
    additionally uses each square's exact minimum (the squared distance of
    zero to the affine term's interval, from the row sums of ``|R|`` and
    ``|W|``); the linearized lower bound alone would forget that squares
    cannot go negative.  At ``lam = 0`` the loss is the mean squared error.
    A negative or non-finite ``lam`` raises ``ValueError``, as in
    ``RidgeConfig``, and an empty test set or a ``test_y`` that is not one
    label per row ``ShapeMismatchError``, as in ``certify_robustness``.
    """
    test_X = np.asarray(test_X, dtype=float)
    test_y = np.asarray(test_y, dtype=float)
    if test_X.ndim != 2 or test_X.shape[0] == 0:
        raise ShapeMismatchError("test set must be a nonempty 2-d array")
    if test_X.shape[1] != weights.dim:
        raise ShapeMismatchError(f"test set must be (n, {weights.dim})")
    if test_y.shape != test_X.shape[:1]:
        raise ShapeMismatchError(f"test y must be ({test_X.shape[0]},), got {test_y.shape}")
    _check_lam(lam)
    n = test_X.shape[0]
    W = weights.generators()
    R = test_X @ W
    c = test_X @ weights.w_R - test_y
    b = R.T @ (2.0 * c / n)
    Q = R.T @ (R / n)
    center = np.add.reduce(c * c / n)
    structural_lo = np.add.reduce(_square_min(c, np.add.reduce(np.abs(R, out=R), axis=1)) / n)
    if lam > 0.0:
        w_R = weights.w_R
        center += np.add.reduce(lam * w_R * w_R)
        structural_lo += np.add.reduce(lam * _square_min(w_R, np.add.reduce(np.abs(W), axis=1)))
        b += 2.0 * lam * (W.T @ w_R)
        Q += lam * (W.T @ W)
    np.abs(Q, out=Q)
    radius = (
        np.add.reduce(np.abs(b, out=b))
        + np.add.reduce(Q.diagonal())
        + 2.0 * np.add.reduce(np.triu(Q, 1), axis=None)
    )
    return LossInterval(float(max(center - radius, structural_lo)), float(center + radius))


def parameter_intervals(
    weights: AbstractWeights, names: list[str] | None = None
) -> ParameterIntervals:
    """Componentwise bounds of the weight zonotope (exact per dimension)."""
    radius = np.add.reduce(np.abs(weights.generators()), axis=1)
    lo = weights.w_R - radius
    hi = weights.w_R + radius
    return ParameterIntervals(lo=lo, hi=hi, names=names or [f"w{j}" for j in range(len(lo))])
