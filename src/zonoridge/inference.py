"""Prediction ranges, robustness certificates, loss intervals, parameter bounds.

Everything here consumes the weight zonotope produced by learning, as its
generator matrix ``W`` around ``w_R``; the weights build ``W`` once and keep
it.  A prediction for a concrete point is affine in the symbols, so its range
is exact for the zonotope; a robustness report computes the bounds and flags
of all its points as read-only arrays, in one pass, and wraps each point in a
:class:`PredictionInterval`, an immutable ``(lo, hi)`` tuple, only when its
``per_point`` list is first read.  Losses are
quadratic in the symbols and are linearized before concretizing, which stays
sound but can widen.  The loss's degree-2 coefficients ``Q`` are formed
through the d x d matrix ``H = X'X/n + lam I`` as ``W'(H W)``, an identity
for the residual form ``R'R/n + lam W'W`` at O(n d (S+d) + d (S+d)^2)
instead of O(n (S+d)^2), with ``Q`` still (S+d)^2 in memory; the radius
sums every entry of ``|Q|``, which stays sound if rounding leaves ``Q``
slightly asymmetric.  A loss range is a :class:`LossInterval`, the same
``(lo, hi)`` tuple.  An uncertain test point is a vector of affine forms
(:class:`~zonoridge.forms.ZVector`), read in one pass into one matrix, its
center row over its generator rows, which multiplies ``[w_R | W]`` (kept by
the weights too) once; its prediction is quadratic in the symbols and is
linearized the same way.  A point with a higher-degree entry is not a
zonotope and raises :class:`~zonoridge.errors.DegreeError`.  The queries
build their records without the constructor's ``lo <= hi`` check, which a
radius, a sum of absolute values (or NaN), cannot fail.  Absolute values are
taken in place on temporaries that nothing else reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import DegreeError, RegistryMismatchError, ShapeMismatchError
from .forms import ZVector
from .learning import AbstractWeights, _check_lam, _test_set


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


_record = partial(tuple.__new__, PredictionInterval)  # no lo <= hi check (module doc)


class LossInterval(_Interval):
    """Test-loss range ``[lo, hi]``, an immutable ``(lo, hi)`` tuple."""

    __slots__ = ()


@dataclass(eq=False)
class RobustnessReport:
    """Per-point robustness at an absolute width threshold.

    ``lo``, ``hi`` and ``certified`` are read-only arrays of each point's
    bounds and flag, and ``ratio`` is the certified share.  ``per_point``
    wraps them, on first read, in one ``(PredictionInterval, bool)`` record
    per point, in order, and keeps the list.
    """

    threshold: float
    lo: np.ndarray
    hi: np.ndarray
    certified: np.ndarray
    ratio: float

    @cached_property
    def per_point(self) -> list[tuple[PredictionInterval, bool]]:
        bounds = zip(self.lo.tolist(), self.hi.tolist())
        return list(zip(map(_record, bounds), self.certified.tolist()))


@dataclass
class ParameterIntervals:
    """Per-dimension bounds of the weight zonotope, with sign conclusiveness."""

    lo: np.ndarray
    hi: np.ndarray
    names: list[str]

    def inconclusive_direction(self, j: int) -> bool:
        """True when the interval straddles zero, so the sign is ambiguous."""
        return self.lo[j] < 0.0 < self.hi[j]


def _prediction_bounds(X: np.ndarray, weights: AbstractWeights) -> tuple[np.ndarray, np.ndarray]:
    """Centers ``X w_R`` and radii (row sums of ``|X W|``) of the predictions ``X w``."""
    XW = X @ weights.generators()
    return X @ weights.w_R, np.add.reduce(np.abs(XW, out=XW), axis=1)


def predict_interval(x: np.ndarray, weights: AbstractWeights) -> PredictionInterval:
    """Viable prediction range for a concrete test point.

    The prediction ``x . w`` is affine in the symbols: the data part
    contributes ``sum_s |x . g_s|`` and the box part ``sum_i |x . a_i| k_i``
    where ``a_i`` are the columns of the inverse transform.  Exact for the
    weight zonotope.  ``learning._test_set`` checks the point as a one-row set.
    """
    X, _ = _test_set(np.asarray(x, dtype=float)[None], weights.dim)
    center, radius = _prediction_bounds(X, weights)
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

    All of them come from one product ``B = [x_c; P'] [w_R | W]``: ``B[0, 0]``
    is the center, row 0 ``x_c'W``, column 0 ``P'w_R`` and the rest ``C``.
    The shared symbols' terms are merged inside ``B``.  Linearizing gives
    every monomial its own fresh symbol, so the radius is the abs-sum of
    ``B`` off its center entry plus the merged terms: a sound superset.
    """
    if len(x_abstract) != weights.dim:
        raise ShapeMismatchError(f"test point must have dimension {weights.dim}")
    if x_abstract.registry is not weights.registry:
        raise RegistryMismatchError("test point and weights belong to different registries")
    # One pass over the forms into M = [x_c; P']: row 0 the centers, row a
    # the point's symbol a, numbered from 1 in order of first use.
    d = weights.dim
    flat, blank = [0.0] * d, [0.0] * d
    own: dict[int, int] = {}
    for i, f in enumerate(x_abstract):
        flat[i] = f.center
        for mono, coef in f.terms.items():
            if len(mono) != 1:
                raise DegreeError("uncertain test points must be affine forms")
            a = own.get(mono[0])
            if a is None:
                a = own[mono[0]] = len(own) + 1
                flat += blank
            flat[a * d + i] = coef
    B = np.array(flat).reshape(-1, d) @ weights._stacked
    center = float(B[0, 0])
    B[0, 0] = 0.0
    merged = 0.0
    column = weights._columns
    both = [(a, column[sid]) for sid, a in own.items() if sid in column]
    if both:
        a, v = np.array(both).T
        B[0, v] += B[a, 0]
        B[a, 0] = 0.0
        block = B[a[:, None], v]  # e_a e_b with both symbols in both: merge both orders
        B[a[:, None], v] = 0.0
        pairs = block + block.T
        merged = np.add.reduce(np.abs(block.diagonal())) + np.add.reduce(
            np.triu(np.abs(pairs, out=pairs), 1), axis=None
        )
    radius = float(np.add.reduce(np.abs(B, out=B), axis=None) + merged)
    return _record((center - radius, center + radius))


def certify_robustness(
    test_X: np.ndarray, weights: AbstractWeights, threshold: float
) -> RobustnessReport:
    """Fraction of test points whose prediction interval is narrower than
    the absolute ``threshold`` (full width; thresholds given as a fraction
    of the label range must be converted by the caller).  A point whose
    width equals the threshold is not certified; a threshold that is not
    positive, NaN included, raises ``ValueError``, and the test set is
    refused as ``learning._test_set`` refuses it.
    """
    test_X, _ = _test_set(test_X, weights.dim)
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    center, radius = _prediction_bounds(test_X, weights)
    lo, hi = center - radius, center + radius
    certified = hi - lo < threshold
    for a in (lo, hi, certified):
        a.flags.writeable = False
    return RobustnessReport(threshold, lo, hi, certified, np.count_nonzero(certified) / test_X.shape[0])


def loss_interval(
    test_X: np.ndarray,
    test_y: np.ndarray,
    weights: AbstractWeights,
    lam: float,
) -> LossInterval:
    """Range of the test loss ``mean((X w - y)**2) + lam w'w`` over the weight zonotope.

    With the generator matrix ``W`` (see ``AbstractWeights.generators``) and
    centers ``c = X w_R - y``, the loss is the quadratic ``center + b'e +
    e'Qe`` in the symbols ``e``.  With residual generators ``R = X W`` its
    coefficients are ``Q = R'R/n + lam W'W`` and ``b = 2R'c/n + 2 lam W'w_R``;
    they are formed through the d x d matrix ``H = X'X/n + lam I`` and the
    vector ``g = X'c/n + lam w_R`` instead, by the identity

        Q = W'(H W),   b = 2 W'g,

    which costs O(n d (S+d) + d (S+d)^2) rather than O(n (S+d)^2).  ``Q``
    is still (S+d)^2 in memory; ``R`` is still formed, n x (S+d), for the
    structural lower end below, and dropped before ``Q`` is.

    Linearizing every degree-2 monomial and concretizing gives the radius
    ``sum |b|`` plus the sum of every entry of ``|Q|``.  Summing both
    ``|Q_ij|`` and ``|Q_ji|`` rather than doubling one of them keeps the
    bound sound when rounding leaves the computed ``Q`` slightly
    asymmetric: ``|Q_ij| + |Q_ji| >= |Q_ij + Q_ji|``.  Aggregating
    symbolically before concretizing keeps the cross-point correlations
    that per-prediction interval arithmetic would lose, which tightens the
    upper end.  The loss is a nonnegative combination of squares of affine
    forms, so the lower end additionally uses each square's exact minimum
    (the squared distance of zero to the affine term's interval, from the
    row sums of ``|R|`` and ``|W|``); the linearized lower bound alone
    would forget that squares cannot go negative.  At ``lam = 0`` the loss
    is the mean squared error.  A negative or non-finite ``lam`` raises
    ``ValueError``, as in ``RidgeConfig``, and ``learning._test_set``
    refuses a bad test set.
    """
    test_X, test_y = _test_set(test_X, weights.dim, test_y)
    _check_lam(lam)
    n = test_X.shape[0]
    W, w_R = weights.generators(), weights.w_R
    c = test_X @ w_R - test_y
    center = np.add.reduce(c * c / n)
    # v is the distance from 0 to each interval c +- r, the least |.| on it (fmax maps
    # NaN to 0).  Each structural term is the center's term in the same form at a v
    # no larger than |c|, so after rounding too it is no larger, and lo <= hi holds.
    R = test_X @ W
    v = np.fmax(np.abs(c) - np.add.reduce(np.abs(R, out=R), axis=1), 0.0)
    del R
    structural_lo = np.add.reduce(v * v / n)
    H = test_X.T @ (test_X / n)
    g = test_X.T @ (c / n)
    if lam > 0.0:
        center += np.add.reduce(lam * w_R * w_R)
        v = np.fmax(np.abs(w_R) - np.add.reduce(np.abs(W), axis=1), 0.0)
        structural_lo += np.add.reduce(lam * v * v)
        H.flat[:: H.shape[0] + 1] += lam
        g += lam * w_R
    half_b = W.T @ g
    Q = W.T @ (H @ W)
    radius = 2.0 * np.add.reduce(np.abs(half_b, out=half_b)) + np.add.reduce(np.abs(Q, out=Q), axis=None)
    return LossInterval(float(max(center - radius, structural_lo)), float(center + radius))


def parameter_intervals(
    weights: AbstractWeights, names: list[str] | None = None
) -> ParameterIntervals:
    """Componentwise bounds of the weight zonotope (exact per dimension)."""
    radius = np.add.reduce(np.abs(weights.generators()), axis=1)
    lo = weights.w_R - radius
    hi = weights.w_R + radius
    return ParameterIntervals(lo=lo, hi=hi, names=names or [f"w{j}" for j in range(len(lo))])
