"""Prediction ranges, robustness certificates, loss intervals, parameter bounds.

Everything here consumes the weight zonotope produced by learning, as its
generator matrix ``W`` around ``w_R``.  A prediction for a concrete point is
affine in the symbols, so its range is exact for the zonotope; losses are
quadratic in the symbols and are linearized before concretizing, which stays
sound but can widen.  Uncertain test points multiply two zonotopes and go
through the polynomial forms of :mod:`zonoridge.forms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ShapeMismatchError
from .forms import sum_forms
from .learning import AbstractWeights
from .zonotope import ZVector, interval_of, linearize

Method = Literal["zonotope", "interval_baseline", "oracle_under"]


@dataclass(frozen=True)
class PredictionInterval:
    lo: float
    hi: float
    method: Method = "zonotope"

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("prediction interval requires lo <= hi")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass
class RobustnessReport:
    """Per-point robustness at an absolute width threshold."""

    threshold: float
    per_point: list[tuple[PredictionInterval, bool]]
    ratio: float

    def to_csv_rows(self) -> list[dict]:
        return [
            {
                "point": i,
                "lo": interval.lo,
                "hi": interval.hi,
                "width": interval.width,
                "robust": int(robust),
            }
            for i, (interval, robust) in enumerate(self.per_point)
        ]


@dataclass(frozen=True)
class LossInterval:
    lo: float
    hi: float
    formula: str  # "ridge" | "mse"

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("loss interval requires lo <= hi")


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
    return X @ weights.w_R, np.abs(X @ weights.generators()).sum(axis=1)


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

    The product of the point's forms with the weight forms is a polynomial
    zonotope; it is linearized before taking the interval, so the result is
    a sound superset.  Sharing symbols with the training data expresses
    correlated uncertainty; fresh symbols express independence.
    """
    if len(x_abstract) != weights.dim:
        raise ShapeMismatchError(f"test point must have dimension {weights.dim}")
    w_vec = weights.as_zvector()
    prod = sum_forms(
        weights.registry, (x_abstract[j] * w_vec[j] for j in range(weights.dim))
    )
    linear = linearize(ZVector(weights.registry, [prod]))
    lo, hi = interval_of(linear[0])
    return PredictionInterval(lo, hi)


def certify_robustness(
    test_X: np.ndarray, weights: AbstractWeights, threshold: float
) -> RobustnessReport:
    """Fraction of test points whose prediction interval is narrower than
    the absolute ``threshold`` (full width; thresholds given as a fraction
    of the label range must be converted by the caller).
    """
    test_X = np.asarray(test_X, dtype=float)
    if test_X.ndim != 2 or test_X.shape[0] == 0:
        raise ShapeMismatchError("test set must be a nonempty 2-d array")
    if test_X.shape[1] != weights.dim:
        raise ShapeMismatchError(f"test points must have dimension {weights.dim}")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    centers, radii = _prediction_bounds(test_X, weights)
    per_point = []
    for center, radius in zip(centers.tolist(), radii.tolist()):
        interval = PredictionInterval(center - radius, center + radius)
        per_point.append((interval, interval.width < threshold))
    return RobustnessReport(
        threshold=threshold,
        per_point=per_point,
        ratio=sum(robust for _, robust in per_point) / test_X.shape[0],
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
    formula: str = "ridge",
) -> LossInterval:
    """Range of the test loss over the weight zonotope.

    With the generator matrix ``W`` (see ``AbstractWeights.generators``),
    residual generators ``R = X W`` and centers ``c = X w_R - y``, the loss
    is the quadratic ``center + b'e + e'Qe`` in the symbols ``e``, where

        Q = R'R / n + lam W'W,   b = 2 R'c / n + 2 lam W'w_R.

    Linearizing every degree-2 monomial and concretizing gives the radius
    ``sum |b| + sum |Q|``.  Aggregating symbolically before concretizing
    keeps the cross-point correlations that per-prediction interval
    arithmetic would lose, which tightens the upper end.  Both supported
    formulas are nonnegative combinations of squares of affine forms, so the
    lower end additionally uses each square's exact minimum (the squared
    distance of zero to the affine term's interval, from the row sums of
    ``|R|`` and ``|W|``); the linearized lower bound alone would forget that
    squares cannot go negative.
    """
    test_X = np.asarray(test_X, dtype=float)
    test_y = np.asarray(test_y, dtype=float)
    if test_X.ndim != 2 or test_X.shape[1] != weights.dim:
        raise ShapeMismatchError(f"test set must be (n, {weights.dim})")
    if test_X.shape[0] != test_y.shape[0]:
        raise ShapeMismatchError("test X and y row counts differ")
    if formula not in ("ridge", "mse"):
        raise ValueError(f"unknown loss formula {formula!r}")
    n = test_X.shape[0]
    W = weights.generators()
    R = test_X @ W
    c = test_X @ weights.w_R - test_y
    center = (c * c / n).sum()
    structural_lo = (_square_min(c, np.abs(R).sum(axis=1)) / n).sum()
    b = R.T @ (2.0 * c / n)
    Q = R.T @ (R / n)
    if formula == "ridge" and lam > 0.0:
        w_R = weights.w_R
        center += (lam * w_R * w_R).sum()
        structural_lo += (lam * _square_min(w_R, np.abs(W).sum(axis=1))).sum()
        b += 2.0 * lam * (W.T @ w_R)
        Q += lam * (W.T @ W)
    radius = np.abs(b).sum() + np.abs(np.diag(Q)).sum() + 2.0 * np.abs(np.triu(Q, 1)).sum()
    return LossInterval(
        lo=float(max(center - radius, structural_lo)), hi=float(center + radius), formula=formula
    )


def parameter_intervals(
    weights: AbstractWeights, names: list[str] | None = None
) -> ParameterIntervals:
    """Componentwise bounds of the weight zonotope (exact per dimension)."""
    radius = np.abs(weights.generators()).sum(axis=1)
    lo = weights.w_R - radius
    hi = weights.w_R + radius
    return ParameterIntervals(lo=lo, hi=hi, names=names or [f"w{j}" for j in range(len(lo))])
