"""Ground-truth oracles and the interval-arithmetic baseline.

World enumeration and sampling train one concrete ridge model per symbol
assignment and record the observed extremes.  These are under-approximations
of the true possible-model set (weights are rational, not affine, in the
symbols once features are uncertain, so corners need not be extremal); the
abstract learner must cover everything they produce.

The worlds are handled as arrays: a world is a row of S values, value j
for data symbol j, the entry j of the cell table.  One generator,
``_assignments``, yields the rows of every strategy in blocks that keep
the largest temporary near ``learning.CHUNK_ELEMENTS``;
``AbstractDataset.materialize_batch`` builds a block of worlds by
indexing, and ``ridge_concrete`` and ``concrete_loss`` train and score a
whole block with stacked products and one stacked solve.  Each world's
data, weights and loss equal, bit for bit, those of building, training and
scoring it alone.  Nothing here calls the learner: the oracle stays an
independent check of it.

The interval baseline supports label uncertainty only and deliberately
propagates per-dimension weight intervals with interval arithmetic,
discarding the correlation between dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

from . import learning
from .dataset import AbstractDataset
from .errors import BudgetExceededError, DataError, ShapeMismatchError

Strategy = Literal["corner", "grid", "uniform"]


def _gram(X: np.ndarray, lam: float) -> np.ndarray:
    """``X'X + lam*n*I`` of ``X``, one matrix or a stack; at ``lam == 0`` a rank-deficient
    matrix raises ``LinAlgError``, and a negative or non-finite ``lam`` ``ValueError``."""
    learning._check_lam(lam)
    n, d = X.shape[-2:]
    gram = X.swapaxes(-1, -2) @ X + lam * n * np.eye(d)
    if lam == 0.0 and np.any(np.linalg.cond(gram) > 1e13):
        raise np.linalg.LinAlgError("X'X is singular at lambda = 0; need full column rank")
    return gram


def ridge_concrete(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Exact ridge solution ``(X'X + lam*n*I)^-1 X'y`` on concrete data.

    ``X`` may be a stack ``(W, n, d)`` of worlds with labels ``(W, n)``;
    the result is then ``(W, d)``, one stacked solve whose rows equal the
    calls on each world.  For ``lam == 0`` every feature matrix must have
    full column rank.  A negative or non-finite ``lam`` raises ``ValueError``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.linalg.solve(_gram(X, lam), X.swapaxes(-1, -2) @ y[..., None])[..., 0]


def concrete_loss(X: np.ndarray, y: np.ndarray, w: np.ndarray, lam: float) -> float:
    """Ridge loss ``mean((X w - y)**2) + lam w'w``; at ``lam = 0``, the mean squared error.

    ``w`` may be a stack ``(W, d)`` of weights; the result is then an array
    of W losses, each equal to the call on its row.  The products are
    matrix products with one column, which give the same bits as ``@`` on
    one vector.  A negative or non-finite ``lam`` raises ``ValueError``, and
    an ``X`` that is not a nonempty 2-d array ``ShapeMismatchError``.
    """
    learning._check_lam(lam)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ShapeMismatchError("test set must be a nonempty 2-d array")
    w = np.asarray(w, dtype=float)[..., None]
    resid = X @ w - np.asarray(y, dtype=float)[:, None]
    loss = (resid.swapaxes(-1, -2) @ resid)[..., 0, 0][()] / X.shape[0]
    loss = loss + lam * (w.swapaxes(-1, -2) @ w)[..., 0, 0][()]
    return float(loss) if w.ndim == 2 else loss


@dataclass(frozen=True, eq=False)
class WorldAssignment:
    """One point of the symbol cube: ``values[j]`` in [-1, 1] is the value of data symbol j."""

    values: np.ndarray

    def __post_init__(self):
        if not (np.abs(self.values) <= 1.0).all():  # NaN fails too
            raise ValueError("assignments must lie in [-1, 1]")


def _assignments(
    ad: AbstractDataset, strategy: Strategy, levels: int, budget: int, samples: int, seed: int
) -> Iterator[np.ndarray]:
    """Blocks of the world rows ``(W, S)`` of a strategy, one value per cell table entry.

    ``"uniform"`` draws ``samples`` seeded rows in one draw, the stream of one
    scalar draw per symbol and world.  ``"corner"`` and ``"grid"`` (``levels``
    points a symbol) enumerate the cube in ``itertools.product`` order over
    the symbols with a nonzero coefficient; the others stay at 0, which gives
    the same worlds.  A block's worlds ``(W, n, d)`` stay near
    ``CHUNK_ELEMENTS``.  Every refusal (a negative sample count, the budget,
    a grid of fewer than 2 levels, an unknown strategy) comes at the call,
    before any block exists.
    """
    block = max(1, learning.CHUNK_ELEMENTS // max(1, ad.n * ad.d))
    if strategy == "uniform":
        if samples < 0:
            raise ValueError(f"cannot sample {samples} worlds")
        shape = (samples, len(ad.cells.coef))
        values = np.random.default_rng(seed).uniform(-1.0, 1.0, shape)
        return (values[start : start + block] for start in range(0, len(values), block))
    if strategy == "corner":
        points = np.array([-1.0, 1.0])
    elif strategy == "grid":
        if levels < 2:
            raise ValueError(f"a grid needs at least 2 levels, got {levels}")
        points = np.linspace(-1.0, 1.0, levels)
    else:
        raise ValueError(f"unknown world strategy {strategy!r}")
    active = np.flatnonzero(ad.cells.coef != 0.0)
    count = len(points) ** len(active)
    if count > budget:
        raise BudgetExceededError(f"{count} worlds exceed budget {budget}")

    def blocks() -> Iterator[np.ndarray]:
        for start in range(0, count, block):
            index = np.arange(start, min(count, start + block))
            values = np.zeros((len(index), len(ad.cells.coef)))
            for j in active[::-1]:  # the last symbol varies fastest
                index, digit = np.divmod(index, len(points))
                values[:, j] = points[digit]
            yield values

    return blocks()


def _worlds(
    ad: AbstractDataset, values: np.ndarray
) -> list[tuple[WorldAssignment, np.ndarray, np.ndarray]]:
    """``(assignment, X, y)`` of every row of ``values``, built as one block."""
    X, y = ad.materialize_batch(values)
    return [(WorldAssignment(row), Xw, yw) for row, Xw, yw in zip(values, X, y)]


def enumerate_worlds(
    ad: AbstractDataset,
    strategy: Strategy = "corner",
    levels: int = 3,
    budget: int = 65536,
) -> Iterator[tuple[WorldAssignment, np.ndarray, np.ndarray]]:
    """Materialize every corner (or grid point) of the uncertainty cube.

    Symbols with a zero coefficient are held at 0: they change no cell, so
    the budget counts only the others.  Worlds are built in blocks.
    """
    if strategy == "uniform":
        raise ValueError(f"enumerate_worlds does not support strategy {strategy!r}")
    for values in _assignments(ad, strategy, levels, budget, 0, 0):
        yield from _worlds(ad, values)


def sample_worlds(
    ad: AbstractDataset, count: int, seed: int
) -> list[tuple[WorldAssignment, np.ndarray, np.ndarray]]:
    """Seeded uniform samples from the uncertainty cube, built as one block: all are
    returned, so blocks would save no memory, and one build is faster.  A
    negative ``count`` raises ``ValueError``."""
    blocks = _assignments(ad, "uniform", 0, 0, count, seed)
    return _worlds(ad, np.concatenate([np.empty((0, len(ad.cells.coef))), *blocks]))


def _train_worlds(
    ad: AbstractDataset,
    lam: float,
    strategy: Strategy = "corner",
    levels: int = 3,
    budget: int = 65536,
    samples: int = 0,
    seed: int = 0,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks ``(values, weights)`` of worlds and their trained ridge weights.

    The worlds are those of ``enumerate_worlds`` (``"corner"``, ``"grid"``)
    or ``sample_worlds`` (``"uniform"``, ``samples`` of them), in the same
    order; ``values`` holds their rows ``(W, S)`` and ``weights`` the
    ``ridge_concrete`` solution ``(W, d)`` of each.  Every refusal comes at
    the call.
    """
    blocks = _assignments(ad, strategy, levels, budget, samples, seed)
    return ((values, ridge_concrete(*ad.materialize_batch(values), lam)) for values in blocks)


@dataclass
class WorldOracleResult:
    """Extremes observed over a set of concrete worlds (an under-approximation)."""

    weights: np.ndarray  # (n_worlds, d), one row per world
    weight_lo: np.ndarray
    weight_hi: np.ndarray
    pred_lo: np.ndarray
    pred_hi: np.ndarray
    loss_lo: float
    loss_hi: float
    n_worlds: int


def oracle_ranges(
    ad: AbstractDataset,
    lam: float,
    test_X: np.ndarray,
    test_y: np.ndarray,
    strategy: Strategy = "corner",
    levels: int = 3,
    budget: int = 65536,
    samples: int = 0,
    seed: int = 0,
) -> WorldOracleResult:
    """Train one ridge model per world; record weight/prediction/loss extremes.

    The loss is ``concrete_loss`` at ``lam``, the lambda the worlds train
    with: at ``lam = 0`` it is the mean squared error.  A negative or
    non-finite ``lam`` raises ``ValueError`` from ``ridge_concrete``; a
    ``test_X`` that is not 2-d with ``ad.d`` columns and at least one row,
    or a ``test_y`` that is not one label per row, ``ShapeMismatchError``.
    """
    test_X = np.asarray(test_X, dtype=float)
    test_y = np.asarray(test_y, dtype=float)
    if test_X.ndim != 2 or test_X.shape[1] != ad.d:
        raise ShapeMismatchError(f"test set must be (n, {ad.d})")
    if test_X.shape[0] == 0:
        raise ShapeMismatchError("test set must be a nonempty 2-d array")
    if test_y.shape != test_X.shape[:1]:
        raise ShapeMismatchError(f"test y must be ({test_X.shape[0]},), got {test_y.shape}")
    blocks = []
    pred_lo = np.full(len(test_X), np.inf)
    pred_hi = np.full(len(test_X), -np.inf)
    loss_lo, loss_hi = np.inf, -np.inf
    for _, w in _train_worlds(ad, lam, strategy, levels, budget, samples, seed):
        blocks.append(w)
        preds = (test_X @ w[..., None])[..., 0]
        pred_lo = np.minimum(pred_lo, preds.min(axis=0))
        pred_hi = np.maximum(pred_hi, preds.max(axis=0))
        loss = concrete_loss(test_X, test_y, w, lam)
        loss_lo, loss_hi = min(loss_lo, float(loss.min())), max(loss_hi, float(loss.max()))
    if not blocks:
        raise DataError("oracle saw no worlds")
    weights = np.concatenate(blocks)
    return WorldOracleResult(
        weights=weights,
        weight_lo=weights.min(axis=0),
        weight_hi=weights.max(axis=0),
        pred_lo=pred_lo,
        pred_hi=pred_hi,
        loss_lo=loss_lo,
        loss_hi=loss_hi,
        n_worlds=len(weights),
    )


@dataclass
class IntervalRidgeResult:
    """Per-dimension weight intervals from the label-interval baseline."""

    weight_lo: np.ndarray
    weight_hi: np.ndarray

    def predict_interval(self, x: np.ndarray) -> tuple:
        """Interval dot product of x with the weight intervals: two floats for
        one point, two arrays for a matrix of points by row.

        Cross-dimension correlation is deliberately discarded; the result
        contains the true prediction range but is generally loose.
        """
        x = np.asarray(x, dtype=float)
        lo = np.where(x >= 0, x * self.weight_lo, x * self.weight_hi).sum(axis=-1)
        hi = np.where(x >= 0, x * self.weight_hi, x * self.weight_lo).sum(axis=-1)
        return (float(lo), float(hi)) if x.ndim == 1 else (lo, hi)


def interval_ridge_labels(
    X: np.ndarray, y_intervals: np.ndarray, lam: float
) -> IntervalRidgeResult:
    """Ridge with interval labels, propagated by interval arithmetic.

    ``y_intervals`` is (n, 2) with per-row [lo, hi].  The feature matrix must
    be certain.  Weight interval j sums the row intervals scaled by the
    entries of ``(X'X + lam*n*I)^-1 X'``.  A negative or non-finite ``lam``
    raises ``ValueError``.
    """
    X = np.asarray(X, dtype=float)
    y_intervals = np.asarray(y_intervals, dtype=float)
    gram = _gram(X, lam)
    n = X.shape[0]
    if y_intervals.shape != (n, 2):
        raise DataError(f"y_intervals must be (n, 2), got {y_intervals.shape}")
    if np.any(y_intervals[:, 0] > y_intervals[:, 1]):
        raise DataError("label intervals must satisfy lo <= hi")
    m = np.linalg.solve(gram, X.T)  # d x n
    lo = np.where(m >= 0, m * y_intervals[:, 0], m * y_intervals[:, 1]).sum(axis=1)
    hi = np.where(m >= 0, m * y_intervals[:, 1], m * y_intervals[:, 0]).sum(axis=1)
    return IntervalRidgeResult(weight_lo=lo, weight_hi=hi)
