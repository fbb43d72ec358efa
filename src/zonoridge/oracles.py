"""Ground-truth oracles and the interval-arithmetic baseline.

World enumeration and sampling train one concrete ridge model per symbol
assignment and record the observed extremes.  These are under-approximations
of the true possible-model set (weights are rational, not affine, in the
symbols once features are uncertain, so corners need not be extremal); the
abstract learner must cover everything they produce.

The worlds are handled as arrays: the assignments of all worlds are drawn
or enumerated at once, ``AbstractDataset.materialize_batch`` builds a block
of worlds by indexing, and ``ridge_concrete`` and ``concrete_loss`` train
and score a whole block with stacked products and one stacked solve.  Each
world's data, weights and loss equal, bit for bit, those of building,
training and scoring it alone.  Enumeration and training work in blocks
that keep the largest temporary near ``learning.CHUNK_ELEMENTS``;
``sample_worlds`` returns every world, so it builds them as one block.
Nothing here calls the learner: the oracle stays an independent check of
it.

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


def ridge_concrete(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Exact ridge solution ``(X'X + lam*n*I)^-1 X'y`` on concrete data.

    ``X`` may be a stack ``(W, n, d)`` of worlds with labels ``(W, n)``;
    the result is then ``(W, d)``, one stacked solve whose rows equal the
    calls on each world.  For ``lam == 0`` every feature matrix must have
    full column rank.  A negative or non-finite ``lam`` raises ``ValueError``.
    """
    learning._check_lam(lam)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape[-2:]
    Xt = X.swapaxes(-1, -2)
    gram = Xt @ X + lam * n * np.eye(d)
    if lam == 0.0 and np.any(np.linalg.cond(gram) > 1e13):
        raise np.linalg.LinAlgError("X'X is singular at lambda = 0; need full column rank")
    return np.linalg.solve(gram, Xt @ y[..., None])[..., 0]


def concrete_loss(X: np.ndarray, y: np.ndarray, w: np.ndarray, lam: float) -> float:
    """Ridge loss ``mean((X w - y)**2) + lam w'w``; at ``lam = 0``, the mean squared error.

    ``w`` may be a stack ``(W, d)`` of weights; the result is then an array
    of W losses, each equal to the call on its row.  The products are
    matrix products with one column, which give the same bits as ``@`` on
    one vector.  A negative or non-finite ``lam`` raises ``ValueError``.
    """
    learning._check_lam(lam)
    w = np.asarray(w, dtype=float)[..., None]
    resid = X @ w - np.asarray(y, dtype=float)[:, None]
    loss = (resid.swapaxes(-1, -2) @ resid)[..., 0, 0][()] / X.shape[0]
    loss = loss + lam * (w.swapaxes(-1, -2) @ w)[..., 0, 0][()]
    return float(loss) if w.ndim == 2 else loss


@dataclass(frozen=True)
class WorldAssignment:
    """One point of the symbol cube: value in [-1, 1] per data symbol."""

    values: dict[int, float]

    def __post_init__(self):
        for v in self.values.values():
            if not -1.0 <= v <= 1.0:
                raise ValueError("assignments must lie in [-1, 1]")


def _block(ad: AbstractDataset) -> int:
    """Worlds built and trained together: a block's ``(W, n, d)`` stays near ``CHUNK_ELEMENTS``."""
    return max(1, learning.CHUNK_ELEMENTS // max(1, ad.n * ad.d))


def _grid_values(
    ad: AbstractDataset, strategy: Strategy, levels: int, budget: int
) -> Iterator[np.ndarray]:
    """Every corner (or grid point) of the cube, in blocks of assignment rows.

    Only symbols with a nonzero coefficient vary, in ``itertools.product``
    order over the cell table; the others stay at 0, which gives the same
    worlds.  Raises ``BudgetExceededError``, or ``ValueError`` for a grid
    of fewer than 2 levels, at the call, before any block exists.
    """
    if strategy == "corner":
        points = np.array([-1.0, 1.0])
    elif strategy == "grid":
        if levels < 2:
            raise ValueError(f"a grid needs at least 2 levels, got {levels}")
        points = np.linspace(-1.0, 1.0, levels)
    else:
        raise ValueError(f"enumerate_worlds does not support strategy {strategy!r}")
    active = np.flatnonzero(ad.cells.coef != 0.0)
    count = len(points) ** len(active)
    if count > budget:
        raise BudgetExceededError(f"{count} worlds exceed budget {budget}")

    def blocks() -> Iterator[np.ndarray]:
        block = _block(ad)
        for start in range(0, count, block):
            index = np.arange(start, min(count, start + block))
            values = np.zeros((len(index), len(ad.cells.symbols)))
            for j in active[::-1]:  # the last symbol varies fastest
                index, digit = np.divmod(index, len(points))
                values[:, j] = points[digit]
            yield values

    return blocks()


def _sampled_values(ad: AbstractDataset, count: int, seed: int) -> np.ndarray:
    """Seeded uniform assignments ``(count, S)``, none for ``count <= 0``.

    One draw of the whole array gives the same stream as one scalar draw per
    symbol and world, world by world.
    """
    shape = (max(count, 0), len(ad.cells.symbols))
    return np.random.default_rng(seed).uniform(-1.0, 1.0, shape)


def _worlds(
    ad: AbstractDataset, values: np.ndarray
) -> list[tuple[WorldAssignment, np.ndarray, np.ndarray]]:
    """``(assignment, X, y)`` of every row of ``values``, built as one block."""
    syms = ad.data_symbols()
    X, y = ad.materialize_batch(values)
    return [
        (WorldAssignment(dict(zip(syms, row))), Xw, yw)
        for row, Xw, yw in zip(values.tolist(), X, y)
    ]


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
    for values in _grid_values(ad, strategy, levels, budget):
        yield from _worlds(ad, values)


def sample_worlds(
    ad: AbstractDataset, count: int, seed: int
) -> list[tuple[WorldAssignment, np.ndarray, np.ndarray]]:
    """Seeded uniform samples from the uncertainty cube, built as one block."""
    return _worlds(ad, _sampled_values(ad, count, seed))


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
    order; ``values`` holds their assignments ``(W, S)`` over
    ``data_symbols()`` and ``weights`` the ``ridge_concrete`` solution
    ``(W, d)`` of each.  Too many corners raise ``BudgetExceededError`` at
    the call, before any world is built.
    """
    if strategy == "uniform":
        values, step = _sampled_values(ad, samples, seed), _block(ad)
        blocks = (values[start : start + step] for start in range(0, len(values), step))
    else:
        blocks = _grid_values(ad, strategy, levels, budget)
    return ((values, ridge_concrete(*ad.materialize_batch(values), lam)) for values in blocks)


@dataclass
class WorldOracleResult:
    """Extremes observed over a set of concrete worlds (an under-approximation)."""

    weights: list[np.ndarray]
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
    ``test_X`` that is not 2-d with ``ad.d`` columns, or a ``test_y`` that is
    not one label per row, ``ShapeMismatchError``.
    """
    test_X = np.asarray(test_X, dtype=float)
    test_y = np.asarray(test_y, dtype=float)
    if test_X.ndim != 2 or test_X.shape[1] != ad.d:
        raise ShapeMismatchError(f"test set must be (n, {ad.d})")
    if test_y.shape != test_X.shape[:1]:
        raise ShapeMismatchError(f"test y must be ({test_X.shape[0]},), got {test_y.shape}")
    weights = []
    pred_lo = np.full(len(test_X), np.inf)
    pred_hi = np.full(len(test_X), -np.inf)
    loss_lo, loss_hi = np.inf, -np.inf
    for _, w in _train_worlds(ad, lam, strategy, levels, budget, samples, seed):
        weights.extend(w)
        preds = (test_X @ w[..., None])[..., 0]
        pred_lo = np.minimum(pred_lo, preds.min(axis=0))
        pred_hi = np.maximum(pred_hi, preds.max(axis=0))
        loss = concrete_loss(test_X, test_y, w, lam)
        loss_lo, loss_hi = min(loss_lo, float(loss.min())), max(loss_hi, float(loss.max()))
    if not weights:
        raise DataError("oracle saw no worlds")
    stack = np.vstack(weights)
    return WorldOracleResult(
        weights=weights,
        weight_lo=stack.min(axis=0),
        weight_hi=stack.max(axis=0),
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

    def predict_interval(self, x: np.ndarray) -> tuple[float, float]:
        """Interval dot product of x with the weight intervals.

        Cross-dimension correlation is deliberately discarded; the result
        contains the true prediction range but is generally loose.
        """
        x = np.asarray(x, dtype=float)
        lo = np.where(x >= 0, x * self.weight_lo, x * self.weight_hi).sum()
        hi = np.where(x >= 0, x * self.weight_hi, x * self.weight_lo).sum()
        return float(lo), float(hi)


def interval_ridge_labels(
    X: np.ndarray, y_intervals: np.ndarray, lam: float
) -> IntervalRidgeResult:
    """Ridge with interval labels, propagated by interval arithmetic.

    ``y_intervals`` is (n, 2) with per-row [lo, hi].  The feature matrix must
    be certain.  Weight interval j sums the row intervals scaled by the
    entries of ``(X'X + lam*n*I)^-1 X'``.  A negative or non-finite ``lam``
    raises ``ValueError``.
    """
    learning._check_lam(lam)
    X = np.asarray(X, dtype=float)
    y_intervals = np.asarray(y_intervals, dtype=float)
    n, d = X.shape
    if y_intervals.shape != (n, 2):
        raise DataError(f"y_intervals must be (n, 2), got {y_intervals.shape}")
    if np.any(y_intervals[:, 0] > y_intervals[:, 1]):
        raise DataError("label intervals must satisfy lo <= hi")
    gram = X.T @ X + lam * n * np.eye(d)
    if lam == 0.0 and np.linalg.cond(gram) > 1e13:
        raise np.linalg.LinAlgError("X'X is singular at lambda = 0; need full column rank")
    m = np.linalg.solve(gram, X.T)  # d x n
    lo = np.where(m >= 0, m * y_intervals[:, 0], m * y_intervals[:, 1]).sum(axis=1)
    hi = np.where(m >= 0, m * y_intervals[:, 1], m * y_intervals[:, 0]).sum(axis=1)
    return IntervalRidgeResult(weight_lo=lo, weight_hi=hi)
