"""One refusal table: every query and oracle entry point, and the world-side
calls beside them, refuse a malformed or non-finite input with a typed error
and the same message for the same fault.

The queries and ``oracle_ranges`` check their test set in full; the calls
that run once per world or test point (``concrete_loss`` and the interval
baseline's ``predict_interval``) check its shape only.  A world row must have
one value per cell of a fit's table and lie in the cube [-1, 1]^S, a
containment check's slack must be finite and
nonnegative, and the oracles' training data must give a finite ``X'X`` and
``X'y``, as a fit's must, with a finite diameter system.  A penalty is a
finite, nonnegative number and a split budget an integer of at least 1.
"""

import numpy as np
import pytest

from zonoridge.dataset import Dataset, UncertaintySpec, abstract_missing, inject_uncertainty
from zonoridge.errors import DataError, ShapeMismatchError, SplitBudgetError
from zonoridge.inference import certify_robustness, loss_interval, predict_interval
from zonoridge.learning import RidgeConfig, contains_world_weights, fixed_point
from zonoridge.oracles import concrete_loss, interval_ridge_labels, oracle_ranges, ridge_concrete
from zonoridge.symbols import SymbolKind, SymbolRegistry

SHAPE = "test set must be a nonempty 2-d array"
WIDTH = "test set must be (n, 3)"
FINITE = "test X and y must be finite"
CUBE = "assignments must lie in [-1, 1]"
GRAM = "training X'X must be finite"


def _set(a, index, value):
    a = a.copy()
    a[index] = value
    return a


class Case:
    """A 10-row, 3-column problem with uncertain labels, fitted, and a 5-row test set."""

    def __init__(self):
        rng = np.random.default_rng(13)
        X = np.column_stack([np.ones(10), rng.uniform(-1, 2, (10, 2))])
        y = X @ np.array([0.5, -1.0, 2.0]) + 0.1 * rng.standard_normal(10)
        self.ad = inject_uncertainty(
            Dataset(X=X, y=y, columns=["bias", "f0", "f1"]), UncertaintySpec("labels", 0.2, 0.1, seed=14)
        )
        self.weights, _ = fixed_point(self.ad, RidgeConfig(lam=0.1))
        self.X, self.y = X[:5], y[:5]
        self.train_X, self.train_y = X, y
        self.baseline = interval_ridge_labels(X, self.ad.label_intervals(), 0.1)
        self.values = np.zeros(len(self.ad.cells.coef))


# Penalties that are no finite, nonnegative number.
LAMS = [("huge-int", 10**400), ("string", "0.1"), ("none", None)]


def _overflowing_fit(scale=1.0, label=None, missing_range=None):
    """Fit 20 rows, a bias and 2 normal columns times ``scale``: ``both`` at 20%, or the
    label ``label`` on every row, or one missing cell of range +-``missing_range``.
    The fit must refuse, not return NaN, and raise its typed error, not numpy's overflow
    warning (an exception under ``-W error::RuntimeWarning``)."""
    rng = np.random.default_rng(3)
    X = np.column_stack([np.ones(20), scale * rng.standard_normal((20, 2))])
    y = rng.standard_normal(20) if label is None else np.full(20, label)
    if missing_range is None:
        ad = inject_uncertainty(Dataset(X=X, y=y, columns=["bias", "f0", "f1"]),
                                UncertaintySpec("both", 0.2, 0.1, seed=4))
    else:
        X[3, 1] = np.nan
        ad = abstract_missing(Dataset(X=X, y=y, columns=["bias", "f0", "f1"]),
                              {"f0": (-missing_range, missing_range), "f1": (-1.0, 1.0)})
    return fixed_point(ad, RidgeConfig(lam=0.1))


# A test set's faults: the bad X or y, and the error and message every full check gives.
BAD_X = [
    ("X-1d", lambda X: X[0], ShapeMismatchError, SHAPE),
    ("X-empty", lambda X: X[:0], ShapeMismatchError, SHAPE),
    ("X-width", lambda X: X[:, :2], ShapeMismatchError, WIDTH),
    ("X-nan", lambda X: _set(X, (1, 1), np.nan), DataError, FINITE),
    ("X-inf", lambda X: _set(X, (1, 1), np.inf), DataError, FINITE),
    ("X-neg-inf", lambda X: _set(X, (1, 1), -np.inf), DataError, FINITE),
]
BAD_Y = [
    ("y-1", lambda y: y[:1], ShapeMismatchError, "test y must be (5,), got (1,)"),
    ("y-column", lambda y: y[:, None], ShapeMismatchError, "test y must be (5,), got (5, 1)"),
    ("y-nan", lambda y: _set(y, 2, np.nan), DataError, FINITE),
    ("y-inf", lambda y: _set(y, 2, np.inf), DataError, FINITE),
    ("y-neg-inf", lambda y: _set(y, 2, -np.inf), DataError, FINITE),
]
# Entry points that take a test set, as calls on (case, X, y), and whether
# they take labels and check finiteness.
TEST_SETS = [
    ("certify", lambda c, X, y: certify_robustness(X, c.weights, 0.5), False, True),
    ("loss", lambda c, X, y: loss_interval(X, y, c.weights, 0.1), True, True),
    ("oracle", lambda c, X, y: oracle_ranges(c.ad, 0.1, X, y), True, True),
    ("concrete-loss", lambda c, X, y: concrete_loss(X, y, c.weights.w_R, 0.1), True, False),
]


def _test_set_cases():
    for name, call, takes_y, finite in TEST_SETS:
        for fault, bad, error, message in BAD_X:
            if finite or error is ShapeMismatchError:
                yield pytest.param(
                    lambda c, call=call, bad=bad: call(c, bad(c.X), c.y), error, message, id=f"{name}-{fault}"
                )
        for fault, bad, error, message in BAD_Y if takes_y else ():
            if finite or error is ShapeMismatchError:
                yield pytest.param(
                    lambda c, call=call, bad=bad: call(c, c.X, bad(c.y)), error, message, id=f"{name}-{fault}"
                )


CASES = [
    *_test_set_cases(),
    # A point is a one-row test set.
    pytest.param(lambda c: predict_interval(c.X[:1], c.weights), ShapeMismatchError, SHAPE, id="point-2d"),
    pytest.param(lambda c: predict_interval(c.X[0, :0], c.weights), ShapeMismatchError, WIDTH, id="point-empty"),
    pytest.param(lambda c: predict_interval(c.X[0, :2], c.weights), ShapeMismatchError, WIDTH, id="point-width"),
    pytest.param(lambda c: predict_interval(1.0, c.weights), ShapeMismatchError, SHAPE, id="point-scalar"),
    pytest.param(lambda c: predict_interval(_set(c.X[0], 1, np.nan), c.weights), DataError, FINITE,
                 id="point-nan"),
    pytest.param(lambda c: predict_interval(_set(c.X[0], 1, np.inf), c.weights), DataError, FINITE,
                 id="point-inf"),
    pytest.param(lambda c: predict_interval(_set(c.X[0], 1, -np.inf), c.weights), DataError, FINITE,
                 id="point-neg-inf"),
    # The interval baseline's point or matrix of points: its shape only.
    pytest.param(lambda c: c.baseline.predict_interval(c.X[0, :1]), ShapeMismatchError, WIDTH,
                 id="baseline-one-entry-point"),
    pytest.param(lambda c: c.baseline.predict_interval(c.X[:, :2]), ShapeMismatchError, WIDTH,
                 id="baseline-width"),
    pytest.param(lambda c: c.baseline.predict_interval(c.X[:0]), ShapeMismatchError, SHAPE,
                 id="baseline-empty"),
    pytest.param(lambda c: c.baseline.predict_interval(c.X[None]), ShapeMismatchError, SHAPE,
                 id="baseline-3d"),
    pytest.param(lambda c: concrete_loss(c.X, c.y, 1.0, 0.1), ShapeMismatchError,
                 "w must be (d,) or (W, d), got ()", id="concrete-loss-scalar-w"),
    # The world side: a world's weights and row, training labels, label intervals.
    pytest.param(lambda c: contains_world_weights(c.weights, c.values, c.weights.w_R[:1]), ShapeMismatchError,
                 "w_star must be (3,), got (1,)", id="contains-w-star-short"),
    pytest.param(lambda c: contains_world_weights(c.weights, c.values, c.weights.w_R[:, None]),
                 ShapeMismatchError, "w_star must be (3,), got (3, 1)", id="contains-w-star-column"),
    pytest.param(lambda c: contains_world_weights(c.weights, c.values[None], c.weights.w_R), ShapeMismatchError,
                 "values must be a 1-d row reaching every symbol id, got (1, 2)", id="contains-row-2d"),
    pytest.param(lambda c: contains_world_weights(c.weights, c.values[:1], c.weights.w_R), ShapeMismatchError,
                 "values must be a 1-d row reaching every symbol id, got (1,)", id="contains-row-short"),
    pytest.param(lambda c: contains_world_weights(c.weights, np.zeros(7), c.weights.w_R), ShapeMismatchError,
                 "values must be a row of 2 cell values, got (7,)", id="contains-row-long"),
    *(pytest.param(lambda c, tol=tol: contains_world_weights(c.weights, c.values, c.weights.w_R, tol), ValueError,
                   "tol must be >= 0 and finite", id=f"contains-tol-{tol}") for tol in (np.nan, -1.0, np.inf)),
    # A symbol count: a negative one would rewind the registry and hand out its ids again.
    pytest.param(lambda c: c.ad.registry.new_symbols(-2, SymbolKind.DATA), ValueError,
                 "symbol count must be >= 0, got -2", id="registry-count-negative"),
    pytest.param(lambda c: c.ad.registry.new_symbols(2.0, SymbolKind.DATA), ValueError,
                 "symbol count must be an integer, got 2.0", id="registry-count-float"),
    pytest.param(lambda c: ridge_concrete(c.train_X, c.train_y[:1], 0.1), ShapeMismatchError,
                 "labels must be (10,), one per row of X, got (1,)", id="ridge-labels-short"),
    pytest.param(lambda c: ridge_concrete(c.train_X, c.train_y[:, None], 0.1), ShapeMismatchError,
                 "labels must be (10,), one per row of X, got (10, 1)", id="ridge-labels-column"),
    # A world is a point of the cube [-1, 1]^S: a row outside it, NaN included, is none.
    pytest.param(lambda c: contains_world_weights(c.weights, c.values + 5.0, c.weights.w_R), ValueError,
                 CUBE, id="contains-row-outside"),
    pytest.param(lambda c: contains_world_weights(c.weights, _set(c.values, 1, np.nan), c.weights.w_R),
                 ValueError, CUBE, id="contains-row-nan"),
    pytest.param(lambda c: c.ad.materialize_batch(np.full((1, 2), 5.0)), ValueError, CUBE,
                 id="materialize-outside"),
    pytest.param(lambda c: c.ad.materialize_batch(_set(np.zeros((3, 2)), (1, 0), -1.5)), ValueError, CUBE,
                 id="materialize-one-entry-outside"),
    pytest.param(lambda c: c.ad.materialize_batch(_set(np.zeros((3, 2)), (2, 1), np.nan)), ValueError, CUBE,
                 id="materialize-nan"),
    # Training data: a NaN or infinite cell makes X'X (or X'y) non-finite.
    *(pytest.param(lambda c, v=v, lam=lam: ridge_concrete(_set(c.train_X, (2, 1), v), c.train_y, lam),
                   DataError, GRAM, id=f"ridge-X-{v}-lam-{lam}")
      for v in (np.nan, np.inf, -np.inf) for lam in (0.0, 0.1)),
    pytest.param(lambda c: ridge_concrete(np.stack([c.train_X, _set(c.train_X, (2, 1), np.nan)]),
                                          np.stack([c.train_y] * 2), 0.1), DataError, GRAM, id="ridge-X-stack-nan"),
    *(pytest.param(lambda c, v=v: ridge_concrete(c.train_X, _set(c.train_y, 4, v), 0.1), DataError,
                   "training X'y must be finite", id=f"ridge-y-{v}") for v in (np.nan, np.inf, -np.inf)),
    *(pytest.param(lambda c, v=v: interval_ridge_labels(_set(c.train_X, (2, 1), v), c.ad.label_intervals(), 0.1),
                   DataError, GRAM, id=f"baseline-X-{v}") for v in (np.nan, np.inf)),
    pytest.param(lambda c: interval_ridge_labels(c.train_X, _set(c.ad.label_intervals(), (3, 0), np.nan), 0.1),
                 DataError, "label intervals must be finite", id="baseline-nan-interval"),
    pytest.param(lambda c: interval_ridge_labels(c.train_X, _set(c.ad.label_intervals(), (3, 1), np.inf), 0.1),
                 DataError, "label intervals must be finite", id="baseline-inf-interval"),
]

# A fit's training sums and its diameter system must be finite: NaN passes every comparison.
FIT_CASES = [
    pytest.param(lambda c: _overflowing_fit(scale=1e160), DataError, GRAM, id="fit-X-overflow"),
    pytest.param(lambda c: _overflowing_fit(label=1e308), DataError, "training X'y must be finite",
                 id="fit-y-overflow"),
    pytest.param(lambda c: _overflowing_fit(missing_range=1e155), DataError,
                 "threshold beta = inf is not finite", id="fit-beta-overflow"),
    # A huge range predicts a huge split count, or an infinite one: it is capped at the budget + 1.
    *(pytest.param(lambda c, r=r: _overflowing_fit(missing_range=r), SplitBudgetError,
                   "4097**1 parts exceed split budget 4096", id=f"fit-split-count-{r:g}")
      for r in (1e100, 1e154)),
    # A penalty or budget of the wrong type is a ValueError too, as a negative one is.
    *(pytest.param(lambda c, lam=lam: RidgeConfig(lam=lam), ValueError, "lam must be >= 0 and finite",
                   id=f"config-lam-{name}") for name, lam in LAMS),
    *(pytest.param(lambda c, lam=lam: loss_interval(c.X, c.y, c.weights, lam), ValueError,
                   "lam must be >= 0 and finite", id=f"loss-lam-{name}") for name, lam in LAMS),
    *(pytest.param(lambda c, budget=budget: RidgeConfig(split_budget=budget), ValueError,
                   "split budget must be >= 1", id=f"config-split-budget-{name}")
      for name, budget in (("float", 1.5), ("string", "3"), ("none", None))),
]


@pytest.mark.parametrize("refuse, error, message", CASES + FIT_CASES)
def test_refusals(refuse, error, message):
    case = Case()
    assert len(case.values) == 2 and case.weights.data_ids.tolist() == [0, 1]
    with pytest.raises(error) as exc:
        refuse(case)
    assert type(exc.value) is error and str(exc.value) == message


def test_refused_symbol_count_leaves_the_registry():
    reg = SymbolRegistry()
    assert reg.new_symbols(3, SymbolKind.DATA) == [0, 1, 2]
    for count in (-2, 1.5, "2", None):
        with pytest.raises(ValueError):
            reg.new_symbols(count, SymbolKind.DATA)
    assert len(reg) == 3 and reg.new_symbols(2, SymbolKind.DATA) == [3, 4]
    assert reg.new_symbols(np.int64(1), SymbolKind.FRESH) == [5] and reg.new_symbols(0, SymbolKind.DATA) == []


def test_shape_checked_calls_show_a_nan():
    # They do not look for NaN: it comes out as a NaN, never as a plausible number.
    case = Case()
    X = _set(case.X, (1, 1), np.nan)
    assert np.isnan(concrete_loss(X, case.y, case.weights.w_R, 0.1))
    assert np.isnan(concrete_loss(case.X, _set(case.y, 2, np.nan), case.weights.w_R, 0.1))
    assert np.isnan(case.baseline.predict_interval(X[1])).all()
    lo, hi = case.baseline.predict_interval(X)
    assert np.isnan(lo[1]) and np.isnan(hi[1]) and np.isfinite(np.delete(lo, 1)).all()
