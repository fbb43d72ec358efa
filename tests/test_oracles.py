import tracemalloc
from itertools import product as iter_product

import numpy as np
import pytest
from conftest import cell_table
from stages import ridge_closed_form_real

from zonoridge import learning, oracles
from zonoridge.dataset import (
    LABEL_COL,
    AbstractDataset,
    Dataset,
    UncertaintySpec,
    abstract_missing,
    inject_uncertainty,
)
from zonoridge.errors import BudgetExceededError, DataError, ShapeMismatchError
from zonoridge.oracles import (
    WorldAssignment,
    concrete_loss,
    enumerate_worlds,
    interval_ridge_labels,
    oracle_ranges,
    ridge_concrete,
    sample_worlds,
)
from zonoridge.symbols import SymbolKind, SymbolRegistry


def make_dataset(n, d_feat, seed):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.uniform(-1, 2, size=(n, d_feat))])
    y = X @ rng.uniform(-2, 2, size=d_feat + 1) + 0.1 * rng.standard_normal(n)
    return Dataset(X=X, y=y, columns=["bias"] + [f"f{i}" for i in range(d_feat)])


class TestRidgeConcrete:
    def test_identical_to_closed_form_real(self):
        ds = make_dataset(15, 3, seed=0)
        for lam in (0.0, 0.01, 1.0):
            np.testing.assert_array_equal(
                ridge_concrete(ds.X, ds.y, lam), ridge_closed_form_real(ds.X, ds.y, lam)
            )

    def test_norm_shrinks_with_lambda(self):
        ds = make_dataset(25, 3, seed=1)
        norms = [np.linalg.norm(ridge_concrete(ds.X, ds.y, lam)) for lam in (0.0, 0.1, 1.0, 10.0, 100.0)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 0.1 * norms[0]

    def test_first_order_condition(self):
        ds = make_dataset(20, 2, seed=2)
        lam = 0.3
        w = ridge_concrete(ds.X, ds.y, lam)
        grad = (2 / ds.n) * (ds.X.T @ ds.X @ w - ds.X.T @ ds.y) + 2 * lam * w
        assert np.max(np.abs(grad)) < 1e-10

    @pytest.mark.parametrize("lam", [-0.5, float("nan"), float("inf")])
    def test_invalid_lam_rejected(self, lam):
        ds = make_dataset(10, 2, seed=2)
        ad = inject_uncertainty(ds, UncertaintySpec("labels", 0.3, 0.2, seed=1))
        w = ridge_concrete(ds.X, ds.y, 0.1)
        for call in (
            lambda: ridge_concrete(ds.X, ds.y, lam),
            lambda: concrete_loss(ds.X, ds.y, w, lam),
            lambda: interval_ridge_labels(ds.X, ad.label_intervals(), lam),
            # Not a negative loss, or an infinite one, as the range of no world.
            lambda: oracle_ranges(ad, lam, ds.X[:3], ds.y[:3]),
        ):
            with pytest.raises(ValueError, match="lam must be >= 0 and finite"):
                call()


class TestEnumerateWorlds:
    def test_no_symbols_single_world(self):
        ds = make_dataset(5, 1, seed=3)
        ad = inject_uncertainty(ds, UncertaintySpec("labels", 0.0, 0.1, seed=0))
        worlds = list(enumerate_worlds(ad))
        assert len(worlds) == 1
        np.testing.assert_array_equal(worlds[0][1], ds.X)

    def test_two_symbols_four_corners(self):
        ds = make_dataset(6, 1, seed=4)
        ad = inject_uncertainty(ds, UncertaintySpec("labels", 2 / 6, 0.2, seed=1))
        assert len(ad.data_symbols()) == 2
        worlds = list(enumerate_worlds(ad))
        assert len(worlds) == 4
        seen = {tuple(sorted(w.values.tolist())) for w, _, _ in worlds}
        assert seen == {(-1.0, -1.0), (-1.0, 1.0), (1.0, 1.0)}

    def test_cells_within_intervals(self):
        ds = make_dataset(8, 2, seed=5)
        ad = inject_uncertainty(ds, UncertaintySpec("both", 0.25, 0.3, seed=2))
        for wa, X, y in enumerate_worlds(ad, "grid", levels=3, budget=100_000):
            for sid in ad.data_symbols():
                lo, hi = ad.cell_interval(sid)
                r, c = ad.provenance[sid]
                val = y[r] if c == LABEL_COL else X[r, c]
                assert lo - 1e-12 <= val <= hi + 1e-12

    def test_budget(self):
        ds = make_dataset(40, 2, seed=6)
        ad = inject_uncertainty(ds, UncertaintySpec("both", 0.5, 0.2, seed=3))
        with pytest.raises(BudgetExceededError):
            list(enumerate_worlds(ad, budget=16))

    @pytest.mark.parametrize("levels", [-1, 0, 1])
    def test_grid_needs_two_levels(self, levels):
        # One level is the all -1 corner alone, and none is no world at all.
        ds = make_dataset(8, 2, seed=5)
        ad = inject_uncertainty(ds, UncertaintySpec("both", 0.25, 0.3, seed=2))
        with pytest.raises(ValueError, match=f"at least 2 levels, got {levels}"):
            list(enumerate_worlds(ad, "grid", levels=levels))
        with pytest.raises(ValueError, match=f"at least 2 levels, got {levels}"):
            oracle_ranges(ad, 0.1, ds.X[:3], ds.y[:3], strategy="grid", levels=levels)


class TestSampleWorlds:
    def test_count_zero(self):
        ds = make_dataset(5, 1, seed=7)
        ad = inject_uncertainty(ds, UncertaintySpec("labels", 0.4, 0.2, seed=4))
        assert sample_worlds(ad, 0, seed=0) == []

    def test_seed_determinism(self):
        ds = make_dataset(9, 2, seed=8)
        ad = inject_uncertainty(ds, UncertaintySpec("labels", 0.4, 0.2, seed=5))
        a = sample_worlds(ad, 5, seed=11)
        b = sample_worlds(ad, 5, seed=11)
        for (wa, Xa, ya), (wb, Xb, yb) in zip(a, b):
            assert wa.values.tolist() == wb.values.tolist()
            np.testing.assert_array_equal(ya, yb)

    def test_sampled_extremes_dominated_by_corners_label_only(self):
        # Weights are affine in the symbols for label uncertainty, so
        # predictions peak at corners; the loss is convex in the symbols, so
        # its max is at a corner too (its min may be interior).
        ds = make_dataset(10, 1, seed=9)
        ad = inject_uncertainty(ds, UncertaintySpec("labels", 0.3, 0.4, seed=6))
        lam = 0.05
        test_X, test_y = ds.X[:4], ds.y[:4]
        corners = oracle_ranges(ad, lam, test_X, test_y)
        sampled = oracle_ranges(ad, lam, test_X, test_y, strategy="uniform", samples=300, seed=7)
        assert sampled.loss_hi <= corners.loss_hi + 1e-9
        assert np.all(sampled.pred_lo >= corners.pred_lo - 1e-9)
        assert np.all(sampled.pred_hi <= corners.pred_hi + 1e-9)


class TestWorldAssignment:
    def test_cube_values_accepted(self):
        assert WorldAssignment(np.array([-1.0, 0.25, 1.0])).values[1] == 0.25
        assert WorldAssignment(np.empty(0)).values.size == 0

    @pytest.mark.parametrize("bad", [1.0 + 1e-12, -1.5, np.inf, -np.inf, np.nan])
    def test_values_outside_the_cube_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            WorldAssignment(np.array([0.5, bad, -0.5]))


    def test_records_hold_the_block_rows(self):
        # The oracles build their records without the constructor's check (the
        # block is checked once); each record's values are its row, bit for bit.
        ds = make_dataset(12, 2, seed=12)
        ad = inject_uncertainty(ds, UncertaintySpec("both", 0.25, 0.1, seed=10))
        for worlds, strategy, samples in [
            (sample_worlds(ad, 40, seed=3), "uniform", 40),
            (list(enumerate_worlds(ad, "grid", levels=2)), "grid", 0),
        ]:
            rows = oracle_ranges(ad, 0.1, ds.X[:2], ds.y[:2], strategy, 2, samples=samples, seed=3).values
            assert all(type(wa) is WorldAssignment for wa, _, _ in worlds)
            assert np.stack([wa.values for wa, _, _ in worlds]).tobytes() == rows.tobytes()
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            WorldAssignment(np.array([2.0]))


class TestOracleRanges:
    def test_certain_data_degenerate(self):
        ds = make_dataset(10, 2, seed=10)
        ad = inject_uncertainty(ds, UncertaintySpec("labels", 0.0, 0.1, seed=8))
        res = oracle_ranges(ad, 0.1, ds.X[:3], ds.y[:3])
        np.testing.assert_allclose(res.weight_lo, res.weight_hi)
        assert res.loss_lo == res.loss_hi

    def test_weights_one_row_per_world(self):
        ds = make_dataset(12, 2, seed=11)
        ad = inject_uncertainty(ds, UncertaintySpec("labels", 0.25, 0.3, seed=9))
        res = oracle_ranges(ad, 0.02, ds.X[:5], ds.y[:5])
        assert res.weights.shape == (res.n_worlds, ad.d) == (2 ** len(ad.split_symbols()), 3)

    def test_label_only_prediction_extremes_at_corners(self):
        ds = make_dataset(12, 2, seed=11)
        ad = inject_uncertainty(ds, UncertaintySpec("labels", 0.25, 0.3, seed=9))
        lam = 0.02
        res = oracle_ranges(ad, lam, ds.X[:5], ds.y[:5])
        sampled = oracle_ranges(ad, lam, ds.X[:5], ds.y[:5], strategy="uniform", samples=500, seed=10)
        assert np.all(sampled.pred_lo >= res.pred_lo - 1e-9)
        assert np.all(sampled.pred_hi <= res.pred_hi + 1e-9)


class TestIntervalRidgeLabels:
    def test_a_matrix_gives_each_row(self):
        ds = make_dataset(14, 2, seed=12)
        ad = inject_uncertainty(ds, UncertaintySpec("labels", 0.3, 0.4, seed=11))
        res = interval_ridge_labels(ds.X, ad.label_intervals(), 0.1)
        X = np.vstack([ds.X, -ds.X])
        lo, hi = res.predict_interval(X)
        assert lo.shape == hi.shape == (len(X),)
        for i, x in enumerate(X):
            one = res.predict_interval(x)
            assert all(type(v) is float for v in one)
            assert one == (lo[i], hi[i])

    def test_degenerate_matches_concrete(self):
        ds = make_dataset(14, 2, seed=12)
        lam = 0.1
        intervals = np.column_stack([ds.y, ds.y])
        res = interval_ridge_labels(ds.X, intervals, lam)
        w = ridge_concrete(ds.X, ds.y, lam)
        np.testing.assert_allclose(res.weight_lo, w, atol=1e-12)
        np.testing.assert_allclose(res.weight_hi, w, atol=1e-12)

    def test_contains_all_corner_weights(self):
        ds = make_dataset(10, 2, seed=13)
        ad = inject_uncertainty(ds, UncertaintySpec("labels", 0.3, 0.4, seed=11))
        lam = 0.05
        intervals = np.column_stack([ds.y, ds.y])
        for sid in ad.label_symbols():
            r, _ = ad.provenance[sid]
            lo, hi = ad.cell_interval(sid)
            intervals[r] = [lo, hi]
        res = interval_ridge_labels(ds.X, intervals, lam)
        for _, X, y in enumerate_worlds(ad):
            w = ridge_concrete(X, y, lam)
            assert np.all(w >= res.weight_lo - 1e-10)
            assert np.all(w <= res.weight_hi + 1e-10)


# -- One world at a time: the reference the array oracle must equal bit for bit.


def looped_materialize(ad, assignment):
    X = ad.X_R.copy()
    y = ad.y_R.copy()
    for sid, (r, c) in ad.provenance.items():
        delta = ad.cells.coef[sid] * assignment[sid]
        if c == LABEL_COL:
            y[r] += delta
        else:
            X[r, c] += delta
    return X, y


def looped_sample_worlds(ad, count, seed):
    syms = ad.data_symbols()
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        e = [float(rng.uniform(-1.0, 1.0)) for s in syms]
        out.append((WorldAssignment(np.array(e)), *looped_materialize(ad, e)))
    return out


def looped_enumerate_worlds(ad, strategy="corner", levels=3):
    """Every combination of points over the nonzero-coefficient symbols; the others at 0."""
    points = (-1.0, 1.0) if strategy == "corner" else tuple(np.linspace(-1.0, 1.0, levels))
    active = ad.split_symbols()
    for combo in iter_product(points, repeat=len(active)):
        e = {s: 0.0 for s in ad.data_symbols()}
        e.update(zip(active, (float(v) for v in combo)))
        row = np.array([e[s] for s in ad.data_symbols()])
        yield (WorldAssignment(row), *looped_materialize(ad, e))


def looped_ridge(X, y, lam):
    n, d = X.shape
    gram = X.T @ X + lam * n * np.eye(d)
    if lam == 0.0 and np.linalg.cond(gram) > 1e13:
        raise np.linalg.LinAlgError("X'X is singular at lambda = 0; need full column rank")
    return np.linalg.solve(gram, X.T @ y)


def looped_loss(X, y, w, lam):
    resid = X @ w - y
    return float(resid @ resid) / X.shape[0] + lam * float(w @ w)


def looped_oracle_ranges(worlds, lam, test_X, test_y):
    weights = [looped_ridge(X, y, lam) for _, X, y in worlds]
    preds = np.array([test_X @ w for w in weights])
    losses = [looped_loss(test_X, test_y, w, lam) for w in weights]
    return weights, preds.min(axis=0), preds.max(axis=0), min(losses), max(losses)


def assert_same_worlds(worlds, reference):
    assert len(worlds) == len(reference)
    for (wa, X, y), (wa_ref, X_ref, y_ref) in zip(worlds, reference):
        assert wa.values.tobytes() == wa_ref.values.tobytes() and wa.values.shape == wa_ref.values.shape
        assert X.tobytes() == X_ref.tobytes() and X.shape == X_ref.shape
        assert y.tobytes() == y_ref.tobytes() and y.shape == y_ref.shape


def world_case(kind, seed):
    """A small abstract dataset of each kind the oracle sees: 6-9 rows, 2-3 columns.

    ``zero`` makes every other symbol inert (a point interval), ``none``
    has no symbols; every kind has at most 6 symbols.
    """
    rng = np.random.default_rng(seed)
    n, d_feat = int(rng.integers(6, 10)), int(rng.integers(1, 3))
    ds = make_dataset(n, d_feat, seed)
    if kind == "missing":
        X, y = ds.X.copy(), ds.y.copy()
        X[rng.integers(0, n, 3), rng.integers(1, d_feat + 1, 3)] = np.nan
        y[rng.integers(0, n)] = np.nan
        ranges = {c: (-1.0, 2.0) for c in ds.columns[1:]}
        ranges["label"] = (float(np.nanmin(y)), float(np.nanmax(y)))
        return abstract_missing(Dataset(X=X, y=y, columns=ds.columns), ranges)
    target = "both" if kind in ("zero", "none") else kind
    share = 0.0 if kind == "none" else 0.2
    ad = inject_uncertainty(ds, UncertaintySpec(target, share, 0.2, seed=seed))
    if kind == "zero":
        for sid in ad.data_symbols()[::2]:
            ad.cells.coef[sid] = 0.0
    return ad


WORLD_KINDS = ("labels", "features", "both", "missing", "zero", "none")


class TestWorldsMatchTheLoop:
    @pytest.mark.parametrize("kind", WORLD_KINDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_sample_worlds(self, kind, seed):
        ad = world_case(kind, seed)
        for count in (0, 1, 17):
            assert_same_worlds(sample_worlds(ad, count, seed), looped_sample_worlds(ad, count, seed))

    @pytest.mark.parametrize("kind", WORLD_KINDS)
    @pytest.mark.parametrize("strategy,levels", [("corner", 3), ("grid", 3), ("grid", 4)])
    def test_enumerate_worlds(self, kind, strategy, levels):
        ad = world_case(kind, 0)
        worlds = list(enumerate_worlds(ad, strategy, levels=levels, budget=4096))
        assert_same_worlds(worlds, list(looped_enumerate_worlds(ad, strategy, levels)))

    @pytest.mark.parametrize("kind", WORLD_KINDS)
    def test_enumerate_worlds_in_small_blocks(self, kind, monkeypatch):
        ad = world_case(kind, 1)
        reference = list(enumerate_worlds(ad, budget=4096))
        monkeypatch.setattr(learning, "CHUNK_ELEMENTS", 3 * ad.n * ad.d)
        assert_same_worlds(list(enumerate_worlds(ad, budget=4096)), reference)

    @pytest.mark.parametrize("kind", WORLD_KINDS)
    def test_materialize(self, kind):
        ad = world_case(kind, 2)
        rng = np.random.default_rng(5)
        e = [float(rng.uniform(-1.0, 1.0)) for s in ad.data_symbols()]
        X, y = ad.materialize_batch(np.array([e]))
        for got, want in zip((X[0], y[0]), looped_materialize(ad, e)):
            assert got.tobytes() == want.tobytes() and got.shape == want.shape

    def test_shared_cell_adds_symbols_in_provenance_order(self):
        reg = SymbolRegistry()
        c, a, b = reg.new_symbols(3, SymbolKind.DATA)
        ad = AbstractDataset(
            X_R=np.array([[1.0, 0.1], [1.0, -0.7]]), y_R=np.array([0.1, 0.2]),
            registry=reg, cells=cell_table(
                {c: (0, 1), a: (0, 1), b: (1, LABEL_COL)}, {a: 0.3, b: 0.7, c: 0.4}
            ),
        )
        e = {a: 0.5, b: -1.0, c: 0.5}
        # The two orders of adding c's and a's deltas differ in the last bit.
        X, y = ad.materialize_batch(np.array([[e[s] for s in ad.data_symbols()]]))
        assert X[0, 0, 1] == (0.1 + 0.4 * 0.5) + 0.3 * 0.5 != (0.1 + 0.3 * 0.5) + 0.4 * 0.5
        for got, want in zip((X[0], y[0]), looped_materialize(ad, e)):
            assert got.tobytes() == want.tobytes()
        assert_same_worlds(sample_worlds(ad, 9, 3), looped_sample_worlds(ad, 9, 3))

    def test_materialize_needs_every_symbol(self):
        ad = world_case("labels", 0)
        with pytest.raises(ShapeMismatchError):
            ad.materialize_batch(np.empty((1, 0)))


class TestZeroCoefficientSymbols:
    def test_inert_symbols_held_at_zero_and_not_counted(self):
        ds = make_dataset(40, 2, seed=20)
        ad = inject_uncertainty(ds, UncertaintySpec("both", 0.5, 0.0, seed=21))
        assert len(ad.data_symbols()) == 60 and ad.split_symbols() == []
        worlds = list(enumerate_worlds(ad, budget=1))
        assert len(worlds) == 1
        wa, X, y = worlds[0]
        assert set(wa.values.tolist()) == {0.0}
        np.testing.assert_array_equal(X, ds.X)
        np.testing.assert_array_equal(y, ds.y)

    def test_same_distinct_worlds_as_every_symbol(self):
        ad = world_case("zero", 3)
        every = {
            (X.tobytes(), y.tobytes())
            for combo in iter_product((-1.0, 1.0), repeat=len(ad.data_symbols()))
            for X, y in [looped_materialize(ad, dict(zip(ad.data_symbols(), combo)))]
        }
        active = list(enumerate_worlds(ad))
        assert len(active) == 2 ** len(ad.split_symbols()) < 2 ** len(ad.data_symbols())
        assert {(X.tobytes(), y.tobytes()) for _, X, y in active} == every

    def test_budget_counts_only_active_symbols(self):
        ad = world_case("zero", 3)
        s = len(ad.split_symbols())
        assert len(list(enumerate_worlds(ad, budget=2**s))) == 2**s
        with pytest.raises(BudgetExceededError):
            list(enumerate_worlds(ad, budget=2**s - 1))


class TestStackedTraining:
    @pytest.mark.parametrize("lam", [0.0, 0.01, 1.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_stack_equals_each_world(self, lam, seed):
        rng = np.random.default_rng(seed)
        W, n, d = int(rng.integers(1, 20)), int(rng.integers(8, 600)), int(rng.integers(1, 9))
        X = rng.standard_normal((W, n, d))
        y = rng.standard_normal((W, n))
        stacked = ridge_concrete(X, y, lam)
        assert stacked.shape == (W, d)
        for i in range(W):
            Xi, yi = X[i].copy(), y[i].copy()
            assert ridge_concrete(Xi, yi, lam).tobytes() == looped_ridge(Xi, yi, lam).tobytes()
            assert stacked[i].tobytes() == looped_ridge(Xi, yi, lam).tobytes()

    def test_rank_deficient_world_at_lambda_zero_raises(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((5, 30, 3))
        y = rng.standard_normal((5, 30))
        # Nearly, not exactly, collinear: only the rank check refuses it.
        X[3, :, 2] = X[3, :, 1] + 1e-9 * rng.standard_normal(30)
        assert np.isfinite(np.linalg.solve(X[3].T @ X[3], X[3].T @ y[3])).all()
        with pytest.raises(np.linalg.LinAlgError):
            ridge_concrete(X, y, 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            looped_ridge(X[3], y[3], 0.0)
        ridge_concrete(X, y, 0.01)

    @pytest.mark.parametrize("lam", [0.3, 0.0])
    def test_stacked_loss_equals_each_world(self, lam):
        rng = np.random.default_rng(4)
        X, y = rng.standard_normal((50, 4)), rng.standard_normal(50)
        w = rng.standard_normal((9, 4))
        losses = concrete_loss(X, y, w, lam)
        for i in range(len(w)):
            one = concrete_loss(X, y, w[i], lam)
            assert isinstance(one, float)
            assert one == losses[i] == looped_loss(X, y, w[i], lam)

    @staticmethod
    def spy_on_training(monkeypatch) -> list[int]:
        """The size of every block ``oracle_ranges`` trains, in order."""
        sizes = []

        def spy(X, y, lam):
            sizes.append(len(X))
            return ridge_concrete(X, y, lam)

        monkeypatch.setattr(oracles, "ridge_concrete", spy)
        return sizes

    @pytest.mark.parametrize("strategy", ["corner", "uniform"])
    def test_oracle_ranges_keeps_the_worlds_in_order(self, strategy, monkeypatch):
        ad = world_case("both", 1)
        test_X, test_y = ad.X_R[:4], ad.y_R[:4]
        if strategy == "uniform":
            worlds = sample_worlds(ad, 23, 8)
        else:
            worlds = list(enumerate_worlds(ad))
        default = oracle_ranges(ad, 0.1, test_X, test_y, strategy, samples=23, seed=8)
        monkeypatch.setattr(learning, "CHUNK_ELEMENTS", 5 * ad.n * ad.d)
        sizes = self.spy_on_training(monkeypatch)
        res = oracle_ranges(ad, 0.1, test_X, test_y, strategy, samples=23, seed=8)
        assert max(sizes) == 5 and sum(sizes) == len(worlds) == res.n_worlds
        assert res.values.shape == (len(worlds), len(ad.cells.coef))
        for row, w, loss, (wa, X, y) in zip(res.values, res.weights, res.losses, worlds):
            assert row.tolist() == wa.values.tolist()
            assert w.tobytes() == looped_ridge(X, y, 0.1).tobytes()
            assert loss == looped_loss(test_X, test_y, w, 0.1)
        for field in ("values", "weights", "losses", "pred_lo", "pred_hi"):
            assert getattr(res, field).tobytes() == getattr(default, field).tobytes()

    def test_oracle_ranges_refuses_the_budget_at_the_call(self, monkeypatch):
        ad = world_case("both", 1)
        s = len(ad.split_symbols())
        sizes = self.spy_on_training(monkeypatch)
        # No world trained: callers choose their worlds on this error.
        with pytest.raises(BudgetExceededError):
            oracle_ranges(ad, 0.1, ad.X_R, ad.y_R, "corner", budget=2**s - 1)
        assert sizes == []
        assert oracle_ranges(ad, 0.1, ad.X_R, ad.y_R, "corner", budget=2**s).n_worlds == 2**s
        assert sum(sizes) == 2**s


class TestOracleRangesMatchTheLoop:
    @pytest.mark.parametrize("kind", ["labels", "both", "missing", "zero"])
    @pytest.mark.parametrize("strategy", ["corner", "grid", "uniform"])
    def test_equals_the_loop(self, kind, strategy):
        ad = world_case(kind, 0)
        rng = np.random.default_rng(1)
        test_X = np.column_stack([np.ones(7), rng.uniform(-1, 2, (7, ad.d - 1))])
        test_y = rng.standard_normal(7)
        if strategy == "uniform":
            worlds = looped_sample_worlds(ad, 40, 6)
        else:
            worlds = list(looped_enumerate_worlds(ad, strategy))
        res = oracle_ranges(ad, 0.05, test_X, test_y, strategy, samples=40, seed=6, budget=4096)
        weights, pred_lo, pred_hi, loss_lo, loss_hi = looped_oracle_ranges(worlds, 0.05, test_X, test_y)
        assert res.n_worlds == len(worlds)
        assert np.array_equal(np.array(res.weights), np.array(weights))
        assert res.pred_lo.tobytes() == pred_lo.tobytes()
        assert res.pred_hi.tobytes() == pred_hi.tobytes()
        assert (res.loss_lo, res.loss_hi) == (loss_lo, loss_hi)

    def test_block_size_does_not_change_results(self, monkeypatch):
        ad = world_case("both", 2)
        test_X, test_y = ad.X_R[:5], ad.y_R[:5]

        def run():
            res = oracle_ranges(ad, 0.02, test_X, test_y)
            return (
                np.array(res.weights).tobytes(), res.weight_lo.tobytes(), res.weight_hi.tobytes(),
                res.pred_lo.tobytes(), res.pred_hi.tobytes(), res.loss_lo, res.loss_hi, res.n_worlds,
            )

        default = run()
        for worlds in (1, 7):
            monkeypatch.setattr(learning, "CHUNK_ELEMENTS", worlds * ad.n * ad.d)
            assert run() == default

    def test_no_worlds_is_an_error(self):
        ad = world_case("labels", 0)
        with pytest.raises(DataError):
            oracle_ranges(ad, 0.1, ad.X_R[:2], ad.y_R[:2], strategy="uniform", samples=0)

    def test_peak_memory_of_4096_corners_stays_blocked(self):
        ds = make_dataset(1000, 2, seed=30)
        ad = inject_uncertainty(ds, UncertaintySpec("labels", 0.012, 0.1, seed=31))
        assert len(ad.split_symbols()) == 12
        test_X, test_y = ds.X[:200], ds.y[:200]
        tracemalloc.start()
        try:
            res = oracle_ranges(ad, 0.01, test_X, test_y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.n_worlds == 4096
        # All 4096 worlds at once would take 4096 * 1000 * 3 * 8 B = 98 MB.
        assert peak < 4 * 2**20


@pytest.mark.parametrize("refuse, error, message", [
    (lambda ad: list(enumerate_worlds(ad, "uniform")), ValueError,
     "enumerate_worlds does not support strategy 'uniform'"),
    (lambda ad: oracle_ranges(ad, 0.1, ad.X_R, ad.y_R, strategy="bogus"), ValueError,
     "unknown world strategy 'bogus'"),
    (lambda ad: interval_ridge_labels(ad.X_R, ad.label_intervals()[:, :1], 0.1), DataError,
     "y_intervals must be (n, 2), got (6, 1)"),
    (lambda ad: interval_ridge_labels(ad.X_R, ad.label_intervals()[:, ::-1], 0.1), DataError,
     "label intervals must satisfy lo <= hi"),
    (lambda ad: interval_ridge_labels(np.column_stack([ad.X_R, ad.X_R[:, 1]]),
                                      ad.label_intervals(), 0.0),
     np.linalg.LinAlgError, "X'X is singular at lambda = 0; need full column rank"),
    (lambda ad: oracle_ranges(ad, 0.1, ad.X_R, ad.y_R[:, None]), ShapeMismatchError,
     "test y must be (6,), got (6, 1)"),
    (lambda ad: oracle_ranges(ad, 0.1, ad.X_R, ad.y_R[:5]), ShapeMismatchError,
     "test y must be (6,), got (5,)"),
    (lambda ad: oracle_ranges(ad, 0.1, ad.X_R[0], ad.y_R[:1]), ShapeMismatchError,
     "test set must be a nonempty 2-d array"),
    (lambda ad: oracle_ranges(ad, 0.1, ad.X_R[:, :1], ad.y_R), ShapeMismatchError,
     "test set must be (n, 2)"),
    (lambda ad: oracle_ranges(ad, 0.1, ad.X_R[:0], ad.y_R[:0]), ShapeMismatchError,
     "test set must be a nonempty 2-d array"),
    (lambda ad: concrete_loss(ad.X_R[:0], ad.y_R[:0], np.zeros(2), 0.1), ShapeMismatchError,
     "test set must be a nonempty 2-d array"),
    (lambda ad: sample_worlds(ad, -3, 0), ValueError, "cannot sample -3 worlds"),
], ids=["unknown-strategy", "oracle-unknown-strategy", "interval-shape", "reversed-interval", "rank-deficient",
        "oracle-y-column", "oracle-row-counts", "oracle-X-1d", "oracle-X-width", "oracle-empty",
        "loss-empty", "negative-count"])
def test_refusals(refuse, error, message):
    ad = inject_uncertainty(make_dataset(6, 1, seed=8), UncertaintySpec("labels", 0.5, 0.2, seed=1))
    with pytest.raises(error) as exc:
        refuse(ad)
    assert type(exc.value) is error and str(exc.value) == message
