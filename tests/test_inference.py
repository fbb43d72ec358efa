import numpy as np
import pytest

from form_algebra import PolyForm, ZVector
from zonoridge.dataset import LABEL_COL, AbstractDataset, Dataset, UncertaintySpec, inject_uncertainty
from zonoridge.errors import RegistryMismatchError, ShapeMismatchError
from zonoridge.inference import (
    LossInterval,
    PredictionInterval,
    certify_robustness,
    loss_interval,
    parameter_intervals,
    predict_interval,
    predict_interval_uncertain,
)
from zonoridge.learning import AbstractWeights, RidgeConfig, fixed_point
from zonoridge.oracles import concrete_loss, enumerate_worlds, oracle_ranges, ridge_concrete, sample_worlds
from zonoridge.symbols import SymbolKind, SymbolRegistry


def make_dataset(n, d_feat, seed):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.uniform(-1, 2, size=(n, d_feat))])
    y = X @ rng.uniform(-2, 2, size=d_feat + 1) + 0.1 * rng.standard_normal(n)
    return Dataset(X=X, y=y, columns=["bias"] + [f"f{i}" for i in range(d_feat)])


def trained(ds, spec, lam):
    ad = inject_uncertainty(ds, spec)
    weights, diag = fixed_point(ad, RidgeConfig(lam=lam))
    return ad, weights, diag


class TestPredictInterval:
    def test_certain_data_degenerate(self):
        ds = make_dataset(10, 2, seed=0)
        _, weights, _ = trained(ds, UncertaintySpec("labels", 0.0, 0.1, seed=1), 0.1)
        x = ds.X[0]
        p = predict_interval(x, weights)
        assert p.lo == pytest.approx(p.hi)
        assert p.lo == pytest.approx(float(x @ weights.w_R))

    def test_single_symbol_weight(self):
        # w = eps over one feature, x = 1 -> [-1, 1]
        from zonoridge.learning import AbstractWeights

        reg = SymbolRegistry()
        sid = reg.new_symbol(SymbolKind.DATA)
        weights = AbstractWeights(
            w_R=np.zeros(1), G_D=np.array([[1.0]]), data_ids=np.array([sid]), k=np.zeros(1),
            A=np.eye(1), A_inv=np.eye(1), registry=reg,
        )
        p = predict_interval(np.array([1.0]), weights)
        assert (p.lo, p.hi) == (-1.0, 1.0)

    def test_label_only_matches_corner_oracle(self):
        for seed in range(10):
            ds = make_dataset(12, 2, seed=100 + seed)
            spec = UncertaintySpec("labels", 0.25, 0.3, seed=seed)
            ad, weights, _ = trained(ds, spec, lam=0.03)
            res = oracle_ranges(ad, 0.03, ds.X[:5], ds.y[:5])
            for i in range(5):
                p = predict_interval(ds.X[i], weights)
                assert p.lo == pytest.approx(res.pred_lo[i], rel=1e-9, abs=1e-9)
                assert p.hi == pytest.approx(res.pred_hi[i], rel=1e-9, abs=1e-9)


class TestPredictionIntervalType:
    @pytest.mark.parametrize("interval", [PredictionInterval, LossInterval],
                             ids=lambda cls: cls.__name__)
    def test_contract(self, interval):
        p = interval(1.0, 2.5)
        assert (p.lo, p.hi, p.width) == (1.0, 2.5, 1.5)
        assert repr(p) == f"{interval.__name__}(lo=1.0, hi=2.5)"
        assert p == interval(1.0, 2.5) and p != interval(1.0, 2.0)
        assert hash(p) == hash(interval(1.0, 2.5))
        assert len({p, interval(1.0, 2.5)}) == 1
        lo, hi = p  # a (lo, hi) tuple
        assert p == (lo, hi) == (1.0, 2.5)
        assert interval(3.0, 3.0).width == 0.0
        with pytest.raises(ValueError, match="interval requires lo <= hi"):
            interval(2.0, 1.0)
        for name in ("lo", "hi", "width", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, 0.0)
        assert p == (1.0, 2.5)


class TestPredictIntervalUncertain:
    @pytest.mark.parametrize("target", ["labels", "features", "both"])
    def test_registry_symbols_after_a_fit_share_no_data_symbol(self, target):
        # Symbols taken from the weights' registry after a fit are new: the
        # point's range is that of a point over ids no registry handed out.
        ds = make_dataset(12, 2, seed=9)
        ad, weights, _ = trained(ds, UncertaintySpec(target, 0.25, 0.1, seed=10), lam=0.5)
        assert len(weights.data_ids) > 1
        reg = weights.registry
        x = ds.X[0]

        def point(ids):
            entries = [PolyForm(reg, x[0])]
            gens = zip((1, 2), ids, (0.1, -0.1))
            entries += [PolyForm(reg, x[j], {(sid,): g}) for j, sid, g in gens]
            return predict_interval_uncertain(ZVector(reg, entries), weights)

        sids = reg.new_symbols(2, SymbolKind.DATA)
        assert min(sids) >= len(ad.cells.coef)
        far = [10**9, 10**9 + 1]
        assert point(sids) == point(far)
        # Naming the data symbols instead shares their cells' uncertainty.
        assert point(weights.data_ids[:2].tolist()) != point(far)

    def test_degenerate_point_matches_concrete(self):
        ds = make_dataset(10, 2, seed=2)
        _, weights, _ = trained(ds, UncertaintySpec("labels", 0.3, 0.2, seed=3), 0.05)
        x = ds.X[1]
        xz = ZVector.from_real(weights.registry, x)
        a = predict_interval_uncertain(xz, weights)
        b = predict_interval(x, weights)
        assert a.lo == pytest.approx(b.lo, rel=1e-12)
        assert a.hi == pytest.approx(b.hi, rel=1e-12)

    def test_affine_point_certain_model(self):
        # x = c + g*eps against a certain model w: [c.w - |g.w|, c.w + |g.w|]
        ds = make_dataset(10, 2, seed=4)
        _, weights, _ = trained(ds, UncertaintySpec("labels", 0.0, 0.0, seed=5), 0.1)
        reg = weights.registry
        sid = reg.new_symbol(SymbolKind.DATA)
        c = np.array([1.0, 0.5, -1.0])
        g = np.array([0.0, 0.2, 0.4])
        entries = [PolyForm(reg, c[j], {(sid,): g[j]} if g[j] else None) for j in range(3)]
        p = predict_interval_uncertain(ZVector(reg, entries), weights)
        center = float(c @ weights.w_R)
        rad = abs(float(g @ weights.w_R))
        assert p.lo == pytest.approx(center - rad, rel=1e-12)
        assert p.hi == pytest.approx(center + rad, rel=1e-12)

    def test_contains_sampled_products(self):
        ds = make_dataset(12, 2, seed=6)
        spec = UncertaintySpec("features", 0.25, 0.1, seed=7)
        ad, weights, _ = trained(ds, spec, lam=0.05)
        reg = weights.registry
        sid = reg.new_symbol(SymbolKind.DATA)
        c = np.array([1.0, 0.3, 0.8])
        g = np.array([0.0, 0.15, 0.1])
        entries = [PolyForm(reg, c[j], {(sid,): g[j]} if g[j] else None) for j in range(3)]
        p = predict_interval_uncertain(ZVector(reg, entries), weights)
        rng = np.random.default_rng(8)
        syms = ad.data_symbols()
        for _ in range(300):
            e = {s: float(rng.uniform(-1, 1)) for s in syms}
            e[sid] = float(rng.uniform(-1, 1))
            (X,), (y,) = ad.materialize_batch([[e[s] for s in syms]])
            w_star = ridge_concrete(X, y, 0.05)
            x_point = c + g * e[sid]
            val = float(x_point @ w_star)
            assert p.lo - 1e-9 <= val <= p.hi + 1e-9

    @pytest.mark.parametrize("radius", [float("nan"), float("inf")])
    def test_non_finite_radius_is_refused(self, radius):
        ds = make_dataset(10, 2, seed=2)
        _, weights, _ = trained(ds, UncertaintySpec("labels", 0.3, 0.2, seed=3), 0.05)
        reg = weights.registry
        sid = reg.new_symbol(SymbolKind.DATA)
        with pytest.raises(ValueError, match="finite"):
            ZVector(reg, [PolyForm(reg, v, {(sid,): radius}) for v in ds.X[1]])


class TestCertifyRobustness:
    def test_certain_data_fully_robust(self):
        ds = make_dataset(10, 2, seed=9)
        _, weights, _ = trained(ds, UncertaintySpec("labels", 0.0, 0.1, seed=10), 0.1)
        rep = certify_robustness(ds.X, weights, threshold=1e-6)
        assert rep.ratio == 1.0

    def test_zonotope_dominates_baseline_label_only(self):
        from zonoridge.oracles import interval_ridge_labels

        ds = make_dataset(16, 2, seed=11)
        spec = UncertaintySpec("labels", 0.25, 0.3, seed=12)
        ad, weights, _ = trained(ds, spec, lam=0.04)
        intervals = np.column_stack([ds.y, ds.y])
        for sid in ad.label_symbols():
            r, _ = ad.provenance[sid]
            intervals[r] = ad.cell_interval(sid)
        baseline = interval_ridge_labels(ds.X, intervals, 0.04)
        for row in ds.X:
            z = predict_interval(row, weights)
            b_lo, b_hi = baseline.predict_interval(row)
            assert z.width <= (b_hi - b_lo) + 1e-12

    def test_per_point_is_predict_interval_when_the_arithmetic_is_exact(self):
        # Dyadic weights and points: every product and sum is exact, so the
        # batched and the one-point arithmetic agree bit for bit.
        reg = SymbolRegistry()
        weights = AbstractWeights(
            w_R=np.array([0.5, -1.25, 2.0]),
            G_D=np.array([[0.25, 0.5, -0.125], [-0.75, 0.0, 0.375]]),
            data_ids=np.array(reg.new_symbols(2, SymbolKind.DATA)),
            k=np.array([0.5, 0.0, 0.25]), A=np.eye(3), A_inv=np.eye(3), registry=reg,
        )
        X = np.random.default_rng(42).integers(-8, 9, size=(37, 3)) / 4.0
        intervals = [predict_interval(x, weights) for x in X]
        threshold = sorted(p.width for p in intervals)[18]
        rep = certify_robustness(X, weights, threshold)
        assert [p for p, _ in rep.per_point] == intervals
        assert [f for _, f in rep.per_point] == [p.width < threshold for p in intervals]
        assert rep.ratio == sum(p.width < threshold for p in intervals) / len(X)

    def test_flags_and_ratio_are_exact(self):
        ds = make_dataset(20, 2, seed=40)
        _, weights, _ = trained(ds, UncertaintySpec("both", 0.3, 0.1, seed=41), 0.05)
        widths = sorted(p.width for p, _ in certify_robustness(ds.X, weights, 1.0).per_point)
        threshold = widths[len(widths) // 2]  # the median point's width: not certified
        rep = certify_robustness(ds.X, weights, threshold)
        flags = [certified for _, certified in rep.per_point]
        assert flags == [p.width < threshold for p, _ in rep.per_point]
        assert False in flags and True in flags
        assert not any(f for p, f in rep.per_point if p.width == threshold)
        assert rep.ratio == sum(flags) / len(flags)
        assert all(type(p) is PredictionInterval and type(f) is bool for p, f in rep.per_point)
        # One point alone runs other BLAS kernels than the batch (a dot or a
        # matrix-vector product instead of a matrix product), so the last
        # bits may differ.
        for (p, _), x in zip(rep.per_point, ds.X):
            assert p == pytest.approx(predict_interval(x, weights), rel=1e-14)

    @pytest.mark.parametrize("threshold", [float("nan"), 0.0, -1.0])
    def test_threshold_must_be_positive(self, threshold):
        ds = make_dataset(10, 2, seed=13)
        _, weights, _ = trained(ds, UncertaintySpec("labels", 0.2, 0.1, seed=14), 0.1)
        with pytest.raises(ValueError, match="threshold"):
            certify_robustness(ds.X, weights, threshold)

    def test_empty_test_set_rejected(self):
        ds = make_dataset(10, 2, seed=13)
        _, weights, _ = trained(ds, UncertaintySpec("labels", 0.0, 0.1, seed=14), 0.1)
        with pytest.raises(Exception):
            certify_robustness(np.empty((0, 3)), weights, 0.5)

    def test_dimension_mismatch_rejected(self):
        from zonoridge.errors import ShapeMismatchError

        ds = make_dataset(10, 2, seed=13)
        _, weights, _ = trained(ds, UncertaintySpec("labels", 0.0, 0.1, seed=14), 0.1)
        with pytest.raises(ShapeMismatchError):
            predict_interval(np.ones(5), weights)
        with pytest.raises(ShapeMismatchError):
            loss_interval(np.ones((3, 5)), np.ones(3), weights, 0.1)

    def test_loss_of_empty_test_set_rejected(self):
        from zonoridge.errors import ShapeMismatchError

        ds = make_dataset(10, 2, seed=13)
        _, weights, _ = trained(ds, UncertaintySpec("labels", 0.2, 0.1, seed=14), 0.1)
        # Not the range of the lam w'w term alone.
        with pytest.raises(ShapeMismatchError, match="test set must be a nonempty 2-d array"):
            loss_interval(np.empty((0, 3)), np.empty(0), weights, 0.1)


class TestLossInterval:
    def test_certain_weights_point_loss(self):
        ds = make_dataset(10, 2, seed=15)
        _, weights, _ = trained(ds, UncertaintySpec("labels", 0.0, 0.1, seed=16), 0.1)
        li = loss_interval(ds.X, ds.y, weights, 0.1)
        point = concrete_loss(ds.X, ds.y, weights.w_R, 0.1)
        assert li.lo == pytest.approx(point, rel=1e-9)
        assert li.hi == pytest.approx(point, rel=1e-9)

    @pytest.mark.parametrize("lam", [0.01, 0.1, 0.3, 1.0])
    def test_no_width_is_one_point(self, lam):
        # With no uncertain cell the structural lower end and the center are
        # the same sums.  When the lam term of one was rounded in another
        # form, seeds 4 and 5 put the lower end an ulp above the upper one.
        for seed in range(12):
            rng = np.random.default_rng(seed)
            X = np.column_stack([np.ones(40), rng.standard_normal((40, 3))])
            y = X @ rng.standard_normal(4) + 0.1 * rng.standard_normal(40)
            ds = Dataset(X=X, y=y, columns=["bias", "a", "b", "c"])
            _, weights, _ = trained(ds, UncertaintySpec("labels", 0.0, 0.1, seed=seed), lam)
            li = loss_interval(X[:10], y[:10], weights, lam)
            assert li.lo == li.hi

    @pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
    def test_ridge_rejects_invalid_lam(self, lam):
        ds = make_dataset(10, 2, seed=15)
        _, weights, _ = trained(ds, UncertaintySpec("both", 0.3, 0.1, seed=16), 0.1)
        with pytest.raises(ValueError, match="lam"):
            loss_interval(ds.X, ds.y, weights, lam)

    def test_pure_square_hand_case(self):
        # d=1, w = eps, X=[[1]], y=[0], lam=0: loss = eps^2 -> clamped [0, 1]
        from zonoridge.learning import AbstractWeights

        reg = SymbolRegistry()
        sid = reg.new_symbol(SymbolKind.DATA)
        weights = AbstractWeights(
            w_R=np.zeros(1), G_D=np.array([[1.0]]), data_ids=np.array([sid]), k=np.zeros(1),
            A=np.eye(1), A_inv=np.eye(1), registry=reg,
        )
        li = loss_interval(np.array([[1.0]]), np.array([0.0]), weights, 0.0)
        assert (li.lo, li.hi) == (0.0, 1.0)

    def test_enumeration_contained_on_random_instances(self):
        for seed in range(10):
            ds = make_dataset(10, 2, seed=200 + seed)
            spec = UncertaintySpec("both", 0.2, 0.08, seed=seed)
            ad, weights, _ = trained(ds, spec, lam=0.05)
            test_X, test_y = ds.X[:4], ds.y[:4]
            li = loss_interval(test_X, test_y, weights, 0.05)
            gt = oracle_ranges(ad, 0.05, test_X, test_y, strategy="grid", levels=3, budget=100_000)
            assert gt.loss_lo >= li.lo - 1e-9
            assert gt.loss_hi <= li.hi + 1e-9
            # At lam = 0 the range is the MSE's, of the worlds trained at 0.05.
            mse = loss_interval(test_X, test_y, weights, 0.0)
            w_stars = np.array([ridge_concrete(X, y, 0.05) for _, X, y in sample_worlds(ad, 32, seed)])
            losses = concrete_loss(test_X, test_y, w_stars, 0.0)
            assert np.all((mse.lo - 1e-9 <= losses) & (losses <= mse.hi + 1e-9))

    def test_aggregate_before_concretize_not_wider(self):
        for seed in range(5):
            ds = make_dataset(10, 2, seed=300 + seed)
            spec = UncertaintySpec("labels", 0.3, 0.25, seed=seed)
            ad, weights, _ = trained(ds, spec, lam=0.07)
            test_X, test_y = ds.X[:5], ds.y[:5]
            li = loss_interval(test_X, test_y, weights, 0.07)
            # Interval-arithmetic recombination of per-point intervals.
            n = test_X.shape[0]
            lo_sum, hi_sum = 0.0, 0.0
            for i in range(n):
                p = predict_interval(test_X[i], weights)
                rlo, rhi = p.lo - test_y[i], p.hi - test_y[i]
                if rlo <= 0.0 <= rhi:
                    sq_lo, sq_hi = 0.0, max(rlo**2, rhi**2)
                else:
                    sq_lo = min(rlo**2, rhi**2)
                    sq_hi = max(rlo**2, rhi**2)
                lo_sum += sq_lo / n
                hi_sum += sq_hi / n
            pi = parameter_intervals(weights)
            for j in range(weights.dim):
                wlo, whi = pi.lo[j], pi.hi[j]
                if wlo <= 0.0 <= whi:
                    sq_lo, sq_hi = 0.0, max(wlo**2, whi**2)
                else:
                    sq_lo = min(wlo**2, whi**2)
                    sq_hi = max(wlo**2, whi**2)
                lo_sum += 0.07 * sq_lo
                hi_sum += 0.07 * sq_hi
            assert li.lo >= lo_sum - 1e-9
            assert li.hi <= hi_sum + 1e-9

    def test_monotone_in_radius(self):
        # Scaling every data-symbol coefficient up (same seed, larger
        # radius) must not shrink any reported interval.
        ds = make_dataset(12, 2, seed=17)
        intervals = []
        pred_widths = []
        param_widths = []
        for radius in (0.02, 0.05, 0.1, 0.15):
            spec = UncertaintySpec("both", 0.2, radius, seed=18)
            ad, weights, diag = trained(ds, spec, lam=0.05)
            assert diag.splits_used == 1
            intervals.append(loss_interval(ds.X[:5], ds.y[:5], weights, 0.05))
            pred_widths.append([predict_interval(x, weights).width for x in ds.X[:5]])
            pi = parameter_intervals(weights)
            param_widths.append(pi.hi - pi.lo)
        for a, b in zip(intervals, intervals[1:]):
            assert b.lo <= a.lo + 1e-12 and b.hi >= a.hi - 1e-12
        for a, b in zip(pred_widths, pred_widths[1:]):
            assert all(x <= y + 1e-12 for x, y in zip(a, b))
        for a, b in zip(param_widths, param_widths[1:]):
            assert np.all(a <= b + 1e-12)


class TestParameterIntervals:
    def test_certain_data_degenerate(self):
        ds = make_dataset(10, 2, seed=19)
        _, weights, _ = trained(ds, UncertaintySpec("labels", 0.0, 0.1, seed=20), 0.1)
        pi = parameter_intervals(weights)
        np.testing.assert_allclose(pi.lo, weights.w_R, atol=1e-12)
        np.testing.assert_allclose(pi.hi, weights.w_R, atol=1e-12)

    def test_straddling_zero_flagged(self):
        from zonoridge.learning import AbstractWeights

        reg = SymbolRegistry()
        sid = reg.new_symbol(SymbolKind.DATA)
        weights = AbstractWeights(
            w_R=np.array([0.1, 5.0]), G_D=np.array([[1.0, 0.5]]), data_ids=np.array([sid]),
            k=np.zeros(2), A=np.eye(2), A_inv=np.eye(2), registry=reg,
        )
        pi = parameter_intervals(weights)
        assert pi.inconclusive_direction(0)
        assert not pi.inconclusive_direction(1)

    def test_sampled_world_weights_inside(self):
        ds = make_dataset(12, 3, seed=21)
        spec = UncertaintySpec("both", 0.25, 0.1, seed=22)
        ad, weights, _ = trained(ds, spec, lam=0.05)
        pi = parameter_intervals(weights)
        for wa, X, y in sample_worlds(ad, 200, seed=23):
            w_star = ridge_concrete(X, y, 0.05)
            assert np.all(w_star >= pi.lo - 1e-8)
            assert np.all(w_star <= pi.hi + 1e-8)

    def test_wr_inside_intervals(self):
        ds = make_dataset(12, 2, seed=24)
        spec = UncertaintySpec("features", 0.3, 0.1, seed=25)
        _, weights, _ = trained(ds, spec, lam=0.05)
        pi = parameter_intervals(weights)
        assert np.all(weights.w_R >= pi.lo - 1e-12)
        assert np.all(weights.w_R <= pi.hi + 1e-12)


class TestCachedGenerators:
    """The weights keep their generator matrix and symbol columns; reassigning
    a field drops both."""

    def answers(self, weights, x):
        pi = parameter_intervals(weights)
        p = predict_interval_uncertain(x, weights)
        return weights.generators().copy(), pi.lo, pi.hi, np.array([p.lo, p.hi])

    def fitted(self):
        ds = make_dataset(12, 2, seed=30)
        ad, weights, _ = trained(ds, UncertaintySpec("both", 0.3, 0.2, seed=31), 0.1)
        assert np.max(weights.k) > 0 and len(weights.data_ids) > 2
        reg = weights.registry
        shared = [*ad.data_symbols()[:2], reg.new_symbol(SymbolKind.DATA)]
        x = ZVector(reg, [PolyForm(reg, 1.0, {(sid,): 0.1}) for sid in shared])
        return weights, x

    def test_reassigned_fields_reach_every_query(self):
        import dataclasses

        weights, x = self.fitted()
        before = self.answers(weights, x)
        assert not weights.generators().flags.writeable
        for name, value in (
            ("A_inv", 2.0 * weights.A_inv),
            ("data_ids", weights.data_ids[::-1].copy()),
            ("k", np.zeros_like(weights.k)),
            ("G_D", 2.0 * weights.G_D),
        ):
            setattr(weights, name, value)
            fresh = dataclasses.replace(weights)  # the same fields, nothing cached
            after = self.answers(weights, x)
            for got, want in zip(after, self.answers(fresh, x)):
                np.testing.assert_array_equal(got, want)
            # Only the uncertain point reads data_ids: they name its symbols' columns.
            changed = slice(-1, None) if name == "data_ids" else slice(None)
            for got, old in zip(after[changed], before[changed]):
                assert not np.array_equal(got, old)
            before = after
        np.testing.assert_array_equal(
            weights.generators(), np.hstack([weights.G_D.T, np.zeros((weights.dim, weights.dim))])
        )

    def test_generators_alone_leave_the_symbol_columns_unbuilt(self):
        weights, x = self.fitted()
        parameter_intervals(weights)
        loss_interval(np.eye(weights.dim), np.zeros(weights.dim), weights, 0.1)
        assert "_generators" in vars(weights) and "_columns" not in vars(weights)
        predict_interval_uncertain(x, weights)
        assert "_columns" in vars(weights)
        weights.data_ids = weights.data_ids.copy()
        assert "_generators" not in vars(weights) and "_columns" not in vars(weights)


def _point(registry, length):
    return ZVector(registry, [PolyForm(registry, 1.0)] * length)


@pytest.mark.parametrize("refuse, error, message", [
    (lambda w: predict_interval_uncertain(_point(w.registry, 2), w), ShapeMismatchError,
     "test point must have dimension 3"),
    (lambda w: predict_interval_uncertain(_point(SymbolRegistry(), 3), w), RegistryMismatchError,
     "test point and weights belong to different registries"),
    (lambda w: certify_robustness(np.ones((2, 4)), w, 0.5), ShapeMismatchError,
     "test points must have dimension 3"),
    (lambda w: loss_interval(np.ones((3, 3)), np.ones(2), w, 0.1), ShapeMismatchError,
     "test y must be (3,), got (2,)"),
    (lambda w: loss_interval(np.ones((3, 3)), np.ones((3, 1)), w, 0.1), ShapeMismatchError,
     "test y must be (3,), got (3, 1)"),
    (lambda w: loss_interval(np.ones((3, 3)), np.ones((3, 1)), w, 0.0), ShapeMismatchError,
     "test y must be (3,), got (3, 1)"),
    (lambda w: loss_interval(np.ones((3, 3)), 1.0, w, 0.1), ShapeMismatchError,
     "test y must be (3,), got ()"),
], ids=["point-length", "point-registry", "certify-width", "loss-row-counts", "loss-y-column",
        "loss-y-column-lambda-0", "loss-y-scalar"])
def test_refusals(refuse, error, message):
    _, weights, _ = trained(make_dataset(10, 2, seed=13), UncertaintySpec("labels", 0.2, 0.1, seed=14), 0.1)
    with pytest.raises(error) as exc:
        refuse(weights)
    assert type(exc.value) is error and str(exc.value) == message
