"""Qualitative behavior on realistically shaped data and near thresholds."""

import numpy as np
import pytest
from conftest import cell_table
from stages import (
    build_non_data_system,
    build_transform,
    closed_form_symbolic_data,
    ridge_closed_form_real,
    solve_non_data,
)

from zonoridge.dataset import (
    AbstractDataset,
    Dataset,
    FeatureScaler,
    UncertaintySpec,
    domain_ranges,
    inject_uncertainty,
    train_test_split,
)
from zonoridge.errors import LambdaTooSmall
from zonoridge.inference import certify_robustness, predict_interval
from zonoridge.learning import RidgeConfig, fixed_point
from zonoridge.oracles import interval_ridge_labels
from zonoridge.symbols import SymbolKind, SymbolRegistry


def mpg_shaped_dataset(seed=0, n=392):
    """Synthetic stand-in with car-like feature scales and an mpg-like label."""
    rng = np.random.default_rng(seed)
    cyl = rng.choice([4.0, 6.0, 8.0], size=n, p=[0.5, 0.2, 0.3])
    hp = 40 + 20 * cyl + rng.normal(0, 15, n)
    weight = 600 + 400 * cyl + rng.normal(0, 250, n)
    mpg = 45 - 2.2 * cyl - 0.04 * hp - 0.004 * weight + rng.normal(0, 2.0, n)
    X = np.column_stack([np.ones(n), cyl, hp, weight])
    return Dataset(X=X, y=mpg, columns=["bias", "cylinders", "horsepower", "weight"])


def baseline_ratio(train, ad, test, lam, threshold):
    base = interval_ridge_labels(train.X, ad.label_intervals(), lam)
    hits = sum(
        1 for x in test.X
        if (lambda lh: lh[1] - lh[0] < threshold)(base.predict_interval(x))
    )
    return hits / test.n


class TestMpgShapedRegime:
    def test_label_uncertainty_zonotope_certifies_baseline_does_not(self):
        ds = mpg_shaped_dataset()
        threshold = 0.05 * domain_ranges(ds).label_width()
        lam = 0.01
        for seed in (1, 2, 3):
            train, test = train_test_split(ds, 0.8, seed)
            ad = inject_uncertainty(train, UncertaintySpec("labels", 0.10, 0.05, seed=seed))
            weights, diag = fixed_point(ad, RidgeConfig(lam=lam))
            assert diag.splits_used == 1
            ratio = certify_robustness(test.X, weights, threshold).ratio
            b_ratio = baseline_ratio(train, ad, test, lam, threshold)
            assert ratio == 1.0
            assert b_ratio <= 0.2

    def test_feature_uncertainty_less_robust_than_label(self):
        # Raw car-scale features push the feasibility threshold huge, so the
        # feature-uncertain run only works in the standardized regime.
        ds = mpg_shaped_dataset()
        threshold = 0.05 * domain_ranges(ds).label_width()
        lam = 0.01
        train, test = train_test_split(ds, 0.8, seed=4)
        scaler = FeatureScaler.fit(train)
        train, test = scaler.transform(train), scaler.transform(test)
        ad_lab = inject_uncertainty(train, UncertaintySpec("labels", 0.10, 0.08, seed=4))
        w_lab, _ = fixed_point(ad_lab, RidgeConfig(lam=lam))
        ad_feat = inject_uncertainty(
            train, UncertaintySpec("features", 0.10, 0.08, seed=4, columns=("weight",))
        )
        w_feat, diag = fixed_point(ad_feat, RidgeConfig(lam=lam))
        assert diag.splits_used == 1, "standardized features should keep beta <= lambda"
        r_lab = certify_robustness(test.X, w_lab, threshold).ratio
        r_feat = certify_robustness(test.X, w_feat, threshold).ratio
        assert r_feat <= r_lab


class TestRobustnessTrends:
    def test_ratio_non_increasing_in_radius_and_percentage(self):
        ds = mpg_shaped_dataset(seed=5, n=120)
        threshold = 0.05 * domain_ranges(ds).label_width()
        lam = 0.01
        train, test = train_test_split(ds, 0.8, seed=6)
        by_radius = []
        for radius in (0.02, 0.05, 0.1, 0.2):
            ad = inject_uncertainty(train, UncertaintySpec("labels", 0.1, radius, seed=7))
            w, _ = fixed_point(ad, RidgeConfig(lam=lam))
            by_radius.append(certify_robustness(test.X, w, threshold).ratio)
        assert all(a >= b - 1e-12 for a, b in zip(by_radius, by_radius[1:]))
        by_pct = []
        for pct in (0.05, 0.1, 0.2, 0.4):
            ad = inject_uncertainty(train, UncertaintySpec("labels", pct, 0.1, seed=8))
            w, _ = fixed_point(ad, RidgeConfig(lam=lam))
            by_pct.append(certify_robustness(test.X, w, threshold).ratio)
        assert all(a >= b - 1e-12 for a, b in zip(by_pct, by_pct[1:]))


class TestBetaBoundary:
    def _system(self, half_width):
        rng = np.random.default_rng(11)
        n = 5
        X = np.column_stack([np.ones(n), rng.uniform(0.5, 1.5, size=n)])
        y = rng.uniform(-1, 1, size=n)
        reg = SymbolRegistry()
        sid = reg.new_symbol(SymbolKind.DATA)
        ad = AbstractDataset(
            X_R=X, y_R=y, registry=reg,
            cells=cell_table({sid: (2, 1)}, {sid: half_width}),
            columns=["bias", "f0"],
        )
        lam_probe = 0.0
        w_R = ridge_closed_form_real(X, y, lam_probe)
        w_D = closed_form_symbolic_data(ad, lam_probe, w_R)
        A, A_inv = build_transform(X, RidgeConfig(lam=lam_probe))
        return build_non_data_system(ad, lam_probe, w_R, w_D, A, A_inv)

    def test_solve_succeeds_iff_lambda_at_least_beta(self):
        sys = self._system(half_width=2.0)
        assert sys.beta > 0
        eps = 1e-6
        k = solve_non_data(sys, sys.beta + eps)
        assert np.all(k >= 0)
        with pytest.raises(LambdaTooSmall):
            solve_non_data(sys, sys.beta - max(10 * eps, 1e-7))


class TestBaselineDimensionOne:
    def test_d1_baseline_equals_zonotope(self):
        # Single-column feature matrix (weight dimension 1): no cross-term
        # correlation exists, so the interval baseline matches the zonotope.
        rng = np.random.default_rng(12)
        n = 15
        X = rng.uniform(0.5, 2.0, size=(n, 1))
        y = (X[:, 0] * 1.7 + 0.05 * rng.standard_normal(n))
        reg = SymbolRegistry()
        prov, coeffs = {}, {}
        intervals = np.column_stack([y, y])
        for r in (2, 5, 9):
            sid = reg.new_symbol(SymbolKind.DATA)
            prov[sid] = (r, -1)
            coeffs[sid] = 0.3
            intervals[r] = [y[r] - 0.3, y[r] + 0.3]
        ad = AbstractDataset(
            X_R=X, y_R=y, registry=reg, cells=cell_table(prov, coeffs),
            columns=["f0"],
        )
        lam = 0.05
        weights, _ = fixed_point(ad, RidgeConfig(lam=lam))
        base = interval_ridge_labels(X, intervals, lam)
        for x in (np.array([0.7]), np.array([1.3]), np.array([2.5])):
            z = predict_interval(x, weights)
            b_lo, b_hi = base.predict_interval(x)
            assert z.lo == pytest.approx(b_lo, rel=1e-10, abs=1e-12)
            assert z.hi == pytest.approx(b_hi, rel=1e-10, abs=1e-12)


class TestRegistryConcurrency:
    def test_parallel_allocation_unique_ids(self):
        import threading

        reg = SymbolRegistry()
        out = []
        lock = threading.Lock()

        def work():
            ids = [reg.new_symbol(SymbolKind.FRESH) for _ in range(500)]
            with lock:
                out.extend(ids)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(out) == len(set(out)) == 4000
