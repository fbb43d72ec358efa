"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its headline numbers; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  Criteria 1-3 stash
their fixed points so criterion 4 can re-verify every unsplit one.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import cell_table

from zonoridge.dataset import (
    AbstractDataset,
    Dataset,
    UncertaintySpec,
    domain_ranges,
    inject_uncertainty,
    load_csv,
    train_test_split,
)
from zonoridge.inference import certify_robustness, loss_interval, predict_interval
from zonoridge.learning import (
    TOLERANCE,
    RidgeConfig,
    contains_world_weights,
    fixed_point,
    verify_fixed_point_residual,
)
from zonoridge.oracles import (
    enumerate_worlds,
    interval_ridge_labels,
    oracle_ranges,
    ridge_concrete,
    sample_worlds,
)
from zonoridge.symbols import SymbolKind, SymbolRegistry
from zonoridge.cli import main as cli_main

# Fixed points produced by criteria 1-3, re-verified by criterion 4.
_FIXED_POINTS: list[tuple[AbstractDataset, object, RidgeConfig]] = []


def _announce(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}", file=sys.stderr)


def synthetic_dataset(n, d_feat, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), scale * rng.uniform(-1, 2, size=(n, d_feat))])
    w = rng.uniform(-2, 2, size=d_feat + 1)
    y = X @ w + 0.1 * rng.standard_normal(n)
    return Dataset(X=X, y=y, columns=["bias"] + [f"f{i}" for i in range(d_feat)])


def uncertain_instance(seed, target, max_cells=8, radius=0.1):
    """Random problem with n <= 50, d <= 4 and a bounded uncertain-cell count."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 51))
    d_feat = int(rng.integers(1, 4))
    ds = synthetic_dataset(n, d_feat, seed + 1000)
    cols_per_row = {"labels": 1, "features": 1, "both": 2}[target]
    rows_unc = max(1, min(int(rng.integers(1, 4)), max_cells // cols_per_row))
    spec = UncertaintySpec(
        target=target,
        percentage=rows_unc / n,
        radius=radius * float(rng.uniform(0.3, 1.0)),
        seed=seed + 2000,
        columns=("f0",) if target in ("features", "both") else None,
    )
    return ds, inject_uncertainty(ds, spec)


class TestCriterion1Soundness:
    def test_world_containment_100_percent(self):
        start = time.monotonic()
        targets = ["labels", "features", "both"]
        problems = 0
        worlds_checked = 0
        for seed in range(20):
            target = targets[seed % 3]
            lam = [0.0, 0.02, 0.1][seed % 3] if target == "labels" else [0.02, 0.1][seed % 2]
            ds, ad = uncertain_instance(seed, target, max_cells=8, radius=0.1)
            cfg = RidgeConfig(lam=lam)
            weights, diag = fixed_point(ad, cfg)
            if diag.splits_used == 1:
                _FIXED_POINTS.append((ad, weights, cfg))
            worlds = sample_worlds(ad, 500, seed=seed + 3000)
            n_syms = len(ad.data_symbols())
            if 2**n_syms <= 2**12:
                worlds = worlds + list(enumerate_worlds(ad, "corner", budget=2**12))
            for wa, X, y in worlds:
                w_star = ridge_concrete(X, y, lam)
                assert contains_world_weights(weights, wa.values, w_star), (
                    f"world escaped the abstraction: seed={seed} target={target}"
                )
            worlds_checked += len(worlds)
            problems += 1
        elapsed = time.monotonic() - start
        assert problems >= 20 and elapsed < 120.0
        _announce(1, f"{worlds_checked} worlds over {problems} problems contained, "
                     f"{elapsed:.1f}s < 120s")


class TestCriterion2LabelOnlyExactness:
    def test_prediction_intervals_match_corner_oracle(self):
        checked = 0
        for seed in range(10):
            ds, ad = uncertain_instance(seed + 50, "labels", max_cells=8, radius=0.2)
            lam = 0.03 if seed % 2 else 0.0
            cfg = RidgeConfig(lam=lam)
            weights, diag = fixed_point(ad, cfg)
            _FIXED_POINTS.append((ad, weights, cfg))
            assert np.all(weights.k == 0.0), "label-only uncertainty must not need a box"
            res = oracle_ranges(ad, lam, ds.X[:6], ds.y[:6], strategy="corner", budget=2**12)
            for i in range(6):
                p = predict_interval(ds.X[i], weights)
                assert p.lo == pytest.approx(res.pred_lo[i], rel=1e-9, abs=1e-12)
                assert p.hi == pytest.approx(res.pred_hi[i], rel=1e-9, abs=1e-12)
                checked += 1
        _announce(2, f"k = 0 and {checked} prediction intervals exact to 1e-9 "
                     f"over 10 label-only instances")


class TestCriterion3BaselineDominance:
    def _sweep(self, ds, radii, lam, threshold_abs, seed):
        train, test = train_test_split(ds, 0.8, seed)
        zono, base = [], []
        for radius in radii:
            spec = UncertaintySpec("labels", 0.2, radius, seed=seed)
            ad = inject_uncertainty(train, spec)
            cfg = RidgeConfig(lam=lam)
            weights, diag = fixed_point(ad, cfg)
            if diag.splits_used == 1:
                _FIXED_POINTS.append((ad, weights, cfg))
            zono.append(certify_robustness(test.X, weights, threshold_abs).ratio)
            intervals = np.column_stack([ad.y_R, ad.y_R])
            for sid in ad.label_symbols():
                r, _ = ad.provenance[sid]
                intervals[r] = ad.cell_interval(sid)
            baseline = interval_ridge_labels(train.X, intervals, lam)
            robust = sum(
                1 for x in test.X
                if (lambda lh: lh[1] - lh[0] < threshold_abs)(baseline.predict_interval(x))
            )
            base.append(robust / test.n)
        return zono, base

    def test_zonotope_dominates_interval_baseline(self):
        ds = synthetic_dataset(60, 2, seed=77)  # weight dimension 3 >= 2
        radii = [0.05, 0.1, 0.2, 0.3]
        lam = 0.02
        seed = 5
        # Calibrate the threshold between the two methods' typical widths at
        # the middle radius, mirroring how dataset-specific thresholds are
        # chosen in practice.
        train, test = train_test_split(ds, 0.8, seed)
        spec = UncertaintySpec("labels", 0.2, radii[2], seed=seed)
        ad = inject_uncertainty(train, spec)
        weights, _ = fixed_point(ad, RidgeConfig(lam=lam))
        intervals = np.column_stack([ad.y_R, ad.y_R])
        for sid in ad.label_symbols():
            r, _ = ad.provenance[sid]
            intervals[r] = ad.cell_interval(sid)
        baseline = interval_ridge_labels(train.X, intervals, lam)
        zw = np.median([predict_interval(x, weights).width for x in test.X])
        bw = np.median([(lambda lh: lh[1] - lh[0])(baseline.predict_interval(x)) for x in test.X])
        assert bw > zw, "interval baseline should be looser for d >= 2"
        threshold_abs = float((zw + bw) / 2)

        zono, base = self._sweep(ds, radii, lam, threshold_abs, seed)
        for z, b in zip(zono, base):
            assert z >= b - 1e-12
        assert any(z > b + 1e-12 for z, b in zip(zono, base)), (
            "expected strict improvement at some grid point"
        )
        _announce(3, f"zonotope ratios {[round(float(z), 3) for z in zono]} >= "
                     f"baseline {[round(float(b), 3) for b in base]} with strict gap")

    def test_mpg_regime_when_csv_supplied(self):
        candidates = [Path("data/auto-mpg.csv"), Path("/root/pkg/data/auto-mpg.csv")]
        path = next((p for p in candidates if p.exists()), None)
        if path is None:
            pytest.skip("MPG CSV not supplied; regime check skipped by design")
        ds = load_csv(str(path), "mpg", ["cylinders", "horsepower", "weight"])
        train, test = train_test_split(ds, 0.8, seed=1)
        threshold_abs = 0.05 * domain_ranges(ds).label_width()
        spec = UncertaintySpec("labels", 0.1, 0.05, seed=1)
        ad = inject_uncertainty(train, spec)
        lam = 0.01
        weights, _ = fixed_point(ad, RidgeConfig(lam=lam))
        ratio = certify_robustness(test.X, weights, threshold_abs).ratio
        intervals = np.column_stack([ad.y_R, ad.y_R])
        for sid in ad.label_symbols():
            r, _ = ad.provenance[sid]
            intervals[r] = ad.cell_interval(sid)
        baseline = interval_ridge_labels(train.X, intervals, lam)
        base_ratio = float(np.mean([
            (lambda lh: lh[1] - lh[0] < threshold_abs)(baseline.predict_interval(x))
            for x in test.X
        ]))
        assert ratio == 1.0 and base_ratio <= 0.2
        _announce(3, f"MPG regime reproduced: zonotope {ratio}, baseline {base_ratio}")


class TestCriterion4FixedPointResiduals:
    def test_residuals_for_all_unsplit_fixed_points(self):
        if not _FIXED_POINTS:
            # Criterion 4 applies to the fixed points of suites 1-3; rebuild
            # a small set when this test runs in isolation.
            for seed in range(5):
                ds, ad = uncertain_instance(seed, "both", max_cells=6, radius=0.08)
                cfg = RidgeConfig(lam=0.05)
                weights, diag = fixed_point(ad, cfg)
                if diag.splits_used == 1:
                    _FIXED_POINTS.append((ad, weights, cfg))
        checked = 0
        for ad, weights, cfg in _FIXED_POINTS:
            rep = verify_fixed_point_residual(ad, weights, cfg)
            assert rep.real_residual < 1e-9
            assert rep.data_residual < 1e-9
            assert rep.box_residual < 1e-8 * (1.0 + float(np.max(weights.k, initial=0.0)))
            checked += 1
        _announce(4, f"residual bounds hold for {checked} unsplit fixed points")


class TestCriterion5LossContainmentAndGap:
    def test_gt_contained_and_gap_trend(self):
        radii = [0.03, 0.06, 0.09, 0.12]
        lam = 0.05
        gaps_by_radius = np.zeros(len(radii))
        instances = 0
        for seed in range(10):
            rng = np.random.default_rng(seed + 400)
            n = int(rng.integers(10, 30))
            d_feat = int(rng.integers(1, 3))
            ds = synthetic_dataset(n, d_feat, seed + 500)
            rows_unc = max(1, min(int(rng.integers(1, 4)), 5))
            test_X, test_y = ds.X[:5], ds.y[:5]
            for j, radius in enumerate(radii):
                spec = UncertaintySpec(
                    target="both", percentage=rows_unc / n, radius=radius,
                    seed=seed + 600, columns=("f0",),
                )
                ad = inject_uncertainty(ds, spec)
                assert len(ad.data_symbols()) <= 12
                weights, _ = fixed_point(ad, RidgeConfig(lam=lam))
                li = loss_interval(test_X, test_y, weights, lam)
                gt = oracle_ranges(ad, lam, test_X, test_y, strategy="corner", budget=2**12)
                assert li.lo <= gt.loss_lo + 1e-9 and gt.loss_hi <= li.hi + 1e-9, (
                    f"GT loss range escaped: seed={seed} radius={radius}"
                )
                gaps_by_radius[j] += (li.hi - li.lo) - (gt.loss_hi - gt.loss_lo)
            instances += 1
        gaps = gaps_by_radius / instances
        assert all(a <= b + 1e-12 for a, b in zip(gaps, gaps[1:])), (
            f"gap trend violated: {gaps}"
        )
        _announce(5, f"GT contained on {instances} instances x {len(radii)} radii; "
                     f"mean gaps {np.round(gaps, 4).tolist()} non-decreasing")


class TestCriterion6SplittingPath:
    def test_split_triggered_and_sound(self):
        rng = np.random.default_rng(7)
        n = 5
        X = np.column_stack([np.ones(n), rng.uniform(0.5, 1.5, size=n)])
        y = rng.uniform(-1, 1, size=n)
        ds = Dataset(X=X, y=y, columns=["bias", "f0"])
        reg = SymbolRegistry()
        sid = reg.new_symbol(SymbolKind.DATA)
        ad = AbstractDataset(
            X_R=ds.X.copy(), y_R=ds.y.copy(), registry=reg,
            cells=cell_table({sid: (2, 1)}, {sid: 4.0}),
            columns=list(ds.columns),
        )
        lam = 0.05
        cfg = RidgeConfig(lam=lam, split_budget=4096)
        weights, diag = fixed_point(ad, cfg)
        assert diag.beta > lam, "instance must be infeasible without splitting"
        assert diag.splits_used > 1
        assert diag.part_betas and max(diag.part_betas) <= lam + TOLERANCE
        failures = 0
        for wa, Xw, yw in sample_worlds(ad, 500, seed=8):
            w_star = ridge_concrete(Xw, yw, lam)
            if not contains_world_weights(weights, wa.values, w_star):
                failures += 1
        for wa, Xw, yw in enumerate_worlds(ad, "corner"):
            w_star = ridge_concrete(Xw, yw, lam)
            if not contains_world_weights(weights, wa.values, w_star):
                failures += 1
        assert failures == 0
        _announce(6, f"beta {diag.beta:.3f} > lambda {lam} forced {diag.splits_used} "
                     f"parts, max part beta {max(diag.part_betas):.4f} <= lambda, join sound")

    def test_shrunken_k_breaks_containment(self):
        # Harness self-validation: shrinking the box must produce failures.
        from zonoridge.learning import AbstractWeights

        ds, ad = uncertain_instance(99, "features", max_cells=4, radius=0.3)
        cfg = RidgeConfig(lam=0.1)
        weights, _ = fixed_point(ad, cfg)
        if np.max(weights.k) == 0:
            pytest.skip("degenerate box; nothing to shrink")
        shrunk = AbstractWeights(
            w_R=weights.w_R, G_D=weights.G_D, data_ids=weights.data_ids, k=0.5 * weights.k,
            A=weights.A, A_inv=weights.A_inv, fresh_ids=weights.fresh_ids,
            registry=weights.registry, lam=weights.lam,
        )
        failures = sum(
            not contains_world_weights(shrunk, wa.values, ridge_concrete(X, y, cfg.lam))
            for wa, X, y in enumerate_worlds(ad, "corner")
        )
        assert failures > 0


class TestCriterion7Determinism:
    def test_byte_identical_certify_csv(self, tmp_path):
        rng = np.random.default_rng(123)
        rows = ["f0,f1,target"]
        for _ in range(30):
            x0, x1 = (float(v) for v in rng.uniform(-1, 2, size=2))
            yv = 1.0 + 0.8 * x0 - 1.2 * x1 + 0.05 * float(rng.standard_normal())
            rows.append(f"{x0!r},{x1!r},{yv!r}")
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = tmp_path / "exp.ini"
        config.write_text(
            f"""[data]
path = {csv_path}
label = target
[uncertainty]
target = labels
percentage = 0.2
radius = 0.05
[ridge]
lambda = 0.02
[certify]
threshold = 0.05
[sweep]
radius_grid = 0.02, 0.05
[run]
seeds = 1, 2, 3
""",
            encoding="utf-8",
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["certify", "--config", str(config), "--out-dir", str(out_a)]) == 0
        assert cli_main(["certify", "--config", str(config), "--out-dir", str(out_b)]) == 0
        content_a = (out_a / "certify_results.csv").read_bytes()
        assert content_a == (out_b / "certify_results.csv").read_bytes()
        assert (out_a / "certify_summary.csv").read_bytes() == \
            (out_b / "certify_summary.csv").read_bytes()
        _announce(7, f"two certify runs produced byte-identical CSV ({len(content_a)} bytes)")


class TestCriterion8RegularizationTrend:
    def test_ratio_non_decreasing_in_lambda(self):
        ds = synthetic_dataset(40, 2, seed=88)
        train, test = train_test_split(ds, 0.8, seed=9)
        spec = UncertaintySpec("both", 0.15, 0.12, seed=10, columns=("f0",))
        ad = inject_uncertainty(train, spec)
        threshold_abs = 0.05 * domain_ranges(ds).label_width()
        lambdas = [0.01, 0.05, 0.1, 0.5, 1.0]
        ratios = []
        for lam in lambdas:
            weights, _ = fixed_point(ad, RidgeConfig(lam=lam))
            ratios.append(certify_robustness(test.X, weights, threshold_abs).ratio)
        assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:])), (
            f"robustness ratio not monotone in lambda: {ratios}"
        )
        _announce(8, f"robustness ratio {[round(float(r), 3) for r in ratios]} "
                     f"non-decreasing over lambda {lambdas}")
