"""Dense generator-matrix kernels against the polynomial-form reference.

Every comparison is relative to the largest magnitude involved, at 1e-12.
The fixed-point residuals are rounding noise at a true fixed point, which
the reference additionally truncates at ``COEF_EPS``; the residual checks
therefore run on perturbed weights, where every residual is macroscopic.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference_forms as ref
import zonoridge
from zonoridge import learning
from zonoridge.dataset import LABEL_COL, AbstractDataset
from zonoridge.errors import DegreeError
from zonoridge.forms import PolyForm, ZVector
from zonoridge.inference import (
    certify_robustness,
    loss_interval,
    parameter_intervals,
    predict_interval,
    predict_interval_uncertain,
)
from zonoridge.learning import (
    AbstractWeights,
    RidgeConfig,
    build_non_data_system,
    build_transform,
    closed_form_symbolic_data,
    fixed_point,
    ridge_closed_form_real,
    verify_fixed_point_residual,
)
from zonoridge.symbols import SymbolKind, SymbolRegistry

RTOL = 1e-12
KINDS = ("labels", "features", "both", "missing")
SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def assert_close(dense, reference, scale=None):
    dense = np.asarray(dense, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if scale is None:
        scale = float(np.max(np.abs(reference), initial=0.0))
    assert dense.shape == reference.shape
    assert np.max(np.abs(dense - reference), initial=0.0) <= RTOL * scale


def make_problem(kind, d, n, seed, transform="svd", lam=0.5):
    """Abstract dataset with uncertain cells chosen by ``kind``.

    ``both`` makes whole rows uncertain (every feature and the label), so
    feature and label symbols share rows; ``missing`` mixes feature and
    label cells with wide intervals.  About a quarter of the coefficients
    are exactly zero.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, (n, d))
    y = rng.uniform(-2.0, 2.0, n)
    rows = rng.choice(n, size=min(n, 3), replace=False)
    if kind == "labels":
        cells = [(int(r), LABEL_COL) for r in rows]
    elif kind == "both":
        cells = [(int(r), c) for r in rows[:2] for c in [*range(d), LABEL_COL]]
    else:
        every = [(r, c) for r in range(n) for c in range(d)]
        if kind == "missing":
            every += [(r, LABEL_COL) for r in range(n)]
        pick = rng.choice(len(every), size=min(len(every), 6), replace=False)
        cells = [every[i] for i in sorted(pick)]
    high = 1.5 if kind == "missing" else 0.4
    reg = SymbolRegistry()
    provenance, coefficients = {}, {}
    for cell in cells:
        sid = reg.new_symbol(SymbolKind.DATA)
        provenance[sid] = cell
        coefficients[sid] = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.05, high))
    ad = AbstractDataset(
        X_R=X, y_R=y, registry=reg, provenance=provenance,
        coefficients=coefficients, columns=[f"f{j}" for j in range(d)],
    )
    if transform == "custom":
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        transform = q @ np.diag(rng.uniform(0.5, 2.0, d))
    return ad, RidgeConfig(lam=lam, transform=transform)


def prepared(ad, cfg):
    w_R = ridge_closed_form_real(ad.X_R, ad.y_R, cfg.lam)
    w_D = closed_form_symbolic_data(ad, cfg.lam, w_R)
    A, A_inv = build_transform(ad.X_R, cfg)
    return w_R, w_D, A, A_inv


def perturbed_weights(ad, cfg, seed):
    """Weights off the fixed point: w_D scaled, k random and nonzero."""
    rng = np.random.default_rng(seed)
    w_R, w_D, A, A_inv = prepared(ad, cfg)
    return AbstractWeights(
        w_R=w_R, w_D_coeffs={s: 1.3 * g for s, g in w_D.items()},
        k=rng.uniform(0.01, 0.3, ad.d), A=A, A_inv=A_inv,
        fresh_ids=ad.registry.new_symbols(ad.d, SymbolKind.FRESH),
        registry=ad.registry, lam=cfg.lam,
    )


def check_system(ad, cfg):
    w_R, w_D, A, A_inv = prepared(ad, cfg)
    dense = build_non_data_system(ad, cfg.lam, w_R, w_D, A, A_inv)
    reference = ref.build_non_data_system(ad, cfg.lam, w_R, w_D, A, A_inv)
    assert_close(dense.Q, reference.Q)
    assert_close(dense.Cprime, reference.Cprime)
    assert_close(dense.c0, reference.c0)
    scale = (np.abs(reference.Q).sum() + reference.Cprime.sum()) / reference.n
    assert_close(dense.beta, reference.beta, scale)


problem_args = dict(
    kind=st.sampled_from(KINDS),
    d=st.integers(1, 4),
    n=st.integers(5, 8),
    seed=st.integers(0, 2**32 - 1),
    transform=st.sampled_from(["svd", "identity", "custom"]),
)


@SETTINGS
@given(**problem_args)
@example(kind="labels", d=3, n=6, seed=1, transform="svd")
@example(kind="features", d=3, n=6, seed=2, transform="svd")
@example(kind="both", d=3, n=6, seed=3, transform="svd")
@example(kind="both", d=1, n=5, seed=4, transform="svd")
@example(kind="missing", d=2, n=6, seed=5, transform="identity")
def test_diameter_system_matches_reference(kind, d, n, seed, transform):
    check_system(*make_problem(kind, d, n, seed, transform))


@SETTINGS
@given(kind=st.sampled_from(("features", "both", "missing")), seed=st.integers(0, 2**32 - 1))
def test_split_parts_match_reference(kind, seed):
    ad, cfg = make_problem(kind, 2, 6, seed)
    for part in ad.split(2)[:4]:
        check_system(part, cfg)


@SETTINGS
@given(**problem_args)
@example(kind="both", d=1, n=5, seed=6, transform="svd")
@example(kind="missing", d=3, n=7, seed=7, transform="custom")
def test_residual_report_matches_reference(kind, d, n, seed, transform):
    ad, cfg = make_problem(kind, d, n, seed, transform)
    weights = perturbed_weights(ad, cfg, seed)
    dense = verify_fixed_point_residual(ad, weights, cfg)
    reference = ref.verify_fixed_point_residual(ad, weights, cfg)
    assert dense.eta == reference.eta
    assert dense.real_residual == reference.real_residual
    assert_close(dense.data_residual, reference.data_residual)
    box = reference.box_residual + float(np.max(weights.k))
    assert_close(dense.box_residual, reference.box_residual, box)
    assert_close(
        dense.box_residual_normalized, reference.box_residual_normalized,
        box / (2.0 * reference.eta / ad.n),
    )


@SETTINGS
@given(
    **problem_args,
    formula=st.sampled_from(["ridge", "mse"]),
    lam=st.sampled_from([0.0, 0.3]),
)
@example(kind="both", d=1, n=5, seed=8, transform="svd", formula="ridge", lam=0.3)
def test_queries_match_reference(kind, d, n, seed, transform, formula, lam):
    ad, cfg = make_problem(kind, d, n, seed, transform)
    weights = perturbed_weights(ad, cfg, seed)
    test_X = np.random.default_rng(seed).uniform(-2.0, 2.0, (4, d))
    test_y = ad.y_R[:4]

    dense = loss_interval(test_X, test_y, weights, lam, formula)
    reference = ref.loss_interval(test_X, test_y, weights, lam, formula)
    assert_close(dense.lo, reference.lo, reference.hi)
    assert_close(dense.hi, reference.hi)

    report = certify_robustness(test_X, weights, threshold=1.0)
    for x, (certified, _) in zip(test_X, report.per_point):
        q = ref.predict_interval(x, weights)
        for p in (predict_interval(x, weights), certified):
            assert_close([p.lo, p.hi], [q.lo, q.hi])

    dense_params = parameter_intervals(weights)
    reference_params = ref.parameter_intervals(weights)
    assert_close(dense_params.lo, reference_params.lo)
    assert_close(dense_params.hi, reference_params.hi)


def split_problem(seed):
    """One feature cell wide enough that beta exceeds lambda, so the fit splits."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(5), rng.uniform(0.5, 1.5, 5)])
    reg = SymbolRegistry()
    sid = reg.new_symbol(SymbolKind.DATA)
    ad = AbstractDataset(
        X_R=X, y_R=rng.uniform(-1.0, 1.0, 5), registry=reg,
        provenance={sid: (2, 1)}, coefficients={sid: 4.0},
    )
    cfg = RidgeConfig(lam=0.05)
    weights, diag = fixed_point(ad, cfg)
    assert diag.splits_used > 1
    return ad, cfg, weights, diag


@pytest.mark.parametrize("seed", range(4))
def test_split_join_matches_reference(seed):
    ad, cfg, weights, diag = split_problem(seed)
    center, k = ref.split_join(ad.split(diag.splits_used), cfg)
    assert_close(weights.w_R, center)
    assert_close(weights.k, k)


def uncertain_point(weights, ad, rng, share):
    """Affine test point over symbols drawn from ``share``.

    ``new`` symbols are the point's own, ``data`` are the training cells' and
    ``fresh`` the weights' box symbols; ``real`` gives a point without
    symbols.  About a quarter of the coefficients are exactly zero.
    """
    reg = weights.registry
    pools = {
        "new": reg.new_symbols(3, SymbolKind.DATA),
        "data": ad.data_symbols(),
        "fresh": list(weights.fresh_ids),
    }
    if share == "real":
        return ZVector.from_real(reg, rng.uniform(-2.0, 2.0, weights.dim))
    pool = sum(pools.values(), []) if share == "all" else pools[share]
    entries = []
    for _ in range(weights.dim):
        picked = rng.choice(pool, size=min(len(pool), int(rng.integers(0, 4))), replace=False)
        terms = {
            (int(sid),): 0.0 if rng.random() < 0.25 else float(rng.uniform(-0.5, 0.5))
            for sid in picked
        }
        entries.append(PolyForm(reg, float(rng.uniform(-2.0, 2.0)), terms))
    return ZVector(reg, entries)


@SETTINGS
@given(
    **problem_args,
    share=st.sampled_from(["new", "data", "fresh", "all", "real"]),
    split=st.booleans(),
)
@example(kind="both", d=1, n=5, seed=9, transform="svd", share="all", split=False)
@example(kind="features", d=3, n=6, seed=10, transform="svd", share="data", split=False)
@example(kind="labels", d=2, n=6, seed=11, transform="identity", share="fresh", split=True)
def test_uncertain_point_matches_reference(kind, d, n, seed, transform, share, split):
    if split:
        ad, _, weights, _ = split_problem(seed % 4)
        assert weights.w_D_coeffs == {}
    else:
        ad, cfg = make_problem(kind, d, n, seed, transform)
        weights = perturbed_weights(ad, cfg, seed)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = uncertain_point(weights, ad, rng, share)
        dense = predict_interval_uncertain(x, weights)
        reference = ref.predict_interval_uncertain(x, weights)
        assert_close([dense.lo, dense.hi], [reference.lo, reference.hi])


def test_uncertain_point_of_degree_two_raises():
    ad, cfg = make_problem("features", 2, 6, seed=12)
    weights = perturbed_weights(ad, cfg, 12)
    sid = ad.data_symbols()[0]
    square = PolyForm(ad.registry, 1.0, {(sid, sid): 0.5})
    x = ZVector(ad.registry, [PolyForm(ad.registry, 1.0), square])
    with pytest.raises(DegreeError):
        predict_interval_uncertain(x, weights)


def test_chunk_size_does_not_change_results(monkeypatch):
    ad, cfg = make_problem("both", 4, 40, seed=11, lam=2.0)
    w_R, w_D, A, A_inv = prepared(ad, cfg)
    weights = perturbed_weights(ad, cfg, 11)
    default = (
        build_non_data_system(ad, cfg.lam, w_R, w_D, A, A_inv),
        verify_fixed_point_residual(ad, weights, cfg),
    )
    monkeypatch.setattr(learning, "CHUNK_ELEMENTS", 1)
    chunked = (
        build_non_data_system(ad, cfg.lam, w_R, w_D, A, A_inv),
        verify_fixed_point_residual(ad, weights, cfg),
    )
    for field in ("Q", "Cprime", "c0"):
        np.testing.assert_array_equal(getattr(chunked[0], field), getattr(default[0], field))
    assert chunked[0].beta == default[0].beta
    assert chunked[1] == default[1]


def test_import_does_not_load_scipy():
    src = str(Path(zonoridge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import zonoridge, sys; sys.exit('scipy' in sys.modules)"],
        env=env, capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
