"""Dense generator-matrix kernels against the polynomial-form reference.

Every comparison is relative to the largest magnitude involved, at 1e-12.
The fixed-point residuals are rounding noise at a true fixed point, which
the reference additionally truncates at ``COEF_EPS``; the residual checks
therefore run on perturbed weights, where every residual is macroscopic.
The batched split fit is compared the same way with a loop of the public
one-part functions over ``stages.split``, and the unsplit fit bit for bit
with one run of them.
"""

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference_forms as ref
import stages
import zonoridge
from conftest import cell_table
from form_algebra import PolyForm, ZVector
from stages import (
    build_non_data_system,
    build_transform,
    closed_form_symbolic_data,
    residual,
    ridge_closed_form_real,
    solve_non_data,
)
from zonoridge import learning
from zonoridge.dataset import LABEL_COL, AbstractDataset, Cells, Dataset, abstract_missing
from zonoridge.errors import (
    DegreeError,
    IllConditionedError,
    LambdaTooSmall,
    ShapeMismatchError,
    SplitBudgetError,
    ZonoError,
)
from zonoridge.inference import (
    certify_robustness,
    loss_interval,
    parameter_intervals,
    predict_interval,
    predict_interval_uncertain,
)
from zonoridge.learning import (
    AbstractWeights,
    NonDataSystem,
    RidgeConfig,
    fixed_point,
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
        X_R=X, y_R=y, registry=reg, cells=cell_table(provenance, coefficients),
        columns=[f"f{j}" for j in range(d)],
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
        w_R=w_R, G_D=1.3 * w_D, data_ids=np.flatnonzero(ad.cells.coef),
        k=rng.uniform(0.01, 0.3, ad.d), A=A, A_inv=A_inv, registry=ad.registry,
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
    for part in stages.split(ad, 2)[:4]:
        check_system(part, cfg)


@SETTINGS
@given(**problem_args)
@example(kind="both", d=1, n=5, seed=6, transform="svd")
@example(kind="missing", d=3, n=7, seed=7, transform="custom")
def test_residual_report_matches_reference(kind, d, n, seed, transform):
    ad, cfg = make_problem(kind, d, n, seed, transform)
    weights = perturbed_weights(ad, cfg, seed)
    dense = residual(ad, weights, cfg)
    reference = ref.residual(ad, weights, cfg)
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
    lam=st.sampled_from([0.0, 0.3]),
)
@example(kind="both", d=1, n=5, seed=8, transform="svd", lam=0.3)
def test_queries_match_reference(kind, d, n, seed, transform, lam):
    ad, cfg = make_problem(kind, d, n, seed, transform)
    weights = perturbed_weights(ad, cfg, seed)
    test_X = np.random.default_rng(seed).uniform(-2.0, 2.0, (4, d))
    test_y = ad.y_R[:4]

    dense = loss_interval(test_X, test_y, weights, lam)
    reference = ref.loss_interval(test_X, test_y, weights, lam)
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


@SETTINGS
@given(**problem_args, lam=st.sampled_from([0.0, 0.3]))
@example(kind="labels", d=2, n=5, seed=13, transform="svd", lam=0.3)
def test_structural_lower_end_is_the_nearest_point_formula(kind, d, n, seed, transform, lam):
    """``loss_interval``'s distance ``max(|c| - r, 0)`` squares, bit for bit, to the old
    nearest point of ``c +- r``, and its lower end is at least their structural sum."""
    ad, cfg = make_problem(kind, d, n, seed, transform)
    weights = perturbed_weights(ad, cfg, seed)
    test_X = np.random.default_rng(seed).uniform(-2.0, 2.0, (4, d))
    test_y = ad.y_R[:4]
    W = weights.generators()
    c = test_X @ weights.w_R - test_y
    r = np.add.reduce(np.abs(test_X @ W), axis=1)
    # Ends on and next to 0 as well as the cases' intervals.
    c = np.concatenate([c, r, -r, np.nextafter(r, 0.0), -np.nextafter(r, np.inf), [0.0]])
    r = np.concatenate([r, r, r, r, r, [0.0]])
    for center, radius in ((c, r), (weights.w_R, np.add.reduce(np.abs(W), axis=1))):
        new = np.fmax(np.abs(center) - radius, 0.0)
        old = stages.nearest_zero(center, radius)
        assert bits(new * new / 4) == bits(old * old / 4)
        assert bits(lam * new * new) == bits(lam * old * old)
    v = stages.nearest_zero(c[:4], r[:4])
    structural = np.add.reduce(v * v / 4)
    if lam > 0.0:
        v = stages.nearest_zero(weights.w_R, np.add.reduce(np.abs(W), axis=1))
        structural += np.add.reduce(lam * v * v)
    assert loss_interval(test_X, test_y, weights, lam).lo >= structural


@SETTINGS
@given(kind=problem_args["kind"], d=problem_args["d"], n=problem_args["n"], seed=problem_args["seed"])
def test_default_transform_diagonalizes_the_gram_matrix(kind, d, n, seed):
    """The default ``A`` is orthogonal, and ``A X'X A^-1`` diagonal with its diagonal descending."""
    ad, _ = make_problem(kind, d, n, seed)
    gram = ad.X_R.T @ ad.X_R
    A, A_inv = build_transform(ad.X_R, RidgeConfig())
    assert A.flags.c_contiguous and A_inv.flags.c_contiguous
    np.testing.assert_array_equal(A_inv, A.T)
    assert np.max(np.abs(A @ A.T - np.eye(d))) <= 1e-14
    q = A @ gram @ A_inv
    diag = np.diag(q)
    assert np.max(np.abs(q - np.diag(diag))) <= 1e-13 * np.max(np.abs(gram))
    assert (np.diff(diag) <= 1e-13 * np.max(np.abs(gram))).all()


@pytest.mark.parametrize("kind", KINDS)
def test_default_transform_agrees_with_the_svd_basis(kind):
    """A default fit and a fit through the SVD basis of ``X_R'X_R``, as a custom transform, agree."""
    for seed in range(4):
        ad, cfg = make_problem(kind, 3, 7, seed, lam=5.0)
        weights, diag = fixed_point(ad, cfg)
        custom = dataclasses.replace(cfg, transform=np.linalg.svd(ad.X_R.T @ ad.X_R)[2])
        svd_weights, svd_diag = fixed_point(ad, custom)
        assert diag.splits_used == svd_diag.splits_used == 1
        test_X = np.random.default_rng(seed).uniform(-2.0, 2.0, (5, 3))
        test_y = ad.y_R[:5]
        for lam in (0.0, 0.3):
            got, want = (loss_interval(test_X, test_y, w, lam) for w in (weights, svd_weights))
            assert_close([got.lo, got.hi], [want.lo, want.hi])
        got, want = (certify_robustness(test_X, w, threshold=1.0) for w in (weights, svd_weights))
        assert [c for _, c in got.per_point] == [c for _, c in want.per_point]
        for x, (g, _), (w, _) in zip(test_X, got.per_point, want.per_point):
            p, q = predict_interval(x, weights), predict_interval(x, svd_weights)
            assert_close([p.lo, p.hi, g.lo, g.hi], [q.lo, q.hi, w.lo, w.hi])
        got, want = (parameter_intervals(w) for w in (weights, svd_weights))
        assert_close(np.concatenate([got.lo, got.hi]), np.concatenate([want.lo, want.hi]))


def split_problem(seed):
    """One feature cell wide enough that beta exceeds lambda, so the fit splits."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(5), rng.uniform(0.5, 1.5, 5)])
    reg = SymbolRegistry()
    sid = reg.new_symbol(SymbolKind.DATA)
    ad = AbstractDataset(
        X_R=X, y_R=rng.uniform(-1.0, 1.0, 5), registry=reg,
        cells=cell_table({sid: (2, 1)}, {sid: 4.0}),
    )
    cfg = RidgeConfig(lam=0.05)
    weights, diag = fixed_point(ad, cfg)
    assert diag.splits_used > 1
    return ad, cfg, weights, diag


@pytest.mark.parametrize("seed", range(4))
def test_split_join_matches_reference(seed):
    ad, cfg, weights, diag = split_problem(seed)
    center, k = ref.split_join(stages.split(ad, diag.splits_used), cfg)
    assert_close(weights.w_R, center)
    assert_close(weights.k, k)


def uncertain_point(weights, ad, rng, share):
    """Affine test point over symbols drawn from ``share``.

    ``new`` symbols are the point's own and ``data`` are the training
    cells'; ``real`` gives a point without symbols.  About a quarter of the
    coefficients are exactly zero.
    """
    reg = weights.registry
    pools = {"new": reg.new_symbols(3, SymbolKind.DATA), "data": ad.data_symbols()}
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
    share=st.sampled_from(["new", "data", "all", "real"]),
    split=st.booleans(),
)
@example(kind="both", d=1, n=5, seed=9, transform="svd", share="all", split=False)
@example(kind="features", d=3, n=6, seed=10, transform="svd", share="data", split=False)
@example(kind="labels", d=2, n=6, seed=11, transform="identity", share="data", split=True)
def test_uncertain_point_matches_reference(kind, d, n, seed, transform, share, split):
    if split:
        ad, _, weights, _ = split_problem(seed % 4)
        assert len(weights.data_ids) == 0
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
        residual(ad, weights, cfg),
    )
    monkeypatch.setattr(learning, "CHUNK_ELEMENTS", 1)
    chunked = (
        build_non_data_system(ad, cfg.lam, w_R, w_D, A, A_inv),
        residual(ad, weights, cfg),
    )
    for field in ("Q", "Cprime", "c0"):
        np.testing.assert_array_equal(getattr(chunked[0], field), getattr(default[0], field))
    assert chunked[0].beta == default[0].beta
    assert chunked[1] == default[1]


# Row 3 holds three feature cells and a label, rows 0 and 5 a feature and a
# label, row 1 a lone feature: same-row feature pairs, feature/label pairs,
# triples with one to three sources and triples across rows all occur.
MIXED_CELLS = Cells(
    rows=np.array([3, 0, 3, 3, 5, 3, 5, 1, 0]),
    cols=np.array([0, 2, 1, LABEL_COL, 2, 2, LABEL_COL, 1, LABEL_COL]),
    coef=np.array([0.7, -1.3, 0.4, 0.9, 2.1, -0.6, 0.3, 1.1, -0.8]),
)
LABEL_CELLS = Cells(
    rows=np.array([4, 1, 4]), cols=np.full(3, LABEL_COL),
    coef=np.array([0.5, -0.2, 1.5]),
)
# Row 2 holds every cell: three feature cells, two of them in column 1, and a
# label, so no triple crosses rows and every sum over other rows is 0.
ONE_ROW_CELLS = Cells(
    rows=np.full(4, 2), cols=np.array([1, 0, 1, LABEL_COL]),
    coef=np.array([0.8, 1.2, -0.5, 0.6]),
)
# Rows 0 and 3 hold three and four feature cells over several column pairs
# (two of row 3's in one cell) and a label each, next to the lone feature
# cells of rows 1 and 4 and the lone label of row 6.
CROWDED_CELLS = Cells(
    rows=np.array([0, 0, 1, 0, 0, 3, 3, 3, 3, 4, 6, 3]),
    cols=np.array([0, 1, 2, 2, LABEL_COL, 2, 0, 1, 1, 0, LABEL_COL, LABEL_COL]),
    coef=np.array([0.7, -1.3, 0.4, 0.9, 2.1, -0.6, 0.3, 1.1, -0.8, 0.5, -1.7, 1.4]),
)

# The ``features`` benchmark's shape, d = 5: ten of 50 rows, each with a feature
# cell in every column but the bias and a label, 50 cells.  ``SEVEN_COLUMNS`` cuts
# the degree-2 block of one part into column blocks of 7 cells, one of them across
# the last feature cell.
WORKLOAD_CELLS = Cells(
    rows=np.repeat([1, 4, 9, 15, 17, 22, 30, 31, 38, 45], 5),
    cols=np.tile([1, 2, 3, 4, LABEL_COL], 10),
    coef=np.random.default_rng(30).uniform(0.02, 0.12, 50),
)
SEVEN_COLUMNS = 7 * 40 * 5


def table_shape(cells, n, d):
    """The rows and width of a test on ``cells``: ``(n, d)``, or 50 by 5 for the workload table."""
    return (50, 5) if cells is WORKLOAD_CELLS else (n, d)


@pytest.mark.parametrize("chunk", [learning.CHUNK_ELEMENTS, 1, SEVEN_COLUMNS])
@pytest.mark.parametrize(
    "cells", [MIXED_CELLS, LABEL_CELLS, ONE_ROW_CELLS, CROWDED_CELLS, WORKLOAD_CELLS],
    ids=["mixed", "labels", "one-row", "crowded", "workload"],
)
def test_stacked_diameter_terms_equal_one_part_calls(cells, chunk, monkeypatch):
    """Each part of one batched call is, bit for bit, its own one-part call."""
    monkeypatch.setattr(learning, "CHUNK_ELEMENTS", chunk)
    rng = np.random.default_rng(5)
    parts, S, d = 64, len(cells.coef), table_shape(cells, 0, 3)[1]
    args = [
        rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        for shape in ((parts, S, d), (parts, d), (parts, S, d), (parts, d, d), (parts, d, d))
    ]
    plan = learning._index_plan(cells.rows, cells.cols, d)
    cprime, h = learning._diameter_terms(plan, cells.coef, *args)
    assert cprime.shape == (parts, d, d) and h.shape == (parts, d)
    assert cprime.flags.c_contiguous and h.flags.c_contiguous
    assert np.any(h) == (cells is not LABEL_CELLS)
    for p in range(parts):
        one = learning._diameter_terms(plan, cells.coef, *(a[p : p + 1] for a in args))
        assert bits(cprime[p : p + 1]) == bits(one[0])
        assert bits(h[p : p + 1]) == bits(one[1])


@pytest.mark.parametrize("chunk", [learning.CHUNK_ELEMENTS, 1, SEVEN_COLUMNS])
@pytest.mark.parametrize("transform", ["svd", "identity", "custom"])
@pytest.mark.parametrize(
    "cells", [MIXED_CELLS, ONE_ROW_CELLS, CROWDED_CELLS, WORKLOAD_CELLS],
    ids=["mixed", "one-row", "crowded", "workload"],
)
def test_crowded_rows_match_reference(cells, transform, chunk, monkeypatch):
    """Rows of several feature cells, one cell of two symbols: c' and h as the reference's."""
    monkeypatch.setattr(learning, "CHUNK_ELEMENTS", chunk)
    rng = np.random.default_rng(9)
    n, d = table_shape(cells, 8, 3)
    reg = SymbolRegistry()
    reg.new_symbols(len(cells.coef), SymbolKind.DATA)
    if transform == "custom":
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        transform = q @ np.diag(rng.uniform(0.5, 2.0, d))
    ad = AbstractDataset(
        X_R=rng.uniform(-2.0, 2.0, (n, d)), y_R=rng.uniform(-2.0, 2.0, n), registry=reg,
        cells=cells, columns=[f"f{j}" for j in range(d)],
    )
    check_system(ad, RidgeConfig(lam=0.5, transform=transform))


def test_import_does_not_load_scipy():
    src = str(Path(zonoridge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import zonoridge, sys; sys.exit('scipy' in sys.modules)"],
        env=env, capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def split_case(kind, d, seed, transform="svd", share=0.7):
    """Few wide cells, with ``lam`` at ``share`` of the threshold so the fit splits.

    ``missing`` abstracts two missing feature cells, ``features`` has two
    feature cells (in one row when d > 2), ``both`` makes every column of
    one row uncertain, label included, plus another row's label.  Each
    problem also has one zero-coefficient cell, which is never split.
    """
    rng = np.random.default_rng(seed)
    n = 6
    if d > 1:
        X = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, (n, d - 1))])
    else:
        X = rng.uniform(0.5, 1.5, (n, 1))
    y = rng.uniform(-1.0, 1.0, n)
    first, wide = (1, 1.0) if d > 1 else (0, 3.0)
    r = [int(v) for v in rng.choice(n, 3, replace=False)]
    if kind == "missing" and d > 1:
        ds = Dataset(X=X, y=y, columns=["bias"] + [f"f{j}" for j in range(1, d)])
        for row in r[:2]:
            ds.X[row, int(rng.integers(1, d))] = np.nan
        ad = abstract_missing(ds, zonoridge.domain_ranges(ds).feature_ranges)
    else:
        if kind == "both":
            cells = [(r[0], c) for c in range(first, d)] + [(r[0], LABEL_COL), (r[1], LABEL_COL)]
        else:
            cells = [(r[0], int(rng.integers(first, d))), (r[0] if d > 2 else r[1], d - 1)]
        reg = SymbolRegistry()
        provenance, coefficients = {}, {}
        for cell in dict.fromkeys(cells):
            sid = reg.new_symbol(SymbolKind.DATA)
            provenance[sid] = cell
            coefficients[sid] = float(rng.uniform(0.3, 1.0)) * wide
        ad = AbstractDataset(X_R=X, y_R=y, registry=reg,
                             cells=cell_table(provenance, coefficients))
    ad.registry.new_symbol(SymbolKind.DATA)
    cells = Cells(*(np.append(a, v) for a, v in zip(ad.cells, (r[2], d - 1, 0.0))))
    ad = dataclasses.replace(ad, cells=cells)
    if transform == "custom":
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        transform = q @ np.diag(rng.uniform(0.5, 2.0, d))
    cfg = RidgeConfig(lam=1.0, transform=transform)
    beta = build_non_data_system(ad, 1.0, *prepared(ad, cfg)).beta  # does not depend on lam
    return ad, RidgeConfig(lam=max(share * beta, 1e-3), transform=transform, split_budget=200)


def looped_part(part, cfg):
    """One part's fixed point through the public one-part functions."""
    w_R = ridge_closed_form_real(part.X_R, part.y_R, cfg.lam)
    w_D = closed_form_symbolic_data(part, cfg.lam, w_R)
    A, A_inv = build_transform(part.X_R, cfg)
    sys = build_non_data_system(part, cfg.lam, w_R, w_D, A, A_inv)
    k = solve_non_data(sys, cfg.lam, learning.TOLERANCE)
    weights = AbstractWeights(w_R=w_R, G_D=w_D, data_ids=np.flatnonzero(part.cells.coef), k=k, A=A,
                              A_inv=A_inv, registry=part.registry)
    return w_R, np.abs(weights.generators()).sum(axis=1), sys.beta, stages.m_matrix_margin(sys, cfg.lam)


def looped_join(parts, cfg):
    """Box join of the parts, solved one by one: center, k, part betas, margin."""
    w_R, radius, betas, margins = (np.array(v) for v in zip(*(looped_part(p, cfg) for p in parts)))
    lo, hi = (w_R - radius).min(axis=0), (w_R + radius).max(axis=0)
    return 0.5 * (lo + hi), 0.5 * (hi - lo), betas, margins.min()


def looped_split_fit(ad, cfg):
    """The split path of ``fixed_point`` with a loop over ``stages.split(ad, m)``."""
    w_R, w_D, A, A_inv = prepared(ad, cfg)
    sys = build_non_data_system(ad, cfg.lam, w_R, w_D, A, A_inv)
    s = len(ad.split_symbols())
    if sys.beta <= cfg.lam or not (sys.Cprime > 0).any():
        return None, 1
    m = learning._first_split_count(sys, cfg.lam, cfg.split_budget + 1)
    while True:
        if m**s > cfg.split_budget:
            raise SplitBudgetError(f"{m}**{s}")
        try:
            return looped_join(stages.split(ad, m), cfg), m**s
        except LambdaTooSmall:
            m += 1


def batched_split_fit(ad, cfg):
    weights, diag = fixed_point(ad, cfg)
    join = (weights.w_R, weights.k, np.array(diag.part_betas), diag.m_matrix_margin)
    return join, diag.splits_used


def assert_join_close(batched, looped):
    scale = max(float(np.max(np.abs(v))) for v in looped)
    for got, want in zip(batched, looped):
        assert_close(got, want, scale)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["missing", "features", "both"]),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    transform=st.sampled_from(["svd", "identity", "custom"]),
    share=st.floats(0.3, 0.9),
)
@example(kind="missing", d=3, seed=1, transform="svd", share=0.7)
@example(kind="features", d=3, seed=2, transform="identity", share=0.7)
@example(kind="both", d=3, seed=3, transform="custom", share=0.7)
@example(kind="features", d=1, seed=4, transform="svd", share=0.5)
@example(kind="both", d=2, seed=5, transform="svd", share=0.5)
def test_batched_split_fit_matches_part_loop(kind, d, seed, transform, share):
    ad, cfg = split_case(kind, d, seed, transform, share)
    try:
        looped, parts = looped_split_fit(ad, cfg)
    except (SplitBudgetError, LambdaTooSmall) as exc:
        with pytest.raises(type(exc)):
            fixed_point(ad, cfg)
        return
    batched, splits_used = batched_split_fit(ad, cfg)
    assert splits_used == parts
    if parts > 1:
        assert_join_close(batched, looped)


def test_split_examples_take_the_split_path():
    """The explicit examples above reach the join, not only refusals."""
    cases = [("missing", 3, 1, "svd", 0.7), ("features", 3, 2, "identity", 0.7),
             ("both", 3, 3, "custom", 0.7), ("features", 1, 4, "svd", 0.5),
             ("both", 2, 5, "svd", 0.5)]
    for case in cases:
        ad, cfg = split_case(*case)
        assert fixed_point(ad, cfg)[1].splits_used > 1


def test_part_block_size_does_not_change_results(monkeypatch):
    ad, cfg = split_case("both", 3, 3, "svd", 0.5)
    default, parts = batched_split_fit(ad, cfg)
    assert parts > 8
    for elements in (1, 300):
        monkeypatch.setattr(learning, "CHUNK_ELEMENTS", elements)
        blocked, _ = batched_split_fit(ad, cfg)
        for got, want in zip(blocked, default):
            np.testing.assert_array_equal(got, want)


def retry_case():
    """Two missing-value-like cells for which the predicted split count is far too small."""
    rng = np.random.default_rng(2857)
    X = np.column_stack([np.ones(6), rng.uniform(-1.0, 1.0, 6)])
    y = rng.uniform(-1.0, 1.0, 6)
    reg = SymbolRegistry()
    provenance, coefficients = {}, {}
    for row in rng.choice(6, 2, replace=False):
        sid = reg.new_symbol(SymbolKind.DATA)
        provenance[sid] = (int(row), 1)
        coefficients[sid] = float(rng.uniform(0.5, 3.0))
    ad = AbstractDataset(X_R=X, y_R=y, registry=reg, cells=cell_table(provenance, coefficients))
    return ad, RidgeConfig(lam=0.02)


def test_split_retry_grows_m_past_the_prediction():
    ad, cfg = retry_case()
    w_R, w_D, A, A_inv = prepared(ad, cfg)
    assert learning._first_split_count(build_non_data_system(ad, cfg.lam, w_R, w_D, A, A_inv),
                                       cfg.lam, cfg.split_budget + 1) == 12
    batched, splits_used = batched_split_fit(ad, cfg)
    assert splits_used == 34**2  # as the one-part-at-a-time loop found
    assert_join_close(batched, looped_join(stages.split(ad, 34), cfg))
    with pytest.raises(LambdaTooSmall):
        looped_join(stages.split(ad, 33), cfg)


def test_split_retry_resolves_only_the_parts(monkeypatch):
    # From m = 12 to m = 34 the fit tries 23 splits; what does not depend
    # on m, the block size among it, is built once.
    ad, cfg = retry_case()
    calls = []
    part_block = learning._part_block
    monkeypatch.setattr(learning, "_part_block", lambda *args: calls.append(args) or part_block(*args))
    assert fixed_point(ad, cfg)[1].splits_used == 34**2
    assert len(calls) == 1


def rank_case(center):
    """The x column is constant but for the one uncertain cell at ``center``, coefficient 0.5:
    one part of a two-way split moves that cell onto the constant."""
    reg = SymbolRegistry()
    sid = reg.new_symbol(SymbolKind.DATA)
    return AbstractDataset(
        X_R=np.column_stack([np.ones(4), [1.0, 1.0, 1.0, center]]),
        y_R=np.array([0.0, 1.0, 0.5, 2.0]), registry=reg, cells=cell_table({sid: (3, 1)}, {sid: 0.5}),
    )


def test_rank_deficient_part_at_lambda_zero_raises(monkeypatch):
    # The first part of a two-way split moves the cell onto the constant.
    ad = rank_case(1.25)
    cfg = RidgeConfig(lam=0.0, split_budget=16)
    monkeypatch.setattr(learning, "_first_split_count", lambda sys, lam, cap: 2)
    np.testing.assert_array_equal(stages.split(ad, 2)[0].X_R[:, 1], 1.0)
    with pytest.raises(np.linalg.LinAlgError, match="rank-deficient"):
        looped_join(stages.split(ad, 2), cfg)
    with pytest.raises(np.linalg.LinAlgError, match="rank-deficient"):
        fixed_point(ad, cfg)


def test_rank_deficient_later_part_at_lambda_zero_raises(monkeypatch):
    # The second part is rank-deficient.  The rank check runs first over the
    # whole stack, so the fit is refused, though solving the parts one by
    # one would stop at part 0, below its threshold, and try m = 3.
    ad = rank_case(0.75)
    cfg = RidgeConfig(lam=0.0, split_budget=16)
    monkeypatch.setattr(learning, "_first_split_count", lambda sys, lam, cap: 2)
    np.testing.assert_array_equal(stages.split(ad, 2)[1].X_R[:, 1], 1.0)
    with pytest.raises(LambdaTooSmall):
        looped_join(stages.split(ad, 2), cfg)
    with pytest.raises(np.linalg.LinAlgError, match="rank-deficient"):
        fixed_point(ad, cfg)


@pytest.mark.parametrize("case, split", [
    (lambda: split_case("features", 3, 0), True),
    (lambda: make_problem("both", 3, 7, 0, lam=5.0), False),
], ids=["split", "unsplit"])
def test_kernel_raises_every_failure_but_infeasibility(monkeypatch, case, split):
    """A check that fails after the threshold's refuses the fit, on both paths."""
    diameters, calls = learning._diameters, []

    def with_a_failing_check(sys, lam, tolerance):
        k, m, infeasible = diameters(sys, lam, tolerance)
        calls.append(infeasible)
        if not infeasible:
            raise ZonoError(f"stack {len(calls)} refused")
        return k, m, infeasible

    ad, cfg = case()
    assert (fixed_point(ad, cfg)[1].splits_used > 1) == split
    monkeypatch.setattr(learning, "_diameters", with_a_failing_check)
    with pytest.raises(ZonoError) as exc:
        fixed_point(ad, cfg)
    # The unsplit stack is infeasible on the split path, so a part stack raises.
    assert (len(calls) > 1) == split and calls[0] == split
    assert type(exc.value) is ZonoError and str(exc.value) == f"stack {len(calls)} refused"


def test_homogeneous_part_skips_the_threshold():
    Q = np.stack([np.diag([1.0, 2.0])] * 2)
    Cprime = np.full((2, 2, 2), 0.5)
    c0 = np.array([[0.0, 0.0], [0.3, 0.1]])
    sys = NonDataSystem(Q=Q, Cprime=Cprime, c0=c0, beta=np.array([5.0, 0.01]), n=4)
    k, _, infeasible = learning._diameters(sys, 0.5, 1e-9)
    assert not infeasible
    np.testing.assert_array_equal(k[0], 0.0)
    one = NonDataSystem(Q=Q[1], Cprime=Cprime[1], c0=c0[1], beta=0.01, n=4)
    np.testing.assert_array_equal(k[1], solve_non_data(one, 0.5))
    # The same homogeneous part with a nonzero constant column is refused.
    sys.c0[0, 0] = 1e-3
    k, _, infeasible = learning._diameters(sys, 0.5, 1e-9)
    assert infeasible and bits(k) == bits(np.zeros((2, 2)))


def test_checks_run_in_order_over_the_stack():
    """The first check that any part fails decides: a part below its threshold makes the
    stack infeasible before any solve, so a singular matrix elsewhere is not reached."""
    # d = 1: beta = (c' - q) / n, and lam = beta makes the matrix exactly 0.
    q = np.array([4.0, 2.0, 1.0])  # regular, singular at lam = 0.25, infeasible
    cp = np.array([1.0, 3.0, 3.0])

    def stack(order):
        return NonDataSystem(
            Q=q[order, None, None], Cprime=cp[order, None, None], c0=np.ones((len(order), 1)),
            beta=(cp[order] - q[order]) / 4, n=4,
        )

    def one(i):
        return NonDataSystem(Q=q[i, None, None], Cprime=cp[i, None, None], c0=np.ones(1),
                             beta=float((cp[i] - q[i]) / 4), n=4)

    k, _, infeasible = learning._diameters(stack([0, 1, 2]), 0.25, 1e-9)
    assert infeasible and bits(k) == bits(np.zeros((3, 1)))
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        learning._diameters(stack([1, 0]), 0.25, 1e-9)
    k, _, infeasible = learning._diameters(stack([0]), 0.25, 1e-9)
    assert not infeasible and bits(k[0]) == bits(solve_non_data(one(0), 0.25))
    with pytest.raises(np.linalg.LinAlgError):
        solve_non_data(one(1), 0.25)


def test_split_budget_refused_before_any_part(monkeypatch):
    ad, cfg = split_case("both", 3, 3, "svd", 0.5)
    called = []
    monkeypatch.setattr(Cells, "move", lambda *args: called.append(args))
    with pytest.raises(SplitBudgetError):
        fixed_point(ad, dataclasses.replace(cfg, split_budget=2))
    assert called == []


@pytest.mark.parametrize(
    "case", [("missing", 3, 1, "svd", 0.7), ("both", 3, 3, "custom", 0.7), ("features", 1, 4, "svd", 0.5)]
)
def test_fit_result_contract_on_both_paths(case):
    """What the unsplit fit and the box join of a split each return."""
    ad, cfg = split_case(*case)
    cells = ad.nonzero_cells()
    weights, diag = fixed_point(ad, dataclasses.replace(cfg, lam=1e3))
    np.testing.assert_array_equal(weights.data_ids, np.flatnonzero(ad.cells.coef))
    assert weights.G_D.shape == (len(cells.coef), ad.d) and weights.G_D.flags.c_contiguous
    assert diag.residual is not None and diag.part_betas is None and diag.splits_used == 1
    assert weights.cell_count == len(ad.cells.coef)

    weights, diag = fixed_point(ad, cfg)
    assert weights.G_D.shape == (0, ad.d)
    assert weights.data_ids.dtype == np.int64 and weights.data_ids.shape == (0,)
    np.testing.assert_array_equal(weights.A, np.eye(ad.d))
    np.testing.assert_array_equal(weights.A_inv, np.eye(ad.d))
    assert (weights.k >= 0).all() and diag.residual is None and weights.cell_count == len(ad.cells.coef)
    s = len(cells.coef)
    m = round(diag.splits_used ** (1 / s))
    assert diag.splits_used == len(diag.part_betas) == m**s and m > 1
    assert bits(diag.m_matrix_margin) == bits(ad.n * (cfg.lam - max(diag.part_betas)))


def bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


def assert_margin_is_n_lam_minus_beta(margin, ad, sys, lam):
    """A fit's margin is, bit for bit, ``n (lam - beta)`` of the one-part system, and agrees
    with the matrix definition up to rounding."""
    assert bits(margin) == bits(ad.n * (lam - sys.beta))
    scale = lam * sys.n + np.abs(sys.coefficient_matrix(lam)).max()
    assert abs(margin - stages.m_matrix_margin(sys, lam)) <= 1e-12 * scale


@pytest.mark.parametrize("transform", ["svd", "identity", "custom"])
@pytest.mark.parametrize("kind", KINDS)
def test_unsplit_fit_is_the_one_part_chain(kind, transform):
    """The unsplit fit equals, bit for bit, the public one-part stage functions in a row."""
    for seed in range(4):
        ad, cfg = make_problem(kind, 3, 7, seed, transform, lam=5.0)
        w_R = ridge_closed_form_real(ad.X_R, ad.y_R, cfg.lam)
        G_D = closed_form_symbolic_data(ad, cfg.lam, w_R)
        A, A_inv = build_transform(ad.X_R, cfg)
        sys = build_non_data_system(ad, cfg.lam, w_R, G_D, A, A_inv)
        k = solve_non_data(sys, cfg.lam)
        weights, diag = fixed_point(ad, cfg)
        assert diag.splits_used == 1
        for got, want in zip((weights.w_R, weights.G_D, weights.k, weights.A, weights.A_inv),
                             (w_R, G_D, k, A, A_inv)):
            assert bits(got) == bits(want)
        assert weights.G_D.flags.c_contiguous
        assert diag.beta == sys.beta
        assert_margin_is_n_lam_minus_beta(diag.m_matrix_margin, ad, sys, cfg.lam)
        chain = dataclasses.replace(weights, w_R=w_R, G_D=G_D, k=k, A=A, A_inv=A_inv)
        assert diag.residual == residual(ad, chain, cfg)


@pytest.mark.parametrize(
    "transform, error",
    [(np.eye(3), ShapeMismatchError), (np.diag([1.0, 1e-14]), IllConditionedError)],
)
def test_unsplit_fit_refuses_rank_deficient_centers_first(transform, error):
    """At lam = 0 rank-deficient centers are refused before a bad custom transform."""

    def toy(X):
        reg = SymbolRegistry()
        sid = reg.new_symbol(SymbolKind.DATA)
        return AbstractDataset(X_R=np.array(X), y_R=np.array([1.0, 2.0, 3.0]), registry=reg,
                               cells=cell_table({sid: (0, LABEL_COL)}, {sid: 0.1}))

    cfg = RidgeConfig(lam=0.0, transform=transform)
    with pytest.raises(np.linalg.LinAlgError, match="rank-deficient"):
        fixed_point(toy([[1.0, 2.0]] * 3), cfg)
    with pytest.raises(error):
        fixed_point(toy([[1.0, 2.0], [1.0, 3.0], [1.0, 5.0]]), cfg)


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call; returns the record."""
    calls, original = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_a_fit_computes_each_intermediate_once(monkeypatch):
    """The residual reuses the fit's right-hand side, and is built on first read, once; the
    margin is ``n (lam - beta)``; each stack builds one coefficient matrix."""
    rhs = counting(monkeypatch, learning, "_data_rhs")
    stacks = counting(monkeypatch, learning, "_fit_stack")
    matrices = counting(monkeypatch, NonDataSystem, "coefficient_matrix")
    reports = counting(monkeypatch, learning, "_residual_report")
    ad, cfg = make_problem("both", 3, 7, 0, lam=5.0)
    weights, diag = fixed_point(ad, cfg)
    assert diag.splits_used == 1 and weights.k.any()
    assert (len(rhs), len(stacks), len(matrices), len(reports)) == (1, 1, 1, 0)
    first = diag.residual
    assert diag.residual is first
    assert (len(rhs), len(matrices), len(reports)) == (1, 1, 1)
    assert bits(dataclasses.astuple(first)) == bits(dataclasses.astuple(residual(ad, weights, cfg)))
    sys = build_non_data_system(ad, cfg.lam, weights.w_R, weights.G_D, weights.A, weights.A_inv)
    assert_margin_is_n_lam_minus_beta(diag.m_matrix_margin, ad, sys, cfg.lam)
    # The report is of the fit's own arrays, whatever the weights hold when it is read.
    weights, diag = fixed_point(ad, cfg)
    want = residual(ad, weights, cfg)
    weights.k = 2.0 * weights.k
    assert diag.residual == want and diag.residual != residual(ad, weights, cfg)
    assert pickle.loads(pickle.dumps(diag)) == diag  # the values, not the deferred function
    # One part per block: the unsplit attempt and every block make one call each.
    monkeypatch.setattr(learning, "CHUNK_ELEMENTS", 1)
    ad, cfg = split_case("features", 3, 0)
    del stacks[:], matrices[:]
    _, diag = fixed_point(ad, cfg)
    assert diag.splits_used > 1
    assert len(matrices) == len(stacks) == 1 + diag.splits_used


def test_a_fit_builds_one_index_plan(monkeypatch):
    """The unsplit stack and every part stack of a split, every block and every m, share one plan."""
    plans = counting(monkeypatch, learning, "_index_plan")
    stacks = counting(monkeypatch, learning, "_fit_stack")
    ad, cfg = make_problem("both", 3, 7, 0, lam=5.0)
    assert fixed_point(ad, cfg)[1].splits_used == 1
    assert (len(plans), len(stacks)) == (1, 1)
    # The retry tries the splits from m = 12 to 34, one stack or more each.
    del plans[:], stacks[:]
    assert fixed_point(*retry_case())[1].splits_used == 34**2
    assert len(plans) == 1 and len(stacks) >= 1 + 23
    monkeypatch.setattr(learning, "CHUNK_ELEMENTS", 1)  # one part per block
    del plans[:], stacks[:]
    assert fixed_point(*split_case("features", 3, 0))[1].splits_used > 1
    assert len(plans) == 1 and len(stacks) > 2


@pytest.mark.parametrize(
    "target, d, n, lam, radius", [("labels", 8, 500, 0.01, 0.05), ("both", 5, 100, 1.0, 0.02)]
)
def test_fit_residual_and_margin_are_those_of_the_assembled_system(target, d, n, lam, radius):
    """On workload-shaped problems the residual equals, bit for bit, a rebuild from the weights,
    and the margin is ``n (lam - beta)`` of the rebuilt system."""
    rng = np.random.default_rng(d)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
    y = X @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
    ds = Dataset(X=X, y=y, columns=["bias"] + [f"f{j}" for j in range(d - 1)])
    ad = zonoridge.inject_uncertainty(ds, zonoridge.UncertaintySpec(target, 0.1, radius, seed=3))
    assert len(ad.label_symbols()) == n // 10 and len(ad.cells.coef) == 50
    if target == "both":
        assert set(ad.cells.rows[ad.cells.cols != LABEL_COL]) == set(ad.cells.rows)
    cfg = RidgeConfig(lam=lam)
    weights, diag = fixed_point(ad, cfg)
    assert diag.splits_used == 1
    assert diag.residual == residual(ad, weights, cfg)
    sys = build_non_data_system(ad, cfg.lam, weights.w_R, weights.G_D, weights.A, weights.A_inv)
    assert_margin_is_n_lam_minus_beta(diag.m_matrix_margin, ad, sys, cfg.lam)


@pytest.mark.parametrize(
    "homogeneous",
    [[True, False, True, False], [False, True], [True, True, True], [True, False, False]],
)
def test_diameters_without_a_part_to_solve(monkeypatch, homogeneous):
    """Homogeneous and infeasible parts only: k = 0, nothing solved, and the stack is
    infeasible when a part alone is refused as below its threshold."""
    rng = np.random.default_rng(len(homogeneous))
    P, d, n, lam = len(homogeneous), 3, 10, 0.5
    Q = np.stack([np.diag(rng.uniform(0.5, 1.0, d)) for _ in range(P)])
    cprime = rng.uniform(2.0, 4.0, (P, d, d))  # beta > 0.5 in every part
    h = rng.uniform(0.1, 1.0, (P, d)) * ~np.array(homogeneous)[:, None]
    sys = learning._system(Q, cprime, h, n)
    assert (sys.beta > lam).all()
    refused = []
    for p in range(P):
        one = NonDataSystem(Q=Q[p], Cprime=cprime[p], c0=sys.c0[p], beta=float(sys.beta[p]), n=n)
        try:
            solve_non_data(one, lam)
            refused.append(False)
        except LambdaTooSmall:
            refused.append(True)
    monkeypatch.setattr(np.linalg, "solve", None)  # no part reaches the solve
    k, m, infeasible = learning._diameters(sys, lam, learning.TOLERANCE)
    assert bits(k) == bits(np.zeros((P, d)))
    assert bits(m) == bits(sys.coefficient_matrix(lam))
    assert infeasible == any(refused) == (not all(homogeneous))
