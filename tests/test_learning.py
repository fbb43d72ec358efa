import dataclasses

import numpy as np
import pytest
from conftest import cell_table
from stages import (
    build_non_data_system,
    build_transform,
    closed_form_symbolic_data,
    residual,
    ridge_closed_form_real,
    solve_non_data,
)

from zonoridge import learning
from zonoridge.dataset import LABEL_COL, AbstractDataset, Dataset, UncertaintySpec, inject_uncertainty
from zonoridge.errors import (
    DataError,
    IllConditionedError,
    LambdaTooSmall,
    ShapeMismatchError,
    SplitBudgetError,
)
from zonoridge.learning import (
    AbstractWeights,
    RidgeConfig,
    contains_world_weights,
    fixed_point,
)
from zonoridge.oracles import ridge_concrete, sample_worlds
from zonoridge.symbols import SymbolKind, SymbolRegistry


def make_dataset(n, d_feat, seed, y_noise=0.1):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.uniform(-1, 2, size=(n, d_feat))])
    w_true = rng.uniform(-2, 2, size=d_feat + 1)
    y = X @ w_true + y_noise * rng.standard_normal(n)
    cols = ["bias"] + [f"f{i}" for i in range(d_feat)]
    return Dataset(X=X, y=y, columns=cols)


def abstract_cells(ds, cells, half_widths):
    """Abstract dataset with explicitly chosen uncertain cells."""
    reg = SymbolRegistry()
    prov, coeffs = {}, {}
    for (r, c), hw in zip(cells, half_widths):
        sid = reg.new_symbol(SymbolKind.DATA)
        prov[sid] = (r, c)
        coeffs[sid] = hw
    return AbstractDataset(
        X_R=ds.X.copy(), y_R=ds.y.copy(), registry=reg,
        cells=cell_table(prov, coeffs),
        columns=list(ds.columns), label_name=ds.label_name,
    )


def gradient_descent_ridge(X, y, lam, steps=200_000, eta=None):
    n, d = X.shape
    gram = X.T @ X
    if eta is None:
        eta = 0.9 / (2 * lam + 2 * np.linalg.eigvalsh(gram).max() / n)
    w = np.zeros(d)
    for _ in range(steps):
        grad = (2 / n) * (gram @ w - X.T @ y) + 2 * lam * w
        w_next = w - eta * grad
        if np.max(np.abs(w_next - w)) < 1e-14:
            return w_next
        w = w_next
    return w


@pytest.mark.parametrize("lam", [-0.1, float("nan"), float("inf"), float("-inf")])
def test_ridge_config_refuses_a_negative_or_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="lam must be >= 0 and finite"):
        RidgeConfig(lam=lam)


def test_diameter_checks_refuse_a_non_finite_beta_or_k():
    """NaN passes every comparison, so the kernel's checks test finiteness first."""
    c0 = np.array([[1.0, 1.0], [np.inf, 1.0], [1.0, 1.0]])
    sys = learning.NonDataSystem(Q=np.repeat(np.eye(2)[None], 3, axis=0), Cprime=np.zeros((3, 2, 2)),
                                 c0=c0, beta=np.array([0.0, 0.0, np.nan]), n=4)
    # The beta check comes first: part 2's NaN decides, though part 1's k would be infinite.
    for beta, message in ((sys.beta, "threshold beta = nan is not finite"),
                          (np.zeros(3), "box diameters are not finite")):
        sys.beta = beta
        with pytest.raises(DataError) as exc:
            learning._diameters(sys, 0.1, learning.TOLERANCE)
        assert type(exc.value) is DataError and str(exc.value) == message


def refused_split_start():
    """At lam = 0 a custom transform gives ``A X'X A^-1`` the diagonal (-12, 30): no m helps."""
    ds = Dataset(X=np.column_stack([np.ones(4), [0.0, 1.0, 2.0, 3.0]]),
                 y=np.array([0.0, 1.0, 0.5, 2.0]), columns=["bias", "x"])
    ad = abstract_cells(ds, [(1, 1)], [0.5])
    cfg = RidgeConfig(lam=0.0, transform=np.array([[1.0, 0.5], [1.0, 1.0]]))
    w_R = ridge_closed_form_real(ad.X_R, ad.y_R, cfg.lam)
    A, A_inv = build_transform(ad.X_R, cfg)
    sys = build_non_data_system(ad, cfg.lam, w_R, closed_form_symbolic_data(ad, cfg.lam, w_R),
                                A, A_inv)
    np.testing.assert_allclose(np.diag(sys.Q), [-12.0, 30.0])
    assert sys.beta == 8.6875 and sys.c0.any()
    fixed_point(ad, cfg)


def nan_transform():
    fixed_point(abstract_cells(make_dataset(6, 1, seed=4), [(0, LABEL_COL)], [0.1]),
                RidgeConfig(lam=0.1, transform=np.array([[1.0, 0.0], [np.nan, 1.0]])))


@pytest.mark.parametrize("refuse, error, message", [
    (lambda: RidgeConfig(transform="qr"), ValueError, "unknown transform 'qr'"),
    (lambda: RidgeConfig(split_budget=0), ValueError, "split budget must be >= 1"),
    (lambda: RidgeConfig(split_budget=-1), ValueError, "split budget must be >= 1"),
    (refused_split_start, IllConditionedError,
     "custom transform gives A X'X A^-1 diagonal entry 0 = -12 <= -lam n: no split can help"),
    (nan_transform, IllConditionedError, "custom transform has a non-finite entry"),
], ids=["unknown-transform", "split-budget-0", "split-budget-negative", "split-start",
        "nan-transform"])
def test_refusals(refuse, error, message):
    with pytest.raises(error) as exc:
        refuse()
    assert type(exc.value) is error and str(exc.value) == message


class TestRidgeClosedFormReal:
    def test_exact_fit(self):
        w = ridge_closed_form_real(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), 0.0)
        assert w == pytest.approx([1.0])

    def test_direct_substitution(self):
        # two identical rows, lam=0.5, n=2: w = 2 / (2 + 1)
        w = ridge_closed_form_real(np.array([[1.0], [1.0]]), np.array([1.0, 1.0]), 0.5)
        assert w == pytest.approx([2.0 / 3.0])

    def test_matches_gradient_descent(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        lam = 0.1
        w_closed = ridge_closed_form_real(X, y, lam)
        w_gd = gradient_descent_ridge(X, y, lam)
        np.testing.assert_allclose(w_closed, w_gd, atol=1e-10)

    def test_singular_at_lambda_zero(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(np.linalg.LinAlgError):
            ridge_closed_form_real(X, np.array([1.0, 2.0]), 0.0)


class TestClosedFormSymbolicData:
    def test_certain_data_gives_zero(self):
        ds = make_dataset(8, 2, seed=1)
        ad = abstract_cells(ds, [], [])
        w_R = ridge_closed_form_real(ad.X_R, ad.y_R, 0.1)
        assert len(closed_form_symbolic_data(ad, 0.1, w_R)) == 0

    def test_single_row_label_symbol(self):
        # n=1, d=1 (no bias), X=[1], y=0+eps, lam=0 -> w_D = eps
        reg = SymbolRegistry()
        sid = reg.new_symbol(SymbolKind.DATA)
        ad = AbstractDataset(
            X_R=np.array([[1.0]]), y_R=np.array([0.0]), registry=reg,
            cells=cell_table({sid: (0, LABEL_COL)}, {sid: 1.0}),
            columns=["f0"],
        )
        w_R = ridge_closed_form_real(ad.X_R, ad.y_R, 0.0)
        w_D = closed_form_symbolic_data(ad, 0.0, w_R)
        assert w_D[0] == pytest.approx([1.0])

    def test_label_only_coefficients_match_projection(self):
        ds = make_dataset(12, 2, seed=2)
        lam = 0.05
        cells = [(3, LABEL_COL), (7, LABEL_COL)]
        ad = abstract_cells(ds, cells, [0.4, 0.9])
        w_R = ridge_closed_form_real(ad.X_R, ad.y_R, lam)
        w_D = closed_form_symbolic_data(ad, lam, w_R)
        n, d = ds.X.shape
        M = np.linalg.solve(ds.X.T @ ds.X + lam * n * np.eye(d), ds.X.T)
        for j, (r, coef) in enumerate(zip(ad.cells.rows, ad.cells.coef)):
            np.testing.assert_allclose(w_D[j], M[:, r] * coef, atol=1e-12)


class TestBuildTransform:
    def test_identity(self):
        ds = make_dataset(10, 2, seed=3)
        A, A_inv = build_transform(ds.X, RidgeConfig(lam=0.1, transform="identity"))
        np.testing.assert_array_equal(A, np.eye(3))

    def test_svd_diagonalizes(self):
        ds = make_dataset(30, 3, seed=4)
        A, A_inv = build_transform(ds.X, RidgeConfig(lam=0.1))
        gram = ds.X.T @ ds.X
        Q = A @ gram @ A_inv
        off = Q - np.diag(np.diag(Q))
        assert np.max(np.abs(off)) < 1e-9 * np.max(np.abs(Q))
        np.testing.assert_allclose(A @ A_inv, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(
            np.sort(np.diag(Q)), np.sort(np.linalg.eigvalsh(gram)), rtol=1e-9
        )

    def test_diagonal_gram_gives_signed_permutation(self):
        X = np.diag([3.0, 1.0, 2.0])
        A, _ = build_transform(X, RidgeConfig(lam=0.0))
        assert np.allclose(np.abs(A) @ np.abs(A).T, np.eye(3), atol=1e-12)


class TestBuildNonDataSystem:
    def test_certain_data(self):
        ds = make_dataset(10, 2, seed=5)
        cfg = RidgeConfig(lam=0.1)
        ad = abstract_cells(ds, [], [])
        w_R = ridge_closed_form_real(ad.X_R, ad.y_R, cfg.lam)
        A, A_inv = build_transform(ad.X_R, cfg)
        sys = build_non_data_system(ad, cfg.lam, w_R, np.zeros((0, ad.d)), A, A_inv)
        assert np.all(sys.Cprime == 0.0) and np.all(sys.c0 == 0.0)
        assert sys.beta == pytest.approx(-np.min(np.diag(sys.Q)) / ds.n)
        assert sys.beta <= 0

    def test_d1_hand_expansion(self):
        # Single feature column (no bias), one uncertain cell x -> x + g*eps.
        # Expanding X'Xs + Xs'X + Xs'Xs by hand gives 2*x*g*eps + g^2*eps^2,
        # so with A = 1 the absolute coefficient sum is 2|x g| + g^2 and the
        # constant column is (2/n) * |coefficients| of the w-independent
        # gradient part.
        reg = SymbolRegistry()
        sid = reg.new_symbol(SymbolKind.DATA)
        X = np.array([[1.5], [2.0], [-1.0]])
        y = np.array([1.0, -1.0, 0.5])
        g = 0.7
        row = 1
        ad = AbstractDataset(
            X_R=X, y_R=y, registry=reg,
            cells=cell_table({sid: (row, 0)}, {sid: g}),
            columns=["f0"],
        )
        lam = 0.2
        w_R = ridge_closed_form_real(X, y, lam)
        w_D = closed_form_symbolic_data(ad, lam, w_R)
        sys = build_non_data_system(ad, lam, w_R, w_D, np.eye(1), np.eye(1))
        x_cell = X[row, 0]
        assert sys.Cprime[0, 0] == pytest.approx(2 * abs(x_cell * g) + g * g, rel=1e-12)
        # Constant part (y_S = 0 here): (2 x g eps + g^2 eps^2) w_D + g^2 eps^2 w_R
        # with w_D = wd * eps, so monomials eps^2: 2 x g wd + g^2 w_R and
        # eps^3: g^2 wd; coefficient sums taken per distinct monomial.
        wd = w_D[0][0]
        mono_sq = abs(2 * x_cell * g * wd + g * g * w_R[0])
        mono_cube = abs(g * g * wd)
        n = X.shape[0]
        expected_c0 = (2.0 / n) * (mono_sq + mono_cube)
        assert sys.c0[0] == pytest.approx(expected_c0, rel=1e-12)
        # Scalar solve matches k = (n/2) c0 / (lam n + q - c').
        k = solve_non_data(sys, lam)
        expected_k = (n / 2) * sys.c0[0] / (lam * n + sys.Q[0, 0] - sys.Cprime[0, 0])
        assert k[0] == pytest.approx(expected_k, rel=1e-12)

    def test_beta_nonpositive_for_small_radius(self):
        ds = make_dataset(25, 2, seed=6)
        spec = UncertaintySpec(target="features", percentage=0.2, radius=0.05, seed=3)
        ad = inject_uncertainty(ds, spec)
        cfg = RidgeConfig(lam=0.0)
        w_R = ridge_closed_form_real(ad.X_R, ad.y_R, 0.0)
        w_D = closed_form_symbolic_data(ad, 0.0, w_R)
        A, A_inv = build_transform(ad.X_R, cfg)
        sys = build_non_data_system(ad, 0.0, w_R, w_D, A, A_inv)
        assert sys.beta <= 0.0


class TestSolveNonData:
    def test_homogeneous(self):
        ds = make_dataset(10, 2, seed=7)
        ad = abstract_cells(ds, [], [])
        w_R = ridge_closed_form_real(ds.X, ds.y, 0.1)
        sys_zero = build_non_data_system(ad, 0.1, w_R, np.zeros((0, ad.d)), np.eye(3), np.eye(3))
        assert solve_non_data(sys_zero, 0.1) == pytest.approx(np.zeros(3))

    def test_feasible_residual_and_nonnegativity(self):
        ds = make_dataset(20, 3, seed=8)
        spec = UncertaintySpec(target="both", percentage=0.2, radius=0.08, seed=9)
        ad = inject_uncertainty(ds, spec)
        cfg = RidgeConfig(lam=0.05)
        w_R = ridge_closed_form_real(ad.X_R, ad.y_R, cfg.lam)
        w_D = closed_form_symbolic_data(ad, cfg.lam, w_R)
        A, A_inv = build_transform(ad.X_R, cfg)
        sys = build_non_data_system(ad, cfg.lam, w_R, w_D, A, A_inv)
        k = solve_non_data(sys, cfg.lam)
        m = sys.coefficient_matrix(cfg.lam)
        rhs = (sys.n / 2) * sys.c0
        assert np.max(np.abs(m @ k - rhs)) < 1e-10 * (1 + np.max(np.abs(rhs)))
        assert np.all(k >= 0)

    def test_lambda_too_small(self):
        ds = make_dataset(4, 1, seed=10)
        ad = abstract_cells(ds, [(0, 1), (2, 1)], [4.0, 4.0])
        cfg = RidgeConfig(lam=0.0)
        w_R = ridge_closed_form_real(ad.X_R, ad.y_R, 0.0)
        w_D = closed_form_symbolic_data(ad, 0.0, w_R)
        A, A_inv = build_transform(ad.X_R, cfg)
        sys = build_non_data_system(ad, 0.0, w_R, w_D, A, A_inv)
        assert sys.beta > 0
        with pytest.raises(LambdaTooSmall):
            solve_non_data(sys, 0.0)


class TestFixedPoint:
    def test_certain_data_reproduces_concrete_ridge(self):
        ds = make_dataset(15, 2, seed=11)
        ad = abstract_cells(ds, [], [])
        weights, diag = fixed_point(ad, RidgeConfig(lam=0.1))
        np.testing.assert_allclose(weights.w_R, ridge_concrete(ds.X, ds.y, 0.1), atol=1e-12)
        assert len(weights.data_ids) == 0
        assert np.all(weights.k == 0.0)
        assert diag.splits_used == 1

    def test_label_only_k_zero(self):
        ds = make_dataset(18, 2, seed=12)
        spec = UncertaintySpec(target="labels", percentage=0.3, radius=0.2, seed=13)
        ad = inject_uncertainty(ds, spec)
        weights, diag = fixed_point(ad, RidgeConfig(lam=0.02))
        assert np.all(weights.k == 0.0)
        assert diag.residual.data_residual < 1e-9
        assert diag.residual.box_residual == 0.0

    def test_sampled_worlds_contained(self):
        ds = make_dataset(10, 2, seed=14)
        spec = UncertaintySpec(target="features", percentage=0.2, radius=0.08, seed=15)
        ad = inject_uncertainty(ds, spec)
        cfg = RidgeConfig(lam=0.1)
        weights, _ = fixed_point(ad, cfg)
        for wa, X, y in sample_worlds(ad, 200, seed=16):
            w_star = ridge_concrete(X, y, cfg.lam)
            assert contains_world_weights(weights, wa.values, w_star)

    def test_split_budget_error(self):
        ds = make_dataset(4, 1, seed=17)
        ad = abstract_cells(ds, [(0, 1), (1, 1), (2, 1)], [5.0, 5.0, 5.0])
        with pytest.raises(SplitBudgetError):
            fixed_point(ad, RidgeConfig(lam=0.0, split_budget=8))

    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    def test_fit_takes_no_symbols_from_the_registry(self, split):
        if split:
            ad, lam = abstract_cells(make_dataset(4, 1, seed=19), [(1, 1)], [6.0]), 0.05
        else:
            spec = UncertaintySpec(target="both", percentage=0.25, radius=0.1, seed=23)
            ad, lam = inject_uncertainty(make_dataset(14, 3, seed=22), spec), 0.05
        before = len(ad.registry)
        weights, diag = fixed_point(ad, RidgeConfig(lam=lam))
        assert (diag.splits_used > 1) == split
        assert len(ad.registry) == before
        assert weights.generators().shape == (ad.d, len(weights.data_ids) + ad.d)


class TestDetermineNumSplits:
    def test_split_instance_reaches_feasibility(self):
        ds = make_dataset(4, 1, seed=19)
        ad = abstract_cells(ds, [(1, 1)], [6.0])
        cfg = RidgeConfig(lam=0.05, split_budget=4096)
        w_R = ridge_closed_form_real(ad.X_R, ad.y_R, cfg.lam)
        w_D = closed_form_symbolic_data(ad, cfg.lam, w_R)
        A, A_inv = build_transform(ad.X_R, cfg)
        sys = build_non_data_system(ad, cfg.lam, w_R, w_D, A, A_inv)
        assert sys.beta > cfg.lam
        m = learning._first_split_count(sys, cfg.lam, cfg.split_budget + 1)
        assert m >= 2
        weights, diag = fixed_point(ad, cfg)
        assert diag.splits_used > 1
        # per-part betas were re-checked inside fixed_point; the join must
        # cover sampled worlds
        for wa, X, y in sample_worlds(ad, 100, seed=20):
            w_star = ridge_concrete(X, y, cfg.lam)
            assert contains_world_weights(weights, wa.values, w_star)


class TestVerifyResidual:
    def test_certain_data_zero_residuals(self):
        ds = make_dataset(12, 2, seed=21)
        ad = abstract_cells(ds, [], [])
        cfg = RidgeConfig(lam=0.1)
        weights, diag = fixed_point(ad, cfg)
        rep = diag.residual
        assert rep.real_residual < 1e-12
        assert rep.data_residual == 0.0
        assert rep.box_residual == 0.0

    def test_feature_uncertain_self_consistency(self):
        ds = make_dataset(14, 3, seed=22)
        spec = UncertaintySpec(target="both", percentage=0.25, radius=0.1, seed=23)
        ad = inject_uncertainty(ds, spec)
        cfg = RidgeConfig(lam=0.05)
        weights, diag = fixed_point(ad, cfg)
        rep = diag.residual
        assert rep.box_residual < 1e-8 * (1 + np.max(weights.k))
        # The normalized residual is the true system residual; it must also
        # be tiny, which pins the scalar bookkeeping of the assembly.
        assert rep.box_residual_normalized < 1e-8 * (1 + np.max(weights.k))
        # fixed_point reuses the system it assembled; rebuilding it gives the same report.
        assert rep == residual(ad, weights, cfg)
        # The step is taken at the lambda of the given config, not the fit's.
        other = residual(ad, weights, RidgeConfig(lam=10 * cfg.lam))
        assert other.real_residual > 1e-6 and other.box_residual > 1e-6

    def test_detects_broken_k(self):
        ds = make_dataset(14, 2, seed=24)
        spec = UncertaintySpec(target="features", percentage=0.3, radius=0.15, seed=25)
        ad = inject_uncertainty(ds, spec)
        cfg = RidgeConfig(lam=0.1)
        weights, _ = fixed_point(ad, cfg)
        assert np.max(weights.k) > 0
        broken = AbstractWeights(
            w_R=weights.w_R, G_D=weights.G_D, data_ids=weights.data_ids, k=weights.k * 0.5,
            A=weights.A, A_inv=weights.A_inv, registry=weights.registry,
        )
        rep = residual(ad, broken, cfg)
        assert rep.box_residual_normalized > 1e-6


class TestContainsWorldWeights:
    def test_certain_center(self):
        ds = make_dataset(10, 2, seed=26)
        ad = abstract_cells(ds, [], [])
        weights, _ = fixed_point(ad, RidgeConfig(lam=0.1))
        assert contains_world_weights(weights, np.zeros(0), weights.w_R)

    def test_perturbed_point_rejected(self):
        ds = make_dataset(10, 2, seed=27)
        spec = UncertaintySpec(target="features", percentage=0.2, radius=0.1, seed=28)
        ad = inject_uncertainty(ds, spec)
        weights, _ = fixed_point(ad, RidgeConfig(lam=0.1))
        e = np.array([0.0 for s in ad.data_symbols()])
        if np.max(weights.k) == 0:
            pytest.skip("instance produced a degenerate box")
        direction = weights.A_inv[:, int(np.argmax(weights.k))]
        w_bad = weights.w_R + 10 * np.max(weights.k) * direction / np.linalg.norm(direction)
        assert not contains_world_weights(weights, e, w_bad)


def looped_contains(weights, e_data, w_star, tol=None):
    """``contains_world_weights`` with the data part summed one generator at a time."""
    w_star = np.asarray(w_star, dtype=float)
    if tol is None:
        tol = 1e-7 * (1.0 + float(np.max(np.abs(w_star))))
    w_D = np.zeros(weights.dim)
    for sid, gen in zip(weights.data_ids, weights.G_D):
        w_D += gen * e_data[sid]
    r = weights.A @ (w_star - weights.w_R - w_D)
    for i in range(weights.dim):
        if weights.k[i] > 0.0:
            if abs(r[i]) > weights.k[i] * (1.0 + 1e-12) + tol:
                return False
        elif abs(r[i]) > tol:
            return False
    return True


def manual_weights(w_R, gens, k, A):
    reg = SymbolRegistry()
    sids = reg.new_symbols(len(gens), SymbolKind.DATA)
    return AbstractWeights(
        w_R=np.asarray(w_R, dtype=float),
        G_D=np.asarray(gens, dtype=float).reshape(len(sids), len(w_R)), data_ids=np.array(sids, dtype=np.int64),
        k=np.asarray(k, dtype=float), A=np.asarray(A, dtype=float),
        A_inv=np.linalg.inv(A), registry=reg,
    )


class TestContainmentMatchesTheLoop:
    def test_random_weights_same_verdict(self):
        rng = np.random.default_rng(40)
        verdicts = []
        for _ in range(300):
            d, S = int(rng.integers(1, 7)), int(rng.integers(0, 30))
            k = rng.uniform(0.0, 1.0, d) * (rng.random(d) < 0.7)
            weights = manual_weights(
                rng.standard_normal(d), rng.standard_normal((S, d)), k,
                np.eye(d) + 0.3 * rng.standard_normal((d, d)),
            )
            e = np.array([float(rng.uniform(-1, 1)) for s in weights.data_ids.tolist()])
            # The product sums in another order than the loop: equal to S ulps.
            terms = [g * e[s] for s, g in zip(weights.data_ids.tolist(), weights.G_D)]
            looped = np.sum(terms, axis=0) if terms else np.zeros(d)
            bound = S * np.finfo(float).eps * np.abs(terms).sum(axis=0) if terms else 0.0
            assert np.all(np.abs(weights.w_D(e) - looped) <= bound)
            # Inside the box, on its faces or beyond them; degenerate dimensions
            # land inside or outside the tolerance.
            u = rng.choice([0.5, 1.0, 1.5], d) * rng.choice([-1.0, 1.0], d)
            box = np.where(k > 0, k * u, rng.choice([0.0, 1e-3], d) * u)
            w_star = weights.w_R + weights.w_D(e) + weights.A_inv @ box
            verdict = contains_world_weights(weights, e, w_star)
            assert verdict == looped_contains(weights, e, w_star)
            verdicts.append(verdict)
        assert 50 < sum(verdicts) < 250

    def test_one_ulp_either_side_of_the_bound(self):
        # A = I, w_R = 0 and a dyadic data part make r = w* - w_D exact, so
        # the test sits on the float boundary k (1 + 1e-12) + tol itself.
        weights = manual_weights([0.0, 0.0], [[0.5, 0.0], [0.25, 0.0]], [0.6, 0.0], np.eye(2))
        s1, s2 = weights.data_ids.tolist()
        e = np.empty(2)
        e[s1], e[s2] = 0.75, -0.5
        w_D = weights.w_D(e)
        assert w_D.tolist() == [0.25, 0.0]
        tol = 1e-3
        for dim, bound in ((0, 0.6 * (1.0 + 1e-12) + tol), (1, tol)):
            for sign in (1.0, -1.0):
                for r, inside in (
                    (bound, True),
                    (np.nextafter(bound, 0.0), True),
                    (np.nextafter(bound, np.inf), False),
                ):
                    w_star = w_D.copy()
                    w_star[dim] += sign * r
                    assert w_star[dim] - w_D[dim] == sign * r
                    assert contains_world_weights(weights, e, w_star, tol) is inside
                    assert looped_contains(weights, e, w_star, tol) is inside

    def test_degenerate_dimensions_need_the_tolerance(self):
        weights = manual_weights([1.0, 2.0], [[0.5, -1.0]], [0.0, 0.0], np.eye(2))
        (s,) = weights.data_ids.tolist()
        assert s == 0
        center = weights.w_R + weights.w_D(np.array([0.5]))
        assert contains_world_weights(weights, np.array([0.5]), center)
        assert not contains_world_weights(weights, np.array([0.5]), center + [0.0, 1e-5])
        assert not contains_world_weights(weights, np.array([-0.5]), center)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("A", [np.eye(2), [[1.0, 0.5], [0.5, 1.0]]])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_weights_never_inside(self, bad, A):
        # With a dense A, w* = [inf, inf] gives r = [inf, inf] and tol = inf:
        # every bound is infinite and only the finiteness check refuses it.
        weights = manual_weights([1.0, 2.0], [[0.5, -1.0]], [0.3, 0.0], A)
        (s,) = weights.data_ids.tolist()
        assert s == 0
        e = np.array([0.5])
        center = weights.w_R + weights.w_D(e)
        assert contains_world_weights(weights, e, center)
        for w_star in ([bad, bad], [bad, center[1]], [1e9, bad], [center[0], bad]):
            assert not contains_world_weights(weights, e, w_star)
            assert not contains_world_weights(weights, e, w_star, tol=1e-3)
        # A non-finite assignment value is no point of the cube: no world at all.
        with pytest.raises(ValueError, match=r"assignments must lie in \[-1, 1\]"):
            contains_world_weights(weights, np.array([bad]), center)

    def test_split_weights_without_data_part(self):
        # One feature cell wide enough that beta exceeds lambda, so the fit splits.
        ad = abstract_cells(make_dataset(5, 1, seed=41), [(2, 1)], [4.0])
        weights, diag = fixed_point(ad, RidgeConfig(lam=0.05))
        assert diag.splits_used > 1 and len(weights.data_ids) == 0
        rng = np.random.default_rng(42)
        for _ in range(50):
            e = np.array([float(rng.uniform(-1, 1)) for s in ad.data_symbols()])
            w_star = weights.w_R + weights.A_inv @ (weights.k * rng.uniform(-1.3, 1.3, weights.dim))
            assert contains_world_weights(weights, e, w_star) == looped_contains(weights, e, w_star)
            # The join records the cell count, so only hand-built weights take a row of another length.
            empty, unrecorded = np.zeros(0), dataclasses.replace(weights, cell_count=None)
            assert contains_world_weights(unrecorded, empty, w_star) == looped_contains(weights, empty, w_star)
            with pytest.raises(ShapeMismatchError, match="row of 1 cell values"):
                contains_world_weights(weights, empty, w_star)

    def test_rows_skip_zero_coefficient_entries(self):
        # Every other entry has a zero coefficient: the fit's data_ids skip
        # them, and the row's value there must not reach the data part.
        spec = UncertaintySpec(target="both", percentage=0.25, radius=0.1, seed=44)
        ad = inject_uncertainty(make_dataset(12, 2, seed=43), spec)
        ad.cells.coef[::2] = 0.0
        weights, diag = fixed_point(ad, RidgeConfig(lam=0.1))
        assert diag.splits_used == 1 and np.max(weights.k) > 0
        assert weights.data_ids.tolist() == ad.split_symbols() == ad.data_symbols()[1::2]
        rng = np.random.default_rng(45)
        verdicts = []
        for wa, X, y in sample_worlds(ad, 50, seed=46):
            e = dict(zip(ad.data_symbols(), wa.values.tolist()))
            box = weights.A_inv @ (weights.k * rng.uniform(-1.3, 1.3, weights.dim))
            for w_star in (ridge_concrete(X, y, 0.1), weights.w_R + weights.w_D(wa.values) + box):
                verdict = contains_world_weights(weights, wa.values, w_star)
                assert verdict == looped_contains(weights, e, w_star)
                verdicts.append(verdict)
        assert 50 < sum(verdicts) < 100

