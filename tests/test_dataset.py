from itertools import product

import numpy as np
import pytest
import stages
from conftest import cell_index

from form_algebra import x_symbolic, y_symbolic
from zonoridge.dataset import (
    LABEL_COL,
    AbstractDataset,
    Cells,
    Dataset,
    UncertaintySpec,
    abstract_missing,
    domain_ranges,
    inject_uncertainty,
    load_csv,
    train_test_split,
)
from zonoridge.errors import DataError, EmptyDataError, SplitBudgetError
from zonoridge.symbols import SymbolRegistry


@pytest.fixture
def csv_file(tmp_path):
    def write(text, name="data.csv"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


class TestLoadCsv:
    def test_three_rows(self, csv_file):
        path = csv_file("a,b,target\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(path, "target")
        assert ds.n == 3 and ds.d == 3
        assert ds.columns == ["bias", "a", "b"]
        np.testing.assert_array_equal(ds.X[:, 0], np.ones(3))
        np.testing.assert_array_equal(ds.y, [3.0, 6.0, 9.0])

    def test_header_only_errors(self, csv_file):
        with pytest.raises(EmptyDataError):
            load_csv(csv_file("a,b,target\n"), "target")

    def test_missing_file(self):
        with pytest.raises(DataError):
            load_csv("/nonexistent/file.csv", "y")

    def test_missing_label_column(self, csv_file):
        with pytest.raises(DataError):
            load_csv(csv_file("a,b\n1,2\n"), "target")

    def test_non_numeric_cell(self, csv_file):
        with pytest.raises(DataError):
            load_csv(csv_file("a,target\nfoo,1\n"), "target")

    @pytest.mark.parametrize("features", [["a", "target"], ["target"], ["a", "a"]])
    def test_label_or_repeated_feature_errors(self, csv_file, features):
        with pytest.raises(DataError, match="repeat a name or include the label"):
            load_csv(csv_file("a,b,target\n1,2,3\n"), "target", feature_columns=features)

    @pytest.mark.parametrize("header", ["a,a,target", "a,target,target", "a,b,a,target"])
    def test_repeated_header_name_errors(self, csv_file, header):
        row = ",".join("1" for _ in header.split(","))
        for features in (None, ["a"]):
            with pytest.raises(DataError, match="header repeats a column name"):
                load_csv(csv_file(f"{header}\n{row}\n"), "target", feature_columns=features)

    def test_missing_markers_become_nan(self, csv_file):
        ds = load_csv(csv_file("a,b,target\n1,?,3\n,5,6\n"), "target")
        assert np.isnan(ds.X[0, 2]) and np.isnan(ds.X[1, 1])

    def test_blank_rows_skipped(self, csv_file):
        ds = load_csv(csv_file("a,target\n1,2\n\n , \n3,4\n"), "target")
        np.testing.assert_array_equal(ds.y, [2.0, 4.0])

    def test_row_order_preserved_and_feature_subset(self, csv_file):
        path = csv_file("a,b,target\n10,1,0\n20,2,0\n30,3,0\n")
        ds = load_csv(path, "target", feature_columns=["b"])
        assert ds.columns == ["bias", "b"]
        np.testing.assert_array_equal(ds.X[:, 1], [1.0, 2.0, 3.0])

    def test_mpg_shaped_file(self, csv_file):
        rng = np.random.default_rng(0)
        rows = "\n".join(
            f"{rng.integers(3, 9)},{rng.uniform(40, 230):.1f},{rng.uniform(1600, 5200):.0f},{rng.uniform(9, 47):.1f}"
            for _ in range(392)
        )
        path = csv_file("cylinders,horsepower,weight,mpg\n" + rows + "\n")
        ds = load_csv(path, "mpg", feature_columns=["cylinders", "horsepower", "weight"])
        assert ds.n == 392 and ds.d == 4


class TestTrainTestSplit:
    def test_sizes(self):
        ds = _toy(10)
        tr, te = train_test_split(ds, 0.8, seed=0)
        assert (tr.n, te.n) == (8, 2)

    def test_same_seed_identical(self):
        ds = _toy(20)
        a = train_test_split(ds, 0.7, seed=5)
        b = train_test_split(ds, 0.7, seed=5)
        np.testing.assert_array_equal(a[0].X, b[0].X)
        np.testing.assert_array_equal(a[1].y, b[1].y)

    def test_392_rows(self):
        ds = _toy(392)
        tr, te = train_test_split(ds, 0.8, seed=1)
        assert tr.n == 313 and te.n == 79  # floor(0.8 * 392)

    def test_disjoint_cover(self):
        ds = _toy(12)
        tr, te = train_test_split(ds, 0.5, seed=2)
        all_labels = sorted(np.concatenate([tr.y, te.y]).tolist())
        assert all_labels == sorted(ds.y.tolist())

    def test_empty_side_errors(self):
        with pytest.raises(DataError):
            train_test_split(_toy(3), 0.01, seed=0)


def _toy(n, d_feat=2, seed=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.uniform(0, 10, size=(n, d_feat))])
    y = rng.uniform(0, 5, size=n)
    return Dataset(X=X, y=y, columns=["bias"] + [f"f{i}" for i in range(d_feat)])


class TestDomainRanges:
    def test_constant_column(self):
        ds = Dataset(
            X=np.array([[1.0, 4.0], [1.0, 4.0]]),
            y=np.array([0.0, 10.0]),
            columns=["bias", "a"],
        )
        dr = domain_ranges(ds)
        assert dr.feature_width("a") == 0.0
        assert dr.label_width() == 10.0

    def test_bias_excluded(self):
        dr = domain_ranges(_toy(5))
        assert "bias" not in dr.feature_ranges

    def test_all_missing_column_has_zero_range(self):
        ds = Dataset(
            X=np.array([[1.0, np.nan, 4.0], [1.0, np.nan, 6.0]]),
            y=np.array([0.0, 10.0]),
            columns=["bias", "a", "b"],
        )
        dr = domain_ranges(ds)
        assert dr.feature_ranges == {"a": (0.0, 0.0), "b": (4.0, 6.0)}


class TestInjectUncertainty:
    def test_zero_percentage_no_symbols(self):
        ad = inject_uncertainty(_toy(10), UncertaintySpec("labels", 0.0, 0.1, seed=0))
        assert ad.data_symbols() == []
        assert y_symbolic(ad).is_affine()

    def test_zero_radius_symbols_prune_to_zero(self):
        ad = inject_uncertainty(_toy(10), UncertaintySpec("labels", 0.5, 0.0, seed=0))
        assert len(ad.data_symbols()) == 5
        for f in y_symbolic(ad):
            assert f.is_constant()

    def test_half_width_formula(self):
        # one row, one feature, radius 0.1, domain range 10 -> x +/- 0.5
        X = np.array([[1.0, 0.0], [1.0, 10.0], [1.0, 4.0]])
        ds = Dataset(X=X, y=np.array([1.0, 2.0, 3.0]), columns=["bias", "a"])
        ad = inject_uncertainty(ds, UncertaintySpec("features", 1 / 3, 0.1, seed=1))
        (sid,) = ad.data_symbols()
        lo, hi = ad.cell_interval(sid)
        assert hi - lo == pytest.approx(1.0)  # width = radius * range
        r, c = ad.provenance[sid]
        assert ad.X_R[r, c] == pytest.approx((lo + hi) / 2)

    def test_bijection_and_interval_endpoints(self):
        ds = _toy(12, d_feat=2, seed=3)
        spec = UncertaintySpec("both", 0.25, 0.2, seed=4)
        ad = inject_uncertainty(ds, spec)
        cells = list(ad.provenance.values())
        assert len(set(cells)) == len(cells)  # one symbol per cell
        rng = np.random.default_rng(5)
        syms = ad.data_symbols()
        for _ in range(50):
            e = {s: float(rng.uniform(-1, 1)) for s in syms}
            X, y = ad.materialize(e)
            for sid in syms:
                r, c = ad.provenance[sid]
                lo, hi = ad.cell_interval(sid)
                val = y[r] if c == LABEL_COL else X[r, c]
                assert lo - 1e-12 <= val <= hi + 1e-12
        at_hi = ad.materialize({s: 1.0 for s in syms})
        for sid in syms:
            r, c = ad.provenance[sid]
            _, hi = ad.cell_interval(sid)
            val = at_hi[1][r] if c == LABEL_COL else at_hi[0][r, c]
            assert val == pytest.approx(hi)

    def test_same_seed_bit_identical(self):
        ds = _toy(15, seed=6)
        spec = UncertaintySpec("both", 0.4, 0.15, seed=7)
        a = inject_uncertainty(ds, spec)
        b = inject_uncertainty(ds, spec)
        assert list(a.provenance.values()) == list(b.provenance.values())
        assert list(a.cells.coef) == list(b.cells.coef)

    def test_both_targets_share_rows(self):
        ds = _toy(20, seed=8)
        ad = inject_uncertainty(ds, UncertaintySpec("both", 0.2, 0.1, seed=9))
        feat_rows = {ad.provenance[s][0] for s in ad.feature_symbols()}
        label_rows = {ad.provenance[s][0] for s in ad.label_symbols()}
        assert feat_rows == label_rows

    def test_label_intervals(self):
        ad = inject_uncertainty(_toy(10, seed=3), UncertaintySpec("both", 0.3, 0.2, seed=4))
        labelled = {ad.provenance[s][0]: ad.cell_interval(s) for s in ad.label_symbols()}
        intervals = ad.label_intervals()
        assert intervals.shape == (10, 2) and len(labelled) == 3
        for r in range(10):
            assert tuple(intervals[r]) == labelled.get(r, (ad.y_R[r], ad.y_R[r]))

    def test_label_intervals_sum_shared_label_cells(self):
        # Row 1 has two label symbols, row 3 three; row 0 one and row 2 none.
        rows = [0, 1, 1, 3, 3, 3]
        coef = [0.3, 0.5, -0.25, 0.7, -0.11, 0.42]
        ad = AbstractDataset(
            X_R=np.ones((4, 1)), y_R=np.array([1.0, 2.0, -0.5, 3.3]), registry=SymbolRegistry(),
            cells=Cells(symbols=range(6), rows=rows, cols=[LABEL_COL] * 6, coef=coef),
        )
        intervals = ad.label_intervals()
        np.testing.assert_array_equal(intervals[1], [1.25, 2.75])
        np.testing.assert_array_equal(intervals[2], [-0.5, -0.5])
        assert tuple(intervals[0]) == ad.cell_interval(0)
        _, y = ad.materialize_batch(np.array(list(product([-1.0, 1.0], repeat=6))))
        tol = 1e-12 * (1.0 + np.abs(ad.y_R))
        assert np.all((y >= intervals[:, 0] - tol) & (y <= intervals[:, 1] + tol))
        # The corners reach both ends: the intervals are no wider than the label ranges.
        np.testing.assert_allclose(y.min(axis=0), intervals[:, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(y.max(axis=0), intervals[:, 1], rtol=0, atol=1e-12)

    def test_unknown_column_is_named(self):
        spec = UncertaintySpec("both", 0.5, 0.1, seed=0, columns=("f0", "nosuch"))
        with pytest.raises(DataError, match="'nosuch'"):
            inject_uncertainty(_toy(6, seed=1), spec)

    def test_bias_never_targeted(self):
        ds = _toy(10, seed=10)
        ad = inject_uncertainty(ds, UncertaintySpec("features", 1.0, 0.5, seed=11))
        assert all(c != 0 for _, c in ad.provenance.values())
        with pytest.raises(DataError):
            UncertaintySpec("features", 0.5, 0.1, seed=0, columns=("bias",))

    def test_repeated_column_errors(self):
        # A repeated name would give each chosen cell of that column two symbols.
        with pytest.raises(DataError, match=r"uncertain columns \['f0', 'f0'\] repeat a name"):
            UncertaintySpec("features", 0.1, 0.2, seed=1, columns=("f0", "f0"))

    @pytest.mark.parametrize("radius", [float("nan"), float("inf")])
    def test_non_finite_radius_errors(self, radius):
        with pytest.raises(DataError, match="radius must be >= 0 and finite"):
            UncertaintySpec("labels", 0.5, radius, seed=0)


class TestAbstractMissing:
    def test_worked_example(self):
        # D = [[3, ?], [1, 6], [?, 9]] with both feature domains [0, 10]:
        # each missing cell becomes 5 + 5*eps.
        X = np.array([[1.0, 3.0, np.nan], [1.0, 1.0, 6.0], [1.0, np.nan, 9.0]])
        ds = Dataset(X=X, y=np.array([1.0, 2.0, 3.0]), columns=["bias", "a", "b"])
        ad = abstract_missing(ds, {"a": (0.0, 10.0), "b": (0.0, 10.0)})
        assert len(ad.data_symbols()) == 2
        for sid in ad.data_symbols():
            r, c = ad.provenance[sid]
            assert ad.X_R[r, c] == 5.0
            assert ad.cells.coef[cell_index(ad, sid)] == 5.0

    def test_no_missing_cells(self):
        ds = _toy(5)
        ad = abstract_missing(ds, {})
        assert ad.data_symbols() == []
        assert x_symbolic(ad).is_zero()

    def test_missing_without_range_errors(self):
        X = np.array([[1.0, np.nan]])
        ds = Dataset(X=X, y=np.array([1.0]), columns=["bias", "a"])
        with pytest.raises(DataError):
            abstract_missing(ds, {})

    @pytest.mark.parametrize("bounds", [
        (float("nan"), 10.0),
        (0.0, float("nan")),
        (0.0, float("inf")),
        (float("-inf"), 10.0),
    ], ids=["nan-lo", "nan-hi", "inf-hi", "minus-inf-lo"])
    def test_non_finite_range_errors(self, bounds):
        X = np.array([[1.0, np.nan], [1.0, 2.0]])
        ds = Dataset(X=X, y=np.array([1.0, 2.0]), columns=["bias", "a"])
        with pytest.raises(DataError, match="invalid range for 'a'"):
            abstract_missing(ds, {"a": bounds})

    def test_imputation_range_variant(self):
        X = np.array([[1.0, np.nan], [1.0, 2.0]])
        ds = Dataset(X=X, y=np.array([1.0, 2.0]), columns=["bias", "a"])
        estimates = [1.8, 2.4, 2.0]  # imputer outputs
        ad = abstract_missing(ds, {"a": (min(estimates), max(estimates))})
        (sid,) = ad.data_symbols()
        assert ad.cell_interval(sid) == pytest.approx((1.8, 2.4))


class TestFeatureScaler:
    def test_train_statistics_applied_to_test(self):
        from zonoridge.dataset import FeatureScaler

        ds = _toy(30, d_feat=2, seed=15)
        tr, te = train_test_split(ds, 0.5, seed=16)
        scaler = FeatureScaler.fit(tr)
        tr_s, te_s = scaler.transform(tr), scaler.transform(te)
        np.testing.assert_allclose(tr_s.X[:, 1:].mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(tr_s.X[:, 1:].std(axis=0), 1.0, atol=1e-12)
        np.testing.assert_array_equal(tr_s.X[:, 0], np.ones(tr.n))
        np.testing.assert_array_equal(te_s.y, te.y)  # labels untouched
        # test columns use the train statistics, not their own
        assert abs(te_s.X[:, 1].mean()) > 1e-12 or te.n == tr.n

    def test_constant_column_unscaled(self):
        from zonoridge.dataset import FeatureScaler

        X = np.column_stack([np.ones(5), np.full(5, 7.0)])
        ds = Dataset(X=X, y=np.arange(5.0), columns=["bias", "c"])
        out = FeatureScaler.fit(ds).transform(ds)
        np.testing.assert_allclose(out.X[:, 1], 0.0)


class TestSplit:
    def test_split_partitions_cells(self):
        # (target, percentage, m, zero): label cells; feature and label cells
        # with one zero-coefficient symbol, which must not be split; m = 1.
        cases = (("labels", 0.34, 2, False), ("both", 0.17, 2, True), ("labels", 0.34, 1, False))
        for target, pct, m, zero in cases:
            ad = inject_uncertainty(_toy(6, seed=12), UncertaintySpec(target, pct, 0.3, seed=13))
            if zero:
                ad.cells.coef[cell_index(ad, ad.feature_symbols()[0])] = 0.0
            parts = stages.split(ad, m)
            if m == 1:
                assert len(parts) == 1 and parts[0] is ad
                continue
            syms = ad.data_symbols()
            assert len(parts) == m ** len(ad.split_symbols())
            rng = np.random.default_rng(14)
            for _ in range(100):
                e = {s: float(rng.uniform(-1, 1)) for s in syms}
                X, y = ad.materialize(e)
                covered = False
                for p in parts:
                    ok = True
                    for sid in syms:
                        lo, hi = p.cell_interval(sid)
                        r, c = p.provenance[sid]
                        val = y[r] if c == LABEL_COL else X[r, c]
                        if not (lo - 1e-12 <= val <= hi + 1e-12):
                            ok = False
                            break
                    covered |= ok
                assert covered

    def test_split_is_its_plan(self):
        # A feature and a label cell in one row, and a zero-coefficient
        # symbol that is not split.
        ad = inject_uncertainty(_toy(6, seed=12), UncertaintySpec("both", 0.1, 0.3, seed=13))
        ad.cells.coef[cell_index(ad, ad.feature_symbols()[0])] = 0.0
        m = 3
        syms = ad.split_symbols()
        assert len(syms) == 2
        parts = stages.split(ad, m)
        combos = list(product(range(m), repeat=len(syms)))
        assert len(parts) == len(combos)
        for part, combo in zip(parts, combos):
            X, y = ad.X_R.copy(), ad.y_R.copy()
            for sid, j in zip(syms, combo):
                r, c = ad.provenance[sid]
                coef = ad.cells.coef[cell_index(ad, sid)]
                offset = coef * ((2 * j + 1 - m) / m)
                if c == LABEL_COL:
                    y[r] += offset
                else:
                    X[r, c] += offset
                assert part.cells.coef[cell_index(part, sid)] == coef / m
            np.testing.assert_array_equal(part.X_R, X)
            np.testing.assert_array_equal(part.y_R, y)
        with pytest.raises(SplitBudgetError):
            stages.split(ad, m, budget=m ** len(syms) - 1)

    def test_budget(self):
        ad = inject_uncertainty(_toy(6, seed=12), UncertaintySpec("labels", 0.34, 0.3, seed=13))
        with pytest.raises(SplitBudgetError):
            stages.split(ad, 10, budget=100)


def _load(tmp_path, text, features=None):
    path = tmp_path / "refused.csv"
    path.write_text(text, encoding="utf-8")
    return load_csv(str(path), "y", features)


def _non_finite(X_R=(1.0, 2.0), y_R=1.0, coef=(0.1, 0.2)):
    """A one-row dataset with a feature cell and a label cell, one entry replaced."""
    return AbstractDataset(
        X_R=[X_R], y_R=[y_R], registry=SymbolRegistry(),
        cells=Cells(symbols=[0, 1], rows=[0, 0], cols=[1, LABEL_COL], coef=coef),
    )


def _inject_into_missing():
    ds = _toy(4)
    ds.X[2, 1] = np.nan
    inject_uncertainty(ds, UncertaintySpec("labels", 0.5, 0.1, seed=0))


@pytest.mark.parametrize("refuse, error, message", [
    (lambda tmp: Dataset(X=np.ones(3), y=np.ones(3), columns=["bias"]),
     DataError, "X must be 2-d and y 1-d"),
    (lambda tmp: Dataset(X=np.ones((3, 1)), y=np.ones(2), columns=["bias"]),
     DataError, "X and y row counts differ"),
    (lambda tmp: Dataset(X=np.ones((0, 1)), y=np.ones(0), columns=["bias"]),
     EmptyDataError, "dataset must have at least one row and one column"),
    (lambda tmp: Dataset(X=np.ones((2, 1)), y=np.ones(2), columns=["bias", "x"]),
     DataError, "column names must match feature count"),
    (lambda tmp: Dataset(X=np.full((2, 1), 2.0), y=np.ones(2), columns=["bias"]),
     DataError, "first column must be the constant-one bias column"),
    (lambda tmp: Dataset(X=[[1.0, np.inf]], y=[1.0], columns=["bias", "x"]),
     DataError, "X and y must be finite; NaN marks a missing cell"),
    (lambda tmp: Dataset(X=[[1.0, 2.0]], y=[-np.inf], columns=["bias", "x"]),
     DataError, "X and y must be finite; NaN marks a missing cell"),
    (lambda tmp: _load(tmp, "x,y\n1,2\ninf,3\n"),
     DataError, "X and y must be finite; NaN marks a missing cell"),
    (lambda tmp: UncertaintySpec("weights", 0.1, 0.1, 0),
     DataError, "unknown uncertainty target 'weights'"),
    (lambda tmp: inject_uncertainty(_toy(4), UncertaintySpec("labels", 0.5, 0.1, 0)).cell_interval(99),
     KeyError, "99"),
    (lambda tmp: _load(tmp, ""), EmptyDataError, "{path} is empty"),
    (lambda tmp: _load(tmp, "x,y\n1,2\n", ["z"]), DataError, "feature columns not in header: ['z']"),
    (lambda tmp: _load(tmp, "x,y\n1,2\n3,4,5\n"), DataError, "row 3 has 3 fields, expected 2"),
    (lambda tmp: train_test_split(_toy(10), 1.0, 0), DataError, "ratio must be in (0, 1)"),
    (lambda tmp: _inject_into_missing(), DataError,
     "inject_uncertainty requires fully observed data; use abstract_missing"),
    *[(lambda tmp, bad=bad: _non_finite(**bad), DataError,
       "X_R, y_R and the cell coefficients must be finite") for bad in (
        {"X_R": (1.0, np.nan)}, {"X_R": (np.inf, 2.0)}, {"y_R": np.nan}, {"y_R": -np.inf},
        {"coef": (np.nan, 0.2)}, {"coef": (np.inf, 0.2)}, {"coef": (0.1, np.nan)},
        {"coef": (0.1, np.inf)})],
], ids=["X-1d", "row-counts", "no-rows", "column-names", "no-bias", "infinite-X", "infinite-y",
        "infinite-csv-cell", "unknown-target", "unknown-symbol", "empty-csv", "feature-not-in-header",
        "field-count", "split-ratio", "inject-into-missing", "nan-X_R", "inf-X_R", "nan-y_R",
        "inf-y_R", "nan-feature-coef", "inf-feature-coef", "nan-label-coef", "inf-label-coef"])
def test_refusals(tmp_path, refuse, error, message):
    with pytest.raises(error) as exc:
        refuse(tmp_path)
    expected = message.format(path=tmp_path / "refused.csv")
    assert type(exc.value) is error and str(exc.value) == expected
