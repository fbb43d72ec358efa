"""The cell table against the symbol-id dictionaries it replaced.

``looped_inject`` and ``looped_missing`` build the abstraction one cell at a
time, as ``provenance`` (``symbol -> (row, col)``) and ``coefficients``
(``symbol -> coef``) dictionaries over a fresh registry.  The table must
hold the same entries in id order, entry j for symbol j, and seeded worlds
built from it must equal, bit for bit, worlds built from the dictionaries
one cell at a time.
"""

import math
from itertools import product

import numpy as np
import pytest
from conftest import registry_with

from zonoridge.dataset import (
    BIAS_COLUMN,
    LABEL_COL,
    AbstractDataset,
    Cells,
    Dataset,
    UncertaintySpec,
    abstract_missing,
    domain_ranges,
    inject_uncertainty,
)
from zonoridge.errors import DataError
from zonoridge.oracles import enumerate_worlds, sample_worlds
from zonoridge.symbols import SymbolRegistry


def looped_inject(d, spec):
    ranges = domain_ranges(d)
    rng = np.random.default_rng(spec.seed)
    n_unc = math.ceil(spec.percentage * d.n)
    rows = np.sort(rng.choice(d.n, size=n_unc, replace=False)) if n_unc else []
    feature_cols = []
    if spec.target in ("features", "both"):
        names = spec.columns or [c for c in d.columns if c != BIAS_COLUMN]
        feature_cols = [d.columns.index(c) for c in names]
    provenance, coefficients = {}, {}
    for r in rows:
        for c in feature_cols:
            sid = len(provenance)
            provenance[sid] = (int(r), int(c))
            coefficients[sid] = spec.radius * ranges.feature_width(d.columns[c]) / 2.0
        if spec.target in ("labels", "both"):
            sid = len(provenance)
            provenance[sid] = (int(r), LABEL_COL)
            coefficients[sid] = spec.radius * ranges.label_width() / 2.0
    return d.X.copy(), d.y.copy(), provenance, coefficients


def looped_missing(d, ranges):
    X, y = d.X.copy(), d.y.copy()
    provenance, coefficients = {}, {}
    for r in range(d.n):
        for c in range(d.d):
            if math.isnan(X[r, c]):
                lo, hi = ranges[d.columns[c]]
                sid = len(provenance)
                X[r, c] = lo + (hi - lo) / 2.0
                provenance[sid] = (r, c)
                coefficients[sid] = (hi - lo) / 2.0
        if math.isnan(y[r]):
            lo, hi = ranges[d.label_name]
            sid = len(provenance)
            y[r] = lo + (hi - lo) / 2.0
            provenance[sid] = (r, LABEL_COL)
            coefficients[sid] = (hi - lo) / 2.0
    return X, y, provenance, coefficients


def looped_world(reference, e):
    X_R, y_R, provenance, coefficients = reference
    X, y = X_R.copy(), y_R.copy()
    for sid, (r, c) in provenance.items():
        delta = coefficients[sid] * e[sid]
        if c == LABEL_COL:
            y[r] += delta
        else:
            X[r, c] += delta
    return X, y


def dataset(seed, n=12, d_feat=3, holes=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.uniform(-2.0, 3.0, (n, d_feat))])
    y = rng.uniform(-1.0, 1.0, n)
    if holes:
        X[rng.integers(0, n, holes), rng.integers(1, d_feat + 1, holes)] = np.nan
        y[rng.integers(0, n, 2)] = np.nan
    columns = [BIAS_COLUMN] + [f"f{j}" for j in range(d_feat)]
    return Dataset(X=X, y=y, columns=columns, label_name="target")


def case(kind, seed):
    """An abstraction of each kind and the dictionaries of the same cells."""
    if kind == "missing":
        d = dataset(seed, holes=4)
        ranges = {"f0": (-1.0, 2.0), "f1": (0.0, 1.5), "f2": (-3, 3), "target": (-0.5, 0.5)}
        return abstract_missing(d, ranges), looped_missing(d, ranges)
    d = dataset(seed)
    columns = ("f2", "f0") if seed % 2 else None
    spec = UncertaintySpec(kind, 0.25, 0.1 + 0.05 * seed, seed=seed, columns=columns)
    return inject_uncertainty(d, spec), looped_inject(d, spec)


KINDS = ("labels", "features", "both", "missing")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(3))
def test_table_holds_the_dictionary_entries_in_id_order(kind, seed):
    ad, (X_R, y_R, provenance, coefficients) = case(kind, seed)
    table = list(enumerate(zip(*(a.tolist() for a in ad.cells))))
    expected = [(sid, (r, c, coefficients[sid])) for sid, (r, c) in sorted(provenance.items())]
    assert table == expected and len(table) > 0
    assert ad.X_R.tobytes() == X_R.tobytes() and ad.y_R.tobytes() == y_R.tobytes()
    assert dict(ad.provenance) == provenance


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(3))
def test_seeded_worlds_match_the_dictionaries(kind, seed):
    ad, reference = case(kind, seed)
    symbols = sorted(reference[2])
    rng = np.random.default_rng(seed)
    for wa, X, y in sample_worlds(ad, 20, seed):
        e = {s: float(rng.uniform(-1.0, 1.0)) for s in symbols}
        X_ref, y_ref = looped_world(reference, e)
        assert wa.values.tolist() == [e[s] for s in symbols]
        assert X.tobytes() == X_ref.tobytes() and y.tobytes() == y_ref.tobytes()

    varied = [s for s in symbols if reference[3][s] != 0.0][:6]
    fixed = [s for s in symbols if s not in varied]
    ad.cells.coef[fixed] = 0.0
    reference[3].update(dict.fromkeys(fixed, 0.0))
    worlds = list(enumerate_worlds(ad, "corner"))
    assert len(worlds) == 2 ** len(varied)
    for (wa, X, y), corner in zip(worlds, product((-1.0, 1.0), repeat=len(varied))):
        e = {**dict.fromkeys(symbols, 0.0), **dict(zip(varied, corner))}
        X_ref, y_ref = looped_world(reference, e)
        assert wa.values.tolist() == [e[s] for s in symbols]
        assert X.tobytes() == X_ref.tobytes() and y.tobytes() == y_ref.tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(3))
def test_abstraction_hands_out_one_id_per_entry(kind, seed):
    ad, _ = case(kind, seed)
    S = len(ad.cells.coef)
    assert len(ad.registry) == S and ad.data_symbols() == list(range(S))


def test_constructor_refuses_a_registry_behind_the_table():
    # A test point's symbols taken from such a registry would alias data symbol 1.
    cells = Cells([0, 1], [0, 0], [0.1, 0.2])
    with pytest.raises(DataError, match="handed out 1 ids, fewer than the 2 data symbols"):
        AbstractDataset(X_R=np.ones((2, 1)), y_R=np.zeros(2), registry=registry_with(1), cells=cells)
    for count in (2, 3):
        ad = AbstractDataset(X_R=np.ones((2, 1)), y_R=np.zeros(2), registry=registry_with(count),
                             cells=cells)
        assert ad.data_symbols() == [0, 1]


@pytest.mark.parametrize("cells", [
    Cells([0], [0, 0], [0.1, 0.2]),
], ids=["ragged"])
def test_constructor_refuses_a_malformed_table(cells):
    with pytest.raises(DataError, match="cell table"):
        AbstractDataset(X_R=np.ones((2, 1)), y_R=np.zeros(2), registry=SymbolRegistry(), cells=cells)


@pytest.mark.parametrize("shape, labels, rows, cols, match", [
    ((5, 3), 5, [-1], [0], "cell table entry"),
    ((5, 3), 5, [5], [0], "cell table entry"),
    ((5, 3), 5, [0], [-2], "cell table entry"),
    ((5, 3), 5, [0], [3], "cell table entry"),
    ((5, 3), 4, [0], [LABEL_COL], "one label in y_R per row"),
    ((5,), 5, [0], [LABEL_COL], "X_R must be 2-d"),
], ids=["row-below", "row-above", "col-below", "col-above", "short-labels", "flat-features"])
def test_constructor_checks_the_shapes_and_table_indices(shape, labels, rows, cols, match):
    with pytest.raises(DataError, match=match):
        AbstractDataset(X_R=np.ones(shape), y_R=np.zeros(labels), registry=SymbolRegistry(),
                        cells=Cells(rows, cols, [0.1]))
