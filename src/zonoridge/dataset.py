"""Loading tabular regression data and abstracting its uncertainty.

An uncertain training set is decomposed as ``X = X_R + X_S`` and
``y = y_R + y_S``: real centers plus purely symbolic parts in which every
uncertain cell owns exactly one data symbol with a zero constant part.  The
concretization of the decomposition ranges over exactly the declared
per-cell intervals.  The symbolic parts are stored as one table of cells
(:class:`Cells`): data symbol j is entry j, so the table's entry order is
the symbol axis of every per-symbol array in the package, and a world is
a row of S values.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import DataError, EmptyDataError, ShapeMismatchError
from .symbols import SymbolKind, SymbolRegistry

BIAS_COLUMN = "bias"
#: Marker used in provenance tuples for label cells (features use the column index).
LABEL_COL = -1
_MISSING_MARKERS = {"", "?"}


def _check_cube(values: np.ndarray) -> None:
    """The one check of a world: ``ValueError`` unless every entry lies in [-1, 1], NaN too."""
    if not (np.abs(values) <= 1.0).all():
        raise ValueError("assignments must lie in [-1, 1]")


@dataclass
class Dataset:
    """Concrete data: features with a constant-one bias column, labels; NaN marks a missing cell."""

    X: np.ndarray
    y: np.ndarray
    columns: list[str]
    label_name: str = "label"

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2 or self.y.ndim != 1:
            raise DataError("X must be 2-d and y 1-d")
        if self.X.shape[0] != self.y.shape[0]:
            raise DataError("X and y row counts differ")
        if self.X.shape[0] < 1 or self.X.shape[1] < 1:
            raise EmptyDataError("dataset must have at least one row and one column")
        if len(self.columns) != self.X.shape[1]:
            raise DataError("column names must match feature count")
        if np.isinf(self.X).any() or np.isinf(self.y).any():
            raise DataError("X and y must be finite; NaN marks a missing cell")
        bias = self.X[:, 0]
        if self.columns[0] != BIAS_COLUMN or not np.all(bias[~np.isnan(bias)] == 1.0):
            raise DataError("first column must be the constant-one bias column")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def has_missing(self) -> bool:
        return bool(np.isnan(self.X).any() or np.isnan(self.y).any())


@dataclass(frozen=True)
class DomainRange:
    """Observed per-column value ranges; the bias column is excluded."""

    feature_ranges: dict[str, tuple[float, float]]
    label_range: tuple[float, float]

    def feature_width(self, name: str) -> float:
        lo, hi = self.feature_ranges[name]
        return hi - lo

    def label_width(self) -> float:
        lo, hi = self.label_range
        return hi - lo


@dataclass(frozen=True)
class UncertaintySpec:
    """How to inject uncertainty into a concrete dataset.

    ``radius`` is the full width of an uncertain cell's interval as a
    fraction of the column's domain range; the interval is centered on the
    observed value; it must be finite and nonnegative.  ``target`` selects
    labels, features or both; for features, ``columns`` restricts which
    ones (default: all non-bias), each named once.
    """

    target: str  # "labels" | "features" | "both"
    percentage: float
    radius: float
    seed: int
    columns: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.target not in ("labels", "features", "both"):
            raise DataError(f"unknown uncertainty target {self.target!r}")
        if not 0.0 <= self.percentage <= 1.0:
            raise DataError("percentage must be in [0, 1]")
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise DataError("radius must be >= 0 and finite")
        if self.columns is not None and BIAS_COLUMN in self.columns:
            raise DataError("the bias column cannot be uncertain")
        if self.columns is not None and len(set(self.columns)) != len(self.columns):
            raise DataError(f"uncertain columns {list(self.columns)} repeat a name")


class Cells(NamedTuple):
    """The cell table: entry j is data symbol j.

    Data symbol j moves the cell in row ``rows[j]`` and column ``cols[j]``
    (``LABEL_COL`` for the label) by ``coef[j]`` times its value.  Column
    j of a world (see ``AbstractDataset.materialize_batch``) is entry j,
    and the learner's kernels take the entries with a nonzero coefficient,
    in the same order.
    """

    rows: np.ndarray  # (S,)
    cols: np.ndarray  # (S,) feature column, or LABEL_COL
    coef: np.ndarray  # (S,)

    def select(self, keep: np.ndarray) -> "Cells":
        """The entries marked (or indexed) by ``keep``."""
        return Cells(*(a[keep] for a in self))

    def move(
        self, X: np.ndarray, y: np.ndarray, delta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Copies ``(P, n, d)`` and ``(P, n)`` of ``X`` and ``y``, one per row of ``delta``.

        ``delta`` is ``(P, S)``: in copy p the cell of entry j gains
        ``delta[p, j]``; cells shared by several entries add them in table
        order.  This builds possible worlds and the touched rows of the
        parts of a split.
        """
        X = np.repeat(X[None], len(delta), axis=0)
        y = np.repeat(y[None], len(delta), axis=0)
        f = self.cols != LABEL_COL
        np.add.at(X, (slice(None), self.rows[f], self.cols[f]), delta[:, f])
        np.add.at(y, (slice(None), self.rows[~f]), delta[:, ~f])
        return X, y


@dataclass
class AbstractDataset:
    """Decomposed uncertain training set; data symbol j is entry j of ``cells``.

    ``cells`` is the cell table: ``X_S`` and ``y_S`` are zero but at its
    entries, where entry j is ``coef[j] * e_j``.  The constructor takes any
    sequences and stores arrays; every center and coefficient must be
    finite (a missing cell, NaN in a ``Dataset``, is a cell table entry
    here), and the registry must already have handed out the S ids of the
    table, so that the symbols a caller takes from it later for a test
    point are new.  ``provenance`` and the ``*_symbols`` lists are views of
    the table by position.
    """

    X_R: np.ndarray
    y_R: np.ndarray
    registry: SymbolRegistry
    cells: Cells
    columns: list[str] = field(default_factory=list)
    label_name: str = "label"

    def __post_init__(self):
        self.X_R = np.asarray(self.X_R, dtype=float)
        self.y_R = np.asarray(self.y_R, dtype=float)
        rows, cols, coef = self.cells
        self.cells = Cells(
            np.asarray(rows, dtype=np.intp).reshape(-1),
            np.asarray(cols, dtype=np.intp).reshape(-1),
            np.asarray(coef, dtype=float).reshape(-1),
        )
        if self.X_R.ndim != 2 or self.y_R.shape != self.X_R.shape[:1]:
            raise DataError("X_R must be 2-d, with one label in y_R per row")
        if len({a.shape for a in self.cells}) != 1:
            raise DataError("the cell table needs one row, column and coefficient per entry")
        rows, cols = self.cells.rows, self.cells.cols
        if np.any((rows < 0) | (rows >= self.n) | (cols >= self.d) | ((cols < 0) & (cols != LABEL_COL))):
            raise DataError("every cell table entry needs a row of X_R and a column of it or the label")
        if not all(np.isfinite(a).all() for a in (self.X_R, self.y_R, self.cells.coef)):
            raise DataError("X_R, y_R and the cell coefficients must be finite")
        if len(self.registry) < len(rows):
            raise DataError(f"the registry has handed out {len(self.registry)} ids, "
                            f"fewer than the {len(rows)} data symbols of the cell table")

    @property
    def n(self) -> int:
        return self.X_R.shape[0]

    @property
    def d(self) -> int:
        return self.X_R.shape[1]

    @cached_property
    def provenance(self) -> Mapping[int, tuple[int, int]]:
        """Read-only ``symbol -> (row, col)`` view of the table, built once."""
        cells = zip(self.cells.rows.tolist(), self.cells.cols.tolist())
        return MappingProxyType(dict(enumerate(cells)))

    def data_symbols(self) -> list[int]:
        return list(range(len(self.cells.coef)))

    def label_symbols(self) -> list[int]:
        return np.flatnonzero(self.cells.cols == LABEL_COL).tolist()

    def nonzero_cells(self) -> Cells:
        """The entries with a nonzero coefficient: the symbols that move a cell."""
        return self.cells.select(self.cells.coef != 0.0)

    def split_symbols(self) -> list[int]:
        """Data symbols worth splitting: those with a nonzero coefficient."""
        return np.flatnonzero(self.cells.coef != 0.0).tolist()

    def cell_interval(self, sid: int) -> tuple[float, float]:
        if not 0 <= sid < len(self.cells.coef):
            raise KeyError(sid)
        r, c, coef = self.cells.rows[sid], self.cells.cols[sid], abs(self.cells.coef[sid])
        center = self.y_R[r] if c == LABEL_COL else self.X_R[r, c]
        return (center - coef, center + coef)

    def label_intervals(self) -> np.ndarray:
        """Per-row label intervals ``(n, 2)``: ``y`` plus or minus the summed
        ``|coef|`` of the row's label cells (a lone cell's ``cell_interval``),
        ``[y, y]`` for every other row."""
        intervals = np.column_stack([self.y_R, self.y_R])
        labels = self.cells.select(self.cells.cols == LABEL_COL)
        radius = np.zeros(self.n)
        np.add.at(radius, labels.rows, np.abs(labels.coef))
        center, radius = self.y_R[labels.rows], radius[labels.rows]
        intervals[labels.rows] = np.column_stack([center - radius, center + radius])
        return intervals

    def materialize_batch(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Possible worlds ``(W, n, d)`` and ``(W, n)``, one per row of ``values``.

        ``values`` is ``(W, S)``: column j holds the values of data symbol
        j.  Every cell of world w gains ``coef[j] * values[w, j]``; cells
        shared by several symbols add them in table order.  Any other shape
        raises ``ShapeMismatchError``, and a value outside [-1, 1] ``ValueError``.
        """
        values, S = np.asarray(values, dtype=float), len(self.cells.coef)
        if values.ndim != 2 or values.shape[1] != S:
            raise ShapeMismatchError(f"worlds must be (W, {S}), got {values.shape}")
        _check_cube(values)
        return self.cells.move(self.X_R, self.y_R, self.cells.coef * values)


def load_csv(
    path: str,
    label_column: str,
    feature_columns: Sequence[str] | None = None,
) -> Dataset:
    """Read a comma-separated file with a header row into a Dataset.

    A constant-one bias column is prepended.  Empty fields and ``?`` mark
    missing values (stored as NaN); any other non-numeric cell is an error,
    and so are a repeated column name and a feature that is the label.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        if len(set(header)) < len(header):
            raise DataError(f"header repeats a column name: {header}")
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not in header {header}")
        if feature_columns is None:
            feature_columns = [h for h in header if h != label_column]
        if label_column in feature_columns or len(set(feature_columns)) < len(feature_columns):
            raise DataError(f"feature columns {list(feature_columns)} repeat a name or "
                            f"include the label {label_column!r}")
        missing_cols = [c for c in feature_columns if c not in header]
        if missing_cols:
            raise DataError(f"feature columns not in header: {missing_cols}")
        feat_idx = [header.index(c) for c in feature_columns]
        label_idx = header.index(label_column)

        def parse(cell: str, row_no: int, col: str) -> float:
            cell = cell.strip()
            if cell in _MISSING_MARKERS:
                return math.nan
            try:
                return float(cell)
            except ValueError:
                raise DataError(
                    f"non-numeric value {cell!r} at row {row_no}, column {col!r}"
                ) from None

        X_rows, y_vals = [], []
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DataError(f"row {row_no} has {len(row)} fields, expected {len(header)}")
            X_rows.append([1.0] + [parse(row[i], row_no, header[i]) for i in feat_idx])
            y_vals.append(parse(row[label_idx], row_no, label_column))
    if not X_rows:
        raise EmptyDataError(f"{path} has a header but no data rows")
    return Dataset(
        X=np.array(X_rows),
        y=np.array(y_vals),
        columns=[BIAS_COLUMN] + list(feature_columns),
        label_name=label_column,
    )


@dataclass(frozen=True)
class FeatureScaler:
    """Column-wise standardization of the non-bias features.

    Fit on training data, applied to train and test alike.  Labels are left
    in their original units so thresholds and loss values keep their
    meaning.  Constant columns are left unscaled.  Standardizing before
    abstraction preserves relative uncertainty (interval widths scale with
    their columns) and keeps the feasibility threshold of the learner in
    its intended regime on raw-scale data.
    """

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, d: Dataset) -> "FeatureScaler":
        cols = d.X[:, 1:]
        mean = np.nanmean(cols, axis=0)
        scale = np.nanstd(cols, axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)
        return cls(mean=mean, scale=scale)

    def transform(self, d: Dataset) -> Dataset:
        X = d.X.copy()
        X[:, 1:] = (X[:, 1:] - self.mean) / self.scale
        return Dataset(X=X, y=d.y.copy(), columns=list(d.columns), label_name=d.label_name)


def train_test_split(d: Dataset, ratio: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then the first ``floor(ratio * n)`` rows train."""
    if not 0.0 < ratio < 1.0:
        raise DataError("ratio must be in (0, 1)")
    perm = np.random.default_rng(seed).permutation(d.n)
    n_train = int(math.floor(ratio * d.n))
    if n_train == 0 or n_train == d.n:
        raise DataError(f"split ratio {ratio} leaves an empty side for n={d.n}")
    tr, te = perm[:n_train], perm[n_train:]
    mk = lambda idx: Dataset(d.X[idx].copy(), d.y[idx].copy(), list(d.columns), d.label_name)
    return mk(tr), mk(te)


def domain_ranges(d: Dataset) -> DomainRange:
    """Observed min/max per column, ignoring missing cells; bias excluded."""
    feat = {}
    for j, name in enumerate(d.columns):
        if name == BIAS_COLUMN:
            continue
        col = d.X[:, j]
        col = col[~np.isnan(col)]
        if col.size == 0:
            feat[name] = (0.0, 0.0)
        else:
            feat[name] = (float(col.min()), float(col.max()))
    ylab = d.y[~np.isnan(d.y)]
    label = (float(ylab.min()), float(ylab.max())) if ylab.size else (0.0, 0.0)
    return DomainRange(feature_ranges=feat, label_range=label)


def inject_uncertainty(
    d: Dataset,
    spec: UncertaintySpec,
) -> AbstractDataset:
    """Attach symmetric interval uncertainty to a seeded choice of rows.

    ``ceil(percentage * n)`` rows are drawn without replacement; each
    targeted cell keeps its observed center and gains one data symbol with
    coefficient ``radius * domain_range / 2``, so the cell interval width is
    ``radius * domain_range``.  Feature and label targets share the same row
    choice when both are requested.  The symbols run row by row, and within
    a row over the uncertain columns, label last.
    """
    if d.has_missing():
        raise DataError("inject_uncertainty requires fully observed data; use abstract_missing")
    ranges = domain_ranges(d)
    rng = np.random.default_rng(spec.seed)
    n_unc = math.ceil(spec.percentage * d.n)
    rows = np.sort(rng.choice(d.n, size=n_unc, replace=False)) if n_unc else np.array([], dtype=int)

    names: list[str] = []
    if spec.target in ("features", "both"):
        names = list(spec.columns) if spec.columns is not None else [
            c for c in d.columns if c != BIAS_COLUMN
        ]
        unknown = [c for c in names if c not in d.columns]
        if unknown:
            raise DataError(f"uncertain columns not in the dataset: {unknown}")
    cols = [d.columns.index(c) for c in names]
    coef = [spec.radius * ranges.feature_width(c) / 2.0 for c in names]
    if spec.target in ("labels", "both"):
        cols.append(LABEL_COL)
        coef.append(spec.radius * ranges.label_width() / 2.0)
    cells = Cells(
        rows=np.repeat(rows, len(cols)),
        cols=np.tile(np.array(cols, dtype=np.intp), len(rows)),
        coef=np.tile(np.array(coef, dtype=float), len(rows)),
    )
    return _abstraction(d, d.X.copy(), d.y.copy(), cells)


def abstract_missing(
    d: Dataset,
    ranges: Mapping[str, tuple[float, float]],
) -> AbstractDataset:
    """Represent each missing cell as the declared interval for its column.

    A missing cell in column with range ``[l, u]`` becomes center
    ``l + (u - l)/2`` with one data symbol of coefficient ``(u - l)/2``.
    Supplying imputer-output ranges ``[min(a_i), max(a_i)]`` narrows the
    interval to the span of the estimates.  A range must be finite with
    ``l <= u``.  The symbols run row by row, and within a row over the
    columns, label last.
    """
    X = d.X.copy()
    y = d.y.copy()
    names = [*d.columns, d.label_name]  # column d stands for the label
    rows, cols = np.nonzero(np.isnan(np.column_stack([X, y])))
    lo, hi = np.zeros(len(names)), np.zeros(len(names))
    for j in dict.fromkeys(cols.tolist()):  # in the order of the first missing cell
        if names[j] not in ranges:
            raise DataError(f"missing cell in column {names[j]!r} but no declared range")
        lo[j], hi[j] = ranges[names[j]]
        if not (math.isfinite(lo[j]) and math.isfinite(hi[j]) and lo[j] <= hi[j]):
            raise DataError(f"invalid range for {names[j]!r}: [{lo[j]}, {hi[j]}]")
    coef = (hi[cols] - lo[cols]) / 2.0
    center = lo[cols] + coef
    f = cols < d.d
    X[rows[f], cols[f]] = center[f]
    y[rows[~f]] = center[~f]
    return _abstraction(d, X, y, Cells(rows=rows, cols=np.where(f, cols, LABEL_COL), coef=coef))


def _abstraction(d: Dataset, X: np.ndarray, y: np.ndarray, cells: Cells) -> AbstractDataset:
    """The abstraction of ``d`` with centers ``X``, ``y`` and cell table ``cells``, over
    a new registry that has handed out the table's data symbols ``0..S-1``."""
    reg = SymbolRegistry()
    reg.new_symbols(len(cells.coef), SymbolKind.DATA)
    return AbstractDataset(X_R=X, y_R=y, registry=reg, cells=cells, columns=list(d.columns),
                           label_name=d.label_name)
