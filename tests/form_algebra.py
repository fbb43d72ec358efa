"""Polynomial-form algebra that the reference implementations are built on.

The library computes on generator matrices, and its
:class:`~zonoridge.forms.PolyForm` and :class:`~zonoridge.forms.ZVector` are
input records with no algebra.  This module keeps the general form algebra
the library used before, so that ``reference_forms`` can follow the
definitions term by term: :class:`PolyForm` and :class:`ZVector` here
subclass the records and add arithmetic, evaluation and rendering, and the
tests build their forms from them.  A :class:`ZVector` over affine forms is
a linear zonotope in symbolic form; a vector or matrix over general
:class:`PolyForm` entries is a polynomial zonotope.  All entries of one
object share a registry.

Addition and multiplication of forms are exact transformers: evaluating the
result at any symbol assignment equals combining the evaluations of the
operands.  Coefficients with magnitude below ``COEF_EPS`` are dropped after
every operation so that forms stay canonical and float noise cannot inflate
the monomial count.

The operations here come in two families:

* exact transformers: addition, scalar and matrix multiplication --
  evaluation commutes with them;
* sound over-approximations: :func:`linearize`, :func:`interval_hull`,
  :func:`box_join` -- every point of the input's concretization lies in the
  output's concretization.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

import zonoridge.forms
from zonoridge.dataset import LABEL_COL, AbstractDataset
from zonoridge.errors import DegreeError, RegistryMismatchError, ShapeMismatchError
from zonoridge.forms import COEF_EPS, Monomial
from zonoridge.learning import AbstractWeights
from zonoridge.symbols import SymbolKind, SymbolRegistry


def _merge_monomials(a: Monomial, b: Monomial) -> Monomial:
    return tuple(sorted(a + b))


class PolyForm(zonoridge.forms.PolyForm):
    """A :class:`zonoridge.forms.PolyForm` with the form algebra: exact ``+ - *``, evaluation."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, registry: SymbolRegistry, value: float) -> "PolyForm":
        return cls(registry, value)

    @classmethod
    def symbol(
        cls, registry: SymbolRegistry, sid: int, coef: float = 1.0, center: float = 0.0
    ) -> "PolyForm":
        if sid not in registry:
            raise KeyError(f"symbol {sid} not in registry")
        return cls(registry, center, {(sid,): coef})

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def is_affine(self) -> bool:
        return all(len(m) == 1 for m in self.terms)

    def is_constant(self) -> bool:
        return not self.terms

    def n_monomials(self) -> int:
        return len(self.terms)

    def symbols(self) -> set[int]:
        out: set[int] = set()
        for mono in self.terms:
            out.update(mono)
        return out

    def linear_coeffs(self) -> dict[int, float]:
        """Symbol -> coefficient for an affine form."""
        if not self.is_affine():
            raise DegreeError("form has monomials of degree > 1")
        return {m[0]: c for m, c in self.terms.items()}

    def coeff_abs_sum(self) -> float:
        """Sum of absolute coefficient values over all monomials."""
        return sum(abs(c) for c in self.terms.values())

    # -- arithmetic --------------------------------------------------------

    def _check_registry(self, other: "PolyForm") -> None:
        if self.registry is not other.registry:
            raise RegistryMismatchError("operands belong to different registries")

    def __add__(self, other: "PolyForm | float | int") -> "PolyForm":
        if isinstance(other, (int, float)):
            return PolyForm(self.registry, self.center + other, self.terms)
        self._check_registry(other)
        terms = dict(self.terms)
        for mono, coef in other.terms.items():
            terms[mono] = terms.get(mono, 0.0) + coef
        return PolyForm(self.registry, self.center + other.center, terms)

    __radd__ = __add__

    def __neg__(self) -> "PolyForm":
        return PolyForm(self.registry, -self.center, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "PolyForm | float | int") -> "PolyForm":
        if isinstance(other, (int, float)):
            return self + (-other)
        return self + (-other)

    def __rsub__(self, other: float | int) -> "PolyForm":
        return (-self) + other

    def scale(self, factor: float) -> "PolyForm":
        return PolyForm(
            self.registry,
            self.center * factor,
            {m: c * factor for m, c in self.terms.items()},
        )

    def __mul__(self, other: "PolyForm | float | int") -> "PolyForm":
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        self._check_registry(other)
        # Distributive product; monomials merge canonically so e.g. the
        # product of a symbol with itself lands on a degree-2 monomial.
        terms: dict[Monomial, float] = {}
        if other.center != 0.0:
            for mono, coef in self.terms.items():
                terms[mono] = terms.get(mono, 0.0) + coef * other.center
        if self.center != 0.0:
            for mono, coef in other.terms.items():
                terms[mono] = terms.get(mono, 0.0) + coef * self.center
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                merged = _merge_monomials(m1, m2)
                terms[merged] = terms.get(merged, 0.0) + c1 * c2
        return PolyForm(self.registry, self.center * other.center, terms)

    __rmul__ = __mul__

    # -- evaluation and rendering -------------------------------------------

    def evaluate(self, assignment: Mapping[int, float]) -> float:
        """Evaluate at a concrete symbol assignment (values in [-1, 1])."""
        total = self.center
        for mono, coef in self.terms.items():
            value = coef
            for sid in mono:
                value *= assignment[sid]
            total += value
        return total

    def canonical_str(self) -> str:
        """Debug rendering ``c + k1*e<id> + k2*e<id>*e<id>`` with ids sorted."""
        parts = [repr(self.center)]
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            factors = "*".join(f"e{sid}" for sid in mono)
            parts.append(f"{self.terms[mono]!r}*{factors}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"PolyForm({self.canonical_str()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyForm):
            return NotImplemented
        return (
            self.registry is other.registry
            and self.center == other.center
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((id(self.registry), self.center, frozenset(self.terms.items())))


class ZVector(zonoridge.forms.ZVector):
    """A :class:`zonoridge.forms.ZVector` with entrywise algebra and evaluation."""

    __slots__ = ()

    @classmethod
    def from_real(cls, registry: SymbolRegistry, values: Sequence[float]) -> "ZVector":
        return cls(registry, [PolyForm(registry, float(v)) for v in values])

    def __add__(self, other: "ZVector") -> "ZVector":
        if len(self) != len(other):
            raise ShapeMismatchError("vector length mismatch")
        return ZVector(self.registry, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "ZVector") -> "ZVector":
        if len(self) != len(other):
            raise ShapeMismatchError("vector length mismatch")
        return ZVector(self.registry, [a - b for a, b in zip(self.entries, other.entries)])

    def scale(self, factor: float) -> "ZVector":
        return ZVector(self.registry, [f.scale(factor) for f in self.entries])

    def evaluate(self, assignment: Mapping[int, float]) -> np.ndarray:
        return np.array([f.evaluate(assignment) for f in self.entries])

    def is_affine(self) -> bool:
        return all(f.is_affine() for f in self.entries)

    def centers(self) -> np.ndarray:
        return np.array([f.center for f in self.entries])

    def symbols(self) -> set[int]:
        out: set[int] = set()
        for f in self.entries:
            out.update(f.symbols())
        return out


def sum_forms(registry: SymbolRegistry, forms: Iterable[PolyForm]) -> PolyForm:
    """Sum many forms without building long intermediate chains."""
    center = 0.0
    terms: dict[Monomial, float] = {}
    for f in forms:
        if f.registry is not registry:
            raise RegistryMismatchError("operands belong to different registries")
        center += f.center
        for mono, coef in f.terms.items():
            terms[mono] = terms.get(mono, 0.0) + coef
    return PolyForm(registry, center, terms)


class ZMatrix:
    """Dense matrix of forms sharing one registry."""

    __slots__ = ("registry", "rows")

    def __init__(self, registry: SymbolRegistry, rows: Sequence[Sequence[PolyForm]]):
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise ShapeMismatchError("ragged matrix")
            for f in row:
                if f.registry is not registry:
                    raise RegistryMismatchError("entry from a different registry")
        self.registry = registry
        self.rows = [list(r) for r in rows]

    @classmethod
    def from_real(cls, registry: SymbolRegistry, values: np.ndarray) -> "ZMatrix":
        arr = np.asarray(values, dtype=float)
        return cls(
            registry,
            [[PolyForm(registry, v) for v in row] for row in arr],
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, idx: tuple[int, int]) -> PolyForm:
        return self.rows[idx[0]][idx[1]]

    def __add__(self, other: "ZMatrix") -> "ZMatrix":
        if self.shape != other.shape:
            raise ShapeMismatchError(f"shape mismatch {self.shape} vs {other.shape}")
        return ZMatrix(
            self.registry,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def transpose(self) -> "ZMatrix":
        n, d = self.shape
        return ZMatrix(self.registry, [[self.rows[i][j] for i in range(n)] for j in range(d)])

    def evaluate(self, assignment: Mapping[int, float]) -> np.ndarray:
        return np.array([[f.evaluate(assignment) for f in row] for row in self.rows])

    def is_zero(self) -> bool:
        return all(f.is_constant() and f.center == 0.0 for row in self.rows for f in row)


def mat_mul(a: ZMatrix, b: ZMatrix) -> ZMatrix:
    """Exact matrix product via scalar form multiplication and addition."""
    if a.registry is not b.registry:
        raise RegistryMismatchError("operands belong to different registries")
    n, m = a.shape
    m2, k = b.shape
    if m != m2:
        raise ShapeMismatchError(f"cannot multiply {a.shape} by {b.shape}")
    reg = a.registry
    out = []
    for i in range(n):
        row = []
        for j in range(k):
            row.append(sum_forms(reg, (a.rows[i][t] * b.rows[t][j] for t in range(m))))
        out.append(row)
    return ZMatrix(reg, out)


def mat_vec(a: ZMatrix, v: ZVector) -> ZVector:
    """Exact matrix-vector product."""
    if a.registry is not v.registry:
        raise RegistryMismatchError("operands belong to different registries")
    n, m = a.shape
    if m != len(v):
        raise ShapeMismatchError(f"cannot multiply {a.shape} by vector of length {len(v)}")
    reg = a.registry
    return ZVector(
        reg,
        [sum_forms(reg, (a.rows[i][t] * v[t] for t in range(m))) for i in range(n)],
    )


def real_mat_vec(m: np.ndarray, v: ZVector) -> ZVector:
    """Apply a real matrix to a form vector (exact linear map)."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != len(v):
        raise ShapeMismatchError(f"cannot apply {arr.shape} to vector of length {len(v)}")
    reg = v.registry
    out = []
    for i in range(arr.shape[0]):
        out.append(sum_forms(reg, (v[j].scale(arr[i, j]) for j in range(len(v)) if arr[i, j] != 0.0)))
    return ZVector(reg, out)


def real_mat_mat(m: np.ndarray, z: ZMatrix) -> ZMatrix:
    arr = np.asarray(m, dtype=float)
    n, d = z.shape
    if arr.shape[1] != n:
        raise ShapeMismatchError(f"cannot apply {arr.shape} to matrix {z.shape}")
    reg = z.registry
    rows = []
    for i in range(arr.shape[0]):
        rows.append(
            [
                sum_forms(reg, (z.rows[t][j].scale(arr[i, t]) for t in range(n) if arr[i, t] != 0.0))
                for j in range(d)
            ]
        )
    return ZMatrix(reg, rows)


def mat_real(z: ZMatrix, m: np.ndarray) -> ZMatrix:
    arr = np.asarray(m, dtype=float)
    n, d = z.shape
    if arr.shape[0] != d:
        raise ShapeMismatchError(f"cannot apply matrix {z.shape} to {arr.shape}")
    reg = z.registry
    rows = []
    for i in range(n):
        rows.append(
            [
                sum_forms(reg, (z.rows[i][t].scale(arr[t, j]) for t in range(d) if arr[t, j] != 0.0))
                for j in range(arr.shape[1])
            ]
        )
    return ZMatrix(reg, rows)


def interval_of(f: PolyForm) -> tuple[float, float]:
    """Tight interval concretization of an affine form.

    Endpoints are attained at the sign-vector assignments, so this is exact
    for linear zonotopes.  Raises for higher-degree input.
    """
    if not f.is_affine():
        raise DegreeError("interval_of requires an affine form")
    radius = f.coeff_abs_sum()
    return (f.center - radius, f.center + radius)


def linearize(v: ZVector, registry: SymbolRegistry | None = None) -> ZVector:
    """Replace every degree->=2 monomial with a fresh error symbol.

    The same monomial appearing in several entries maps to the *same* fresh
    symbol, which preserves the generator-vector structure of the zonotope
    and keeps later interval hulls as tight as the replacement allows.
    Already-affine input is returned unchanged (no fresh symbols).
    """
    reg = registry or v.registry
    high: set[Monomial] = set()
    for f in v.entries:
        for mono in f.terms:
            if len(mono) >= 2:
                high.add(mono)
    if not high:
        return ZVector(reg, list(v.entries))
    ordered = sorted(high)
    fresh = {mono: reg.new_symbol(SymbolKind.FRESH) for mono in ordered}
    out = []
    for f in v.entries:
        terms: dict[Monomial, float] = {}
        for mono, coef in f.terms.items():
            key = mono if len(mono) == 1 else (fresh[mono],)
            terms[key] = terms.get(key, 0.0) + coef
        out.append(PolyForm(reg, f.center, terms))
    return ZVector(reg, out)


def interval_hull(v: ZVector, selected: set[int]) -> ZVector:
    """Merge the selected symbols of a linear zonotope into a box.

    Per dimension the merged generators collapse to one fresh symbol whose
    coefficient is the row-wise sum of absolute coefficients; retained
    symbols pass through unchanged.  Sound: the output's concretization
    contains the input's.
    """
    if not v.is_affine():
        raise DegreeError("interval_hull requires affine entries")
    if not selected:
        return ZVector(v.registry, list(v.entries))
    reg = v.registry
    fresh = reg.new_symbols(len(v), SymbolKind.FRESH)
    out = []
    for i, f in enumerate(v.entries):
        terms: dict[Monomial, float] = {}
        merged = 0.0
        for mono, coef in f.terms.items():
            if mono[0] in selected:
                merged += abs(coef)
            else:
                terms[mono] = coef
        if merged > COEF_EPS:
            terms[(fresh[i],)] = merged
        out.append(PolyForm(reg, f.center, terms))
    return ZVector(reg, out)


def box_join(parts: Sequence[ZVector]) -> ZVector:
    """Smallest axis-aligned box zonotope containing every part's box.

    Deliberately simple join: sound by construction (each part's interval is
    covered per dimension) at the cost of dropping cross-dimension shape.
    """
    if not parts:
        raise ValueError("box_join requires a nonempty list")
    dim = len(parts[0])
    reg = parts[0].registry
    for p in parts:
        if len(p) != dim:
            raise ShapeMismatchError("parts must share a dimension")
        if p.registry is not reg:
            raise RegistryMismatchError("parts belong to different registries")
    boxes = np.array([[interval_of(f) for f in p] for p in parts])
    lo = boxes[:, :, 0].min(axis=0)
    hi = boxes[:, :, 1].max(axis=0)
    fresh = reg.new_symbols(dim, SymbolKind.FRESH)
    entries = []
    for i in range(dim):
        center = 0.5 * (lo[i] + hi[i])
        radius = 0.5 * (hi[i] - lo[i])
        terms = {(fresh[i],): radius} if radius > COEF_EPS else {}
        entries.append(PolyForm(reg, center, terms))
    return ZVector(reg, entries)


def x_symbolic(ad: AbstractDataset) -> ZMatrix:
    """X_S as a zero-centered matrix of affine forms; the symbols of one cell add up."""
    n, d = ad.X_R.shape
    rows = [[PolyForm(ad.registry, 0.0) for _ in range(d)] for _ in range(n)]
    for sid, (r, c, coef) in enumerate(zip(*(a.tolist() for a in ad.cells))):
        if c == LABEL_COL:
            continue
        rows[r][c] = rows[r][c] + PolyForm(ad.registry, 0.0, {(sid,): coef})
    return ZMatrix(ad.registry, rows)


def y_symbolic(ad: AbstractDataset) -> ZVector:
    """y_S as a zero-centered vector of affine forms; the symbols of one cell add up."""
    entries = [PolyForm(ad.registry, 0.0) for _ in range(ad.n)]
    for sid, (r, c, coef) in enumerate(zip(*(a.tolist() for a in ad.cells))):
        if c != LABEL_COL:
            continue
        entries[r] = entries[r] + PolyForm(ad.registry, 0.0, {(sid,): coef})
    return ZVector(ad.registry, entries)


def weights_zvector(weights: AbstractWeights) -> ZVector:
    """The weight zonotope as a vector of affine forms.

    The box part gets d new fresh symbols, one per column of ``A^-1 diag(k)``.
    """
    fresh = weights.registry.new_symbols(weights.dim, SymbolKind.FRESH)
    entries = []
    for i in range(weights.dim):
        terms = {}
        for sid, gen in zip(weights.data_ids.tolist(), weights.G_D):
            if gen[i] != 0.0:
                terms[(sid,)] = gen[i]
        for j, fid in enumerate(fresh):
            coef = weights.A_inv[i, j] * weights.k[j]
            if coef != 0.0:
                terms[(fid,)] = coef
        entries.append(PolyForm(weights.registry, weights.w_R[i], terms))
    return ZVector(weights.registry, entries)
