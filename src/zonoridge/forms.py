"""Sparse polynomial forms over error symbols in [-1, 1]: the input types.

A caller describes an uncertain test point as a :class:`ZVector` of affine
:class:`PolyForm` entries; :func:`zonoridge.inference.predict_interval_uncertain`
reads each entry's center and terms once, into a center vector and a
generator matrix over the point's own symbols.

A :class:`PolyForm` is ``center + sum(coef * monomial)`` where each monomial
is a product of error symbols, stored canonically as a sorted tuple of symbol
ids (repetition encodes powers, e.g. ``(3, 3)`` is the square of symbol 3).
A form whose monomials all have degree one is an *affine form*; vectors of
affine forms are linear zonotopes, vectors of general forms are polynomial
zonotopes.

Addition and multiplication are exact transformers: evaluating the result at
any symbol assignment equals combining the evaluations of the operands.
Coefficients with magnitude below ``COEF_EPS`` are dropped after every
operation so that forms stay canonical and float noise cannot inflate the
monomial count.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from .errors import DegreeError, RegistryMismatchError, ShapeMismatchError
from .symbols import SymbolRegistry

# Coefficients at or below this magnitude are treated as exact zeros.
COEF_EPS = 1e-14

Monomial = tuple[int, ...]


def _merge_monomials(a: Monomial, b: Monomial) -> Monomial:
    return tuple(sorted(a + b))


class PolyForm:
    """Immutable sparse polynomial over a shared symbol registry."""

    __slots__ = ("registry", "center", "terms")

    def __init__(
        self,
        registry: SymbolRegistry,
        center: float = 0.0,
        terms: Mapping[Monomial, float] | None = None,
    ):
        self.registry = registry
        self.center = float(center)
        clean: dict[Monomial, float] = {}
        if terms:
            for mono, coef in terms.items():
                if len(mono) == 0:
                    raise ValueError("constants belong in the center, not in a monomial")
                if abs(coef) > COEF_EPS:
                    clean[tuple(mono)] = float(coef)
        self.terms = clean

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


class ZVector:
    """Dense vector of forms sharing one registry."""

    __slots__ = ("registry", "entries")

    def __init__(self, registry: SymbolRegistry, entries: Sequence[PolyForm]):
        for f in entries:
            if f.registry is not registry:
                raise RegistryMismatchError("entry from a different registry")
        self.registry = registry
        self.entries = list(entries)

    @classmethod
    def from_real(cls, registry: SymbolRegistry, values: Sequence[float]) -> "ZVector":
        return cls(registry, [PolyForm(registry, float(v)) for v in values])

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> PolyForm:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

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
