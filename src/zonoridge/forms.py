"""Affine forms over error symbols in [-1, 1]: the input records of uncertain test points.

A caller describes an uncertain test point as a :class:`ZVector` of affine
:class:`PolyForm` entries; :func:`zonoridge.inference.predict_interval_uncertain`
reads each entry's center and terms once, into a center vector and a
generator matrix over the point's own symbols.

A :class:`PolyForm` is ``center + sum(coef * monomial)`` where each monomial
is a product of error symbols, stored canonically as a sorted tuple of symbol
ids (repetition encodes powers, e.g. ``(3, 3)`` is the square of symbol 3).
A form whose monomials all have degree one is an *affine form*; a vector of
affine forms is a linear zonotope.  The records carry no algebra: the
library computes on generator matrices, and the constructors only validate
and store.  A :class:`PolyForm` drops coefficients of magnitude at or below
``COEF_EPS`` and refuses a NaN or infinite center or coefficient; a
:class:`ZVector` refuses entries from another registry.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from .errors import RegistryMismatchError
from .symbols import SymbolRegistry

# Coefficients at or below this magnitude are treated as exact zeros.
COEF_EPS = 1e-14

Monomial = tuple[int, ...]


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
        if not math.isfinite(self.center):
            raise ValueError(f"form center must be finite, got {self.center}")
        clean: dict[Monomial, float] = {}
        if terms:
            for mono, coef in terms.items():
                if len(mono) == 0:
                    raise ValueError("constants belong in the center, not in a monomial")
                size = abs(coef)
                if size > COEF_EPS:
                    if size == math.inf:
                        raise ValueError(f"form coefficient must be finite, got {coef}")
                    clean[tuple(mono)] = float(coef)
                elif size != size:  # NaN fails every comparison, so it lands here
                    raise ValueError(f"form coefficient must be finite, got {coef}")
        self.terms = clean


class ZVector:
    """Dense vector of forms sharing one registry."""

    __slots__ = ("registry", "entries")

    def __init__(self, registry: SymbolRegistry, entries: Sequence[PolyForm]):
        for f in entries:
            if f.registry is not registry:
                raise RegistryMismatchError("entry from a different registry")
        self.registry = registry
        self.entries = list(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> PolyForm:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)
