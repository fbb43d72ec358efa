"""Error-symbol registry.

Every symbolic object in this package is a polynomial over *error symbols*,
variables that range over [-1, 1].  Symbols are plain integer ids that a
registry hands out in order, from 0 up; it keeps only the next id, so a
registry stays the same size however many symbols it has handed out.  A
caller names the kind of symbol it asks for, which the registry does not
record:

* ``DATA`` symbols are created while abstracting an uncertain dataset and tie
  model weights back to the dataset cells they came from; a caller also
  takes new ones for the independent uncertainty of a test point.
* ``FRESH`` symbols stand for a quantity that is tied to no dataset cell,
  such as a linearized monomial.  The library takes none: a fit leaves the
  registry as it found it, and the box part of a weight zonotope is the
  last d columns of its generator matrix, with no symbol ids.

A registry is shared by all forms participating in one computation; mixing
forms from different registries is an error.
"""

from __future__ import annotations

import threading
from enum import Enum


class SymbolKind(Enum):
    DATA = "data"
    FRESH = "fresh"


class SymbolRegistry:
    """Allocates unique error-symbol ids, contiguously from 0.

    Allocation is guarded by a lock so parallel tasks may request new
    symbols concurrently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next = 0

    def new_symbol(self, kind: SymbolKind) -> int:
        return self.new_symbols(1, kind)[0]

    def new_symbols(self, count: int, kind: SymbolKind) -> list[int]:
        with self._lock:
            start = self._next
            self._next += count
        return list(range(start, start + count))

    def __len__(self) -> int:
        return self._next

    def __contains__(self, sid: int) -> bool:
        return 0 <= sid < self._next
