"""Error-symbol registry.

Every symbolic object in this package is a polynomial over *error symbols*,
variables that range over [-1, 1].  Symbols are plain integer ids handed out
by a registry; each id carries a kind:

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
    """Allocates unique error-symbol ids.

    Allocation is guarded by a lock so parallel tasks may request new
    symbols concurrently.  Kinds are immutable once assigned.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next = 0
        self._kinds: dict[int, SymbolKind] = {}

    def new_symbol(self, kind: SymbolKind) -> int:
        with self._lock:
            sid = self._next
            self._next += 1
            self._kinds[sid] = kind
        return sid

    def new_symbols(self, count: int, kind: SymbolKind) -> list[int]:
        with self._lock:
            start = self._next
            self._next += count
            for sid in range(start, start + count):
                self._kinds[sid] = kind
        return list(range(start, start + count))

    def kind(self, sid: int) -> SymbolKind:
        return self._kinds[sid]

    def __len__(self) -> int:
        return self._next

    def __contains__(self, sid: int) -> bool:
        return sid in self._kinds
