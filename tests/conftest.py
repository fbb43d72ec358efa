import numpy as np
import pytest

from form_algebra import PolyForm
from zonoridge.dataset import Cells
from zonoridge.symbols import SymbolKind, SymbolRegistry


@pytest.fixture
def registry():
    return SymbolRegistry()


def cell_table(provenance: dict, coefficients: dict) -> Cells:
    """The cell table of ``symbol -> (row, col)`` and ``symbol -> coefficient``, in key order."""
    return Cells(
        symbols=list(provenance),
        rows=[r for r, _ in provenance.values()],
        cols=[c for _, c in provenance.values()],
        coef=[coefficients.get(s, 0.0) for s in provenance],
    )


def cell_index(ad, sid: int) -> int:
    """The entry of symbol ``sid`` in the cell table of ``ad``."""
    return ad.data_symbols().index(sid)


def make_symbols(reg: SymbolRegistry, n: int, kind=SymbolKind.DATA) -> list[int]:
    return reg.new_symbols(n, kind)


def random_form(reg: SymbolRegistry, syms: list[int], rng: np.random.Generator,
                max_terms: int = 4, max_degree: int = 2) -> PolyForm:
    terms = {}
    for _ in range(rng.integers(0, max_terms + 1)):
        deg = int(rng.integers(1, max_degree + 1))
        mono = tuple(sorted(rng.choice(syms, size=deg)))
        terms[mono] = terms.get(mono, 0.0) + float(rng.uniform(-3, 3))
    return PolyForm(reg, float(rng.uniform(-3, 3)), terms)


def random_assignment(syms: list[int], rng: np.random.Generator) -> dict[int, float]:
    return {s: float(rng.uniform(-1, 1)) for s in syms}
