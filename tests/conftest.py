import numpy as np
import pytest

from form_algebra import PolyForm
from zonoridge.dataset import LABEL_COL, Cells
from zonoridge.symbols import SymbolKind, SymbolRegistry


@pytest.fixture
def registry():
    return SymbolRegistry()


def cell_table(provenance: dict, coefficients: dict) -> Cells:
    """The cell table of ``symbol -> (row, col)`` and ``symbol -> coefficient``, in key order:
    the keys must be the symbols ``0..S-1``, as a new registry hands them out."""
    assert list(provenance) == list(range(len(provenance)))
    return Cells(
        rows=[r for r, _ in provenance.values()],
        cols=[c for _, c in provenance.values()],
        coef=[coefficients.get(s, 0.0) for s in provenance],
    )


def feature_symbols(ad) -> list[int]:
    """The data symbols of the feature cells of ``ad``: their entries in its cell table."""
    return np.flatnonzero(ad.cells.cols != LABEL_COL).tolist()


def registry_with(count: int) -> SymbolRegistry:
    """A new registry that has handed out the data symbols ``0..count-1``."""
    reg = SymbolRegistry()
    reg.new_symbols(count, SymbolKind.DATA)
    return reg


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
