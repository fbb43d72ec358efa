import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_symbols, random_assignment, random_form
import zonoridge.forms
from form_algebra import PolyForm
from zonoridge.errors import DegreeError, RegistryMismatchError
from zonoridge.symbols import SymbolKind, SymbolRegistry


def test_add_cancels_coefficients(registry):
    e1 = make_symbols(registry, 1)[0]
    a = PolyForm.symbol(registry, e1, 1.0, center=1.0)
    b = PolyForm.symbol(registry, e1, -1.0, center=2.0)
    out = a + b
    assert out.center == 3.0
    assert out.is_constant()


def test_add_distinct_symbols(registry):
    e1, e2 = make_symbols(registry, 2)
    out = PolyForm.symbol(registry, e1) + PolyForm.symbol(registry, e2)
    assert out.terms == {(e1,): 1.0, (e2,): 1.0}


def test_registry_keeps_no_per_symbol_state():
    reg = SymbolRegistry()
    tracemalloc.start()
    try:
        reg.new_symbols(100_000, SymbolKind.DATA)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1024
    assert reg.new_symbol(SymbolKind.FRESH) == 100_000 and len(reg) == 100_001
    assert 0 in reg and 100_000 in reg
    assert -1 not in reg and 100_001 not in reg


def test_registry_mismatch_raises():
    r1, r2 = SymbolRegistry(), SymbolRegistry()
    a = PolyForm.symbol(r1, r1.new_symbol(SymbolKind.DATA))
    b = PolyForm.symbol(r2, r2.new_symbol(SymbolKind.DATA))
    with pytest.raises(RegistryMismatchError):
        a + b
    with pytest.raises(RegistryMismatchError):
        a * b


def test_mul_difference_of_squares(registry):
    e1 = make_symbols(registry, 1)[0]
    a = PolyForm.symbol(registry, e1, 1.0, center=1.0)
    b = PolyForm.symbol(registry, e1, -1.0, center=1.0)
    out = a * b
    assert out.center == 1.0
    assert out.terms == {(e1, e1): -1.0}


def test_mul_two_symbols_gives_degree_two_monomial(registry):
    e1, e2 = make_symbols(registry, 2)
    out = PolyForm.symbol(registry, e1) * PolyForm.symbol(registry, e2)
    assert out.terms == {(e1, e2): 1.0}
    assert out.degree() == 2


def test_mul_matches_pointwise_products(registry):
    syms = make_symbols(registry, 4)
    rng = np.random.default_rng(7)
    a = random_form(registry, syms, rng)
    b = random_form(registry, syms, rng)
    prod = a * b
    for _ in range(100):
        e = random_assignment(syms, rng)
        expected = a.evaluate(e) * b.evaluate(e)
        assert prod.evaluate(e) == pytest.approx(expected, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_evaluation_commutes_with_add_and_mul(seed):
    reg = SymbolRegistry()
    syms = make_symbols(reg, 3)
    rng = np.random.default_rng(seed)
    a = random_form(reg, syms, rng)
    b = random_form(reg, syms, rng)
    s, p = a + b, a * b
    for _ in range(20):
        e = random_assignment(syms, rng)
        assert s.evaluate(e) == pytest.approx(a.evaluate(e) + b.evaluate(e), rel=1e-12, abs=1e-12)
        assert p.evaluate(e) == pytest.approx(a.evaluate(e) * b.evaluate(e), rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_monomial_counts_bounded_by_construction(seed):
    reg = SymbolRegistry()
    syms = make_symbols(reg, 4)
    rng = np.random.default_rng(seed)
    a = random_form(reg, syms, rng)
    b = random_form(reg, syms, rng)
    assert (a + b).n_monomials() <= a.n_monomials() + b.n_monomials()
    # Product of a constant with anything keeps the other operand's count.
    assert (a * b).n_monomials() <= (a.n_monomials() + 1) * (b.n_monomials() + 1) - 1


def test_tiny_coefficients_are_dropped(registry):
    e1 = make_symbols(registry, 1)[0]
    f = PolyForm(registry, 1.0, {(e1,): 1e-15})
    assert f.is_constant()
    a = PolyForm.symbol(registry, e1, 1.0)
    b = PolyForm.symbol(registry, e1, -1.0 + 1e-16)
    assert (a + b).is_constant()


@pytest.mark.parametrize("center, coef", [
    (float("nan"), 1.0),
    (float("inf"), 1.0),
    (1.0, float("nan")),
    (1.0, float("inf")),
    (1.0, float("-inf")),
], ids=["nan-center", "inf-center", "nan-coef", "inf-coef", "minus-inf-coef"])
def test_non_finite_center_or_coefficient_raises(registry, center, coef):
    e1 = make_symbols(registry, 1)[0]
    with pytest.raises(ValueError, match="finite"):
        zonoridge.forms.PolyForm(registry, center, {(e1,): coef})


def test_linear_coeffs_requires_affine(registry):
    e1 = make_symbols(registry, 1)[0]
    sq = PolyForm.symbol(registry, e1) * PolyForm.symbol(registry, e1)
    with pytest.raises(DegreeError):
        sq.linear_coeffs()


def test_canonical_str_golden(registry):
    e1, e2 = make_symbols(registry, 2)
    f = PolyForm(registry, 3.0, {(e1,): 2.0, (e2, e2): -1.0})
    assert f.canonical_str() == f"3.0 + 2.0*e{e1} + -1.0*e{e2}*e{e2}"
    assert PolyForm.constant(registry, 5.0).canonical_str() == "5.0"


def test_canonical_str_sorts_ids(registry):
    e1, e2, e3 = make_symbols(registry, 3)
    f = PolyForm(registry, 0.0, {(e1, e3): 1.5, (e2,): 1.0})
    assert f.canonical_str() == f"0.0 + 1.0*e{e2} + 1.5*e{e1}*e{e3}"


@pytest.mark.parametrize("refuse, error, message", [
    (lambda reg: zonoridge.forms.PolyForm(reg, 1.0, {(): 2.0}), ValueError,
     "constants belong in the center, not in a monomial"),
    (lambda reg: zonoridge.forms.ZVector(reg, [zonoridge.forms.PolyForm(SymbolRegistry(), 1.0)]),
     RegistryMismatchError, "entry from a different registry"),
], ids=["empty-monomial", "foreign-entry"])
def test_refusals(registry, refuse, error, message):
    with pytest.raises(error) as exc:
        refuse(registry)
    assert type(exc.value) is error and str(exc.value) == message
