import numpy as np
import pytest

from conftest import make_symbols, random_assignment, random_form
from form_algebra import (
    PolyForm,
    ZMatrix,
    ZVector,
    box_join,
    interval_hull,
    interval_of,
    linearize,
    mat_mul,
)
from zonoridge.errors import DegreeError


def affine_vec(reg, centers, coeffs):
    """Build a ZVector from (center, {sid: coef}) pairs."""
    entries = []
    for c, cs in zip(centers, coeffs):
        entries.append(PolyForm(reg, c, {(s,): v for s, v in cs.items()}))
    return ZVector(reg, entries)


def box_contains(v, point, tol):
    """Whether ``point`` lies in the componentwise intervals of affine ``v``."""
    bounds = np.array([interval_of(f) for f in v])
    return bool(np.all(point >= bounds[:, 0] - tol) and np.all(point <= bounds[:, 1] + tol))


class TestIntervalOf:
    def test_mixed_signs(self, registry):
        e1, e2 = make_symbols(registry, 2)
        f = PolyForm(registry, 3.0, {(e1,): 2.0, (e2,): -1.0})
        assert interval_of(f) == (0.0, 6.0)

    def test_constant(self, registry):
        assert interval_of(PolyForm.constant(registry, 5.0)) == (5.0, 5.0)

    def test_rejects_degree_two(self, registry):
        e1 = make_symbols(registry, 1)[0]
        with pytest.raises(DegreeError):
            interval_of(PolyForm(registry, 0.0, {(e1, e1): 1.0}))

    def test_random_assignments_inside_and_endpoints_attained(self, registry):
        syms = make_symbols(registry, 4)
        rng = np.random.default_rng(0)
        f = PolyForm(registry, 1.0, {(s,): float(rng.uniform(-2, 2)) for s in syms})
        lo, hi = interval_of(f)
        values = []
        for _ in range(10_000):
            values.append(f.evaluate(random_assignment(syms, rng)))
        assert min(values) >= lo - 1e-12 and max(values) <= hi + 1e-12
        coeffs = f.linear_coeffs()
        at_hi = f.evaluate({s: (1.0 if coeffs.get(s, 0) >= 0 else -1.0) for s in syms})
        at_lo = f.evaluate({s: (-1.0 if coeffs.get(s, 0) >= 0 else 1.0) for s in syms})
        assert at_hi == pytest.approx(hi, rel=1e-12)
        assert at_lo == pytest.approx(lo, rel=1e-12)


class TestMatMul:
    def test_identity(self, registry):
        syms = make_symbols(registry, 2)
        rng = np.random.default_rng(1)
        b = ZMatrix(registry, [[random_form(registry, syms, rng) for _ in range(2)] for _ in range(2)])
        ident = ZMatrix.from_real(registry, np.eye(2))
        out = mat_mul(ident, b)
        for i in range(2):
            for j in range(2):
                assert out[i, j].terms == b[i, j].terms
                assert out[i, j].center == pytest.approx(b[i, j].center)

    def test_1x1_reduces_to_scalar_product(self, registry):
        syms = make_symbols(registry, 2)
        rng = np.random.default_rng(2)
        a, b = random_form(registry, syms, rng), random_form(registry, syms, rng)
        out = mat_mul(ZMatrix(registry, [[a]]), ZMatrix(registry, [[b]]))
        prod = a * b
        assert out[0, 0].terms == prod.terms

    def test_random_2x2_matches_evaluation(self, registry):
        syms = make_symbols(registry, 3)
        rng = np.random.default_rng(3)
        a = ZMatrix(registry, [[random_form(registry, syms, rng) for _ in range(2)] for _ in range(2)])
        b = ZMatrix(registry, [[random_form(registry, syms, rng) for _ in range(2)] for _ in range(2)])
        prod = mat_mul(a, b)
        for _ in range(200):
            e = random_assignment(syms, rng)
            np.testing.assert_allclose(prod.evaluate(e), a.evaluate(e) @ b.evaluate(e),
                                       rtol=1e-12, atol=1e-12)


class TestLinearize:
    def test_square_term_replaced_by_fresh(self, registry):
        e1 = make_symbols(registry, 1)[0]
        v = ZVector(registry, [PolyForm(registry, 1.0, {(e1, e1): 1.0})])
        out = linearize(v)
        assert out.is_affine()
        assert out[0].center == 1.0
        (sid,) = out[0].symbols()
        assert sid != e1 and sid in registry  # a new symbol of the registry

    def test_affine_input_unchanged(self, registry):
        e1 = make_symbols(registry, 1)[0]
        before = len(registry)
        v = ZVector(registry, [PolyForm.symbol(registry, e1, 2.0, center=1.0)])
        out = linearize(v)
        assert len(registry) == before
        assert out[0].terms == v[0].terms

    def test_shared_monomial_maps_to_one_fresh_symbol(self, registry):
        e1, e2 = make_symbols(registry, 2)
        mono = (e1, e2)
        v = ZVector(registry, [
            PolyForm(registry, 0.0, {mono: 2.0}),
            PolyForm(registry, 0.0, {mono: -3.0}),
        ])
        out = linearize(v)
        s0 = out[0].symbols()
        s1 = out[1].symbols()
        assert s0 == s1 and len(s0) == 1

    def test_containment_of_sampled_points(self, registry):
        syms = make_symbols(registry, 3)
        rng = np.random.default_rng(4)
        v = ZVector(registry, [random_form(registry, syms, rng) for _ in range(3)])
        box = linearize(v)
        for _ in range(100):
            point = v.evaluate(random_assignment(syms, rng))
            assert box_contains(box, point, tol=1e-10)


class TestIntervalHull:
    def test_row_abs_sums(self, registry):
        e1, e2 = make_symbols(registry, 2)
        v = affine_vec(registry, [0.0, 0.0], [{e1: 1.0, e2: 2.0}, {e1: 1.0}])
        out = interval_hull(v, {e1, e2})
        c0 = list(out[0].terms.values())
        c1 = list(out[1].terms.values())
        assert c0 == [3.0] and c1 == [1.0]
        # one fresh symbol per dimension, distinct
        assert out[0].symbols() != out[1].symbols()

    def test_empty_selection_is_identity(self, registry):
        e1 = make_symbols(registry, 1)[0]
        v = affine_vec(registry, [1.0], [{e1: 2.0}])
        out = interval_hull(v, set())
        assert out[0].terms == v[0].terms

    def test_containment(self, registry):
        syms = make_symbols(registry, 4)
        rng = np.random.default_rng(5)
        v = affine_vec(
            registry,
            rng.uniform(-1, 1, size=3),
            [{s: float(rng.uniform(-2, 2)) for s in syms} for _ in range(3)],
        )
        out = interval_hull(v, set(syms[:2]))
        for _ in range(200):
            assert box_contains(out, v.evaluate(random_assignment(syms, rng)), tol=1e-10)

    def test_order_one_after_full_hull(self, registry):
        syms = make_symbols(registry, 5)
        rng = np.random.default_rng(6)
        v = affine_vec(
            registry,
            rng.uniform(-1, 1, size=3),
            [{s: float(rng.uniform(1, 2)) for s in syms} for _ in range(3)],
        )
        out = interval_hull(v, set(syms))
        # Order one: one distinct monomial per dimension.
        assert len({mono for f in out for mono in f.terms}) == len(out)


class TestBoxJoin:
    def test_single_part_is_own_box(self, registry):
        e1 = make_symbols(registry, 1)[0]
        v = affine_vec(registry, [1.0], [{e1: 2.0}])
        out = box_join([v])
        lo, hi = interval_of(out[0])
        assert (lo, hi) == (-1.0, 3.0)

    def test_two_abutting_boxes(self, registry):
        e1, e2 = make_symbols(registry, 2)
        a = affine_vec(registry, [-0.5], [{e1: 0.5}])
        b = affine_vec(registry, [0.5], [{e2: 0.5}])
        out = box_join([a, b])
        assert interval_of(out[0]) == (-1.0, 1.0)

    def test_containment_of_each_part(self, registry):
        syms = make_symbols(registry, 3)
        rng = np.random.default_rng(10)
        parts = [
            affine_vec(
                registry,
                rng.uniform(-1, 1, size=2),
                [{s: float(rng.uniform(-2, 2)) for s in syms} for _ in range(2)],
            )
            for _ in range(3)
        ]
        box = box_join(parts)
        for p in parts:
            for _ in range(100):
                assert box_contains(box, p.evaluate(random_assignment(syms, rng)), tol=1e-10)
