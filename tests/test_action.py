from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import index_over_product_lattice
from hyperelliptic.action import (
    AffineAut,
    HyperellipticDatum,
    LatticeNotPreserved,
    MissingEigenvalueData,
    NotClosedWithinCap,
    affine_from_factor_action,
    affine_identity,
    affine_raw,
    char_poly,
    close_group,
    compose,
    cyclotomic_multiplicities,
    has_fixed_point,
    quotient_by_translations,
    validate,
)
from hyperelliptic.catalog import get_entry, list_entries
from hyperelliptic.cyclotomic import RootOfUnity
from hyperelliptic.exactlin import identity, mat_mul
from hyperelliptic.torus import (
    EllipticFactor,
    TorusDatum,
    build_product_torus,
    factor_automorphism_matrix,
    standard_form,
)

F = Fraction

GEN0 = EllipticFactor("generic", "tau0")
GEN1 = EllipticFactor("generic", "tau1")
GEN2 = EllipticFactor("generic", "tau2")
GAUSS = EllipticFactor("gauss")
EIS = EllipticFactor("eisenstein")

ONE = RootOfUnity.one()
MINUS = RootOfUnity.of(1, 2)
I4 = RootOfUnity.of(1, 4)
Z3 = RootOfUnity.of(1, 3)


def block(factor, zeta):
    return factor_automorphism_matrix(factor, zeta)


def z4_threefold(quarter=F(1, 4)):
    """Order-4 action on (E_tau0 x E_tau1 x E_i) / <(1/2, 1/2, 0)>."""
    torus = build_product_torus(
        [GEN0, GEN1, GAUSS], [(F(1, 2), 0, F(1, 2), 0, 0, 0)]
    )
    g = affine_from_factor_action(
        torus,
        [block(GEN0, ONE), block(GEN1, MINUS), block(GAUSS, I4)],
        (quarter, 0, 0, 0, 0, 0),
    )
    group = close_group([g], torus)
    return HyperellipticDatum(torus, group, standard_form(torus))


def zmzm_threefold(m):
    """(Z/m)^2 action on (E_0 x E_1 x E_2) / <(1/m, 0, t)>."""
    if m == 2:
        factors = [GEN0, GEN1, GEN2]
        zeta = MINUS
        t = (F(1, 2), F(0))
    else:
        factors = [GEN0, EllipticFactor("eisenstein", "e1"), EllipticFactor("eisenstein", "e2")]
        zeta = Z3
        t = (F(1, 3), F(-1, 3))  # (1 - zeta3)/3, a fixed point of z -> zeta3 z
    torus = build_product_torus(
        factors, [(F(1, m), 0, 0, 0) + t]
    )
    g1 = affine_from_factor_action(
        torus,
        [block(factors[0], ONE), block(factors[1], zeta), block(factors[2], ONE)],
        (F(1, m), 0, 0, 0, 0, 0),
    )
    g2 = affine_from_factor_action(
        torus,
        [block(factors[0], ONE), block(factors[1], ONE), block(factors[2], zeta)],
        (0, F(1, m), 0, 0, 0, 0),
    )
    group = close_group([g1, g2], torus)
    return HyperellipticDatum(torus, group, standard_form(torus))


class TestCharPoly:
    def test_identity(self):
        assert char_poly(identity(2)) == (1, -2, 1)

    def test_rotation(self):
        assert char_poly(((0, -1), (1, 0))) == (1, 0, 1)

    def test_multiplicities(self):
        assert cyclotomic_multiplicities((1, 0, 1)) == {4: 1}
        assert cyclotomic_multiplicities(char_poly(identity(3))) == {1: 3}

    def test_empty_and_scalar(self):
        assert char_poly(()) == (1,)
        assert char_poly(((3,),)) == (-3, 1)


def sympy_char_poly(m) -> tuple[int, ...]:
    """det(x*I - m), constant term first, computed by sympy."""
    sympy = pytest.importorskip("sympy")
    coeffs = sympy.Matrix(m).charpoly().all_coeffs()
    return tuple(int(c) for c in reversed(coeffs))


square_int_matrix = st.integers(1, 8).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


class TestCharPolyAgainstSympy:
    @settings(max_examples=60, deadline=None)
    @given(square_int_matrix)
    def test_random_integer_matrices(self, rows):
        m = tuple(map(tuple, rows))
        assert char_poly(m) == sympy_char_poly(m)

    @pytest.mark.parametrize("name", list_entries())
    def test_catalog_elements(self, name):
        for e in get_entry(name).build().group.elements:
            assert char_poly(e.linear) == sympy_char_poly(e.linear)


class TestClosure:
    def test_involution(self):
        torus = build_product_torus([GEN0])
        g = affine_from_factor_action(torus, [block(GEN0, MINUS)], (0, 0))
        group = close_group([g], torus)
        assert group.order == 2

    def test_z4_has_order_4_without_translations(self):
        d = z4_threefold()
        assert d.group.order == 4
        assert sum(1 for e in d.group.elements if e.is_translation()) == 1  # identity only

    @pytest.mark.parametrize("m", [2, 3])
    def test_zmzm_closure(self, m):
        d = zmzm_threefold(m)
        assert d.group.order == m * m
        orders = sorted(d.group.element_order(i) for i in range(d.group.order))
        assert orders == sorted([1] + [m] * (m * m - 1))
        assert d.group.is_abelian()
        assert not d.group.is_cyclic()

    def test_cap(self):
        torus = build_product_torus([GEN0])
        g = AffineAut(identity(2), (F(1, 5), F(0)), (ONE,))
        with pytest.raises(NotClosedWithinCap):
            close_group([g], torus, cap=3)

    def test_non_unimodular_rejected(self):
        torus = TorusDatum.raw(2)
        bad = affine_raw(((2, 0), (0, 1)), (0, 0), (ONE,))
        with pytest.raises(LatticeNotPreserved):
            close_group([bad], torus)

    def test_lattice_not_preserved_by_factor_action(self):
        # -1 on only one half of an identified pair does not descend
        torus = build_product_torus([GEN0, GEN1], [(F(1, 2), 0, F(1, 2), 0)])
        with pytest.raises(LatticeNotPreserved):
            affine_from_factor_action(
                torus, [block(GEN0, ONE), ((2, 0), (0, 2))], (0, 0, 0, 0)
            )

    def test_raw_closure_needs_eigenvalues_for_complex_products(self):
        torus = TorusDatum.raw(4)
        rot = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
        swapped = affine_raw(rot, (0, 0, 0, 0), (I4, I4.conjugate()))
        with pytest.raises(MissingEigenvalueData):
            close_group([swapped], torus)

    def test_raw_closure_with_real_eigenvalues_derives(self):
        torus = TorusDatum.raw(2)
        neg = affine_raw(((-1, 0), (0, -1)), (F(1, 2), 0), (MINUS,))
        group = close_group([neg], torus)
        assert group.order == 2


class TestComposeInverse:
    def test_compose_reduces_mod_lattice(self):
        torus = build_product_torus([GEN0])
        g = affine_from_factor_action(torus, [block(GEN0, ONE)], (F(1, 2), 0))
        gg = compose(g, g)
        assert gg.is_identity()

    @staticmethod
    def _inverse_in(group, g):
        """The element h of the closed group with g . h = identity."""
        (h,) = [h for h in group.elements if compose(g, h).is_identity()]
        return h

    def test_inverse(self):
        d = z4_threefold()
        g = d.group.generators[0]
        g_inv = self._inverse_in(d.group, g)
        assert not g_inv.is_identity()
        assert compose(g_inv, g).is_identity()

    @pytest.mark.parametrize("name", ["z4-threefold", "zmzm-threefold-m3"])
    def test_inverse_conjugates_eigenvalues(self, name):
        group = get_entry(name).build().group
        i = next(i for i in range(group.order) if group.element_order(i) in (3, 4))
        g = group.elements[i]
        g_inv = self._inverse_in(group, g)
        assert g_inv.eigenvalues == tuple(z.conjugate() for z in g.eigenvalues)
        assert g_inv.eigenvalues != g.eigenvalues

    def test_is_translation(self):
        ident = affine_identity(2)
        assert ident.is_translation()
        shift = AffineAut(identity(2), (F(1, 2), F(0)), (ONE,))
        assert shift.is_translation()
        neg = affine_raw(((-1, 0), (0, -1)), (0, 0), (MINUS,))
        assert not neg.is_translation()


class TestFixedPoints:
    def test_negation_has_fixed_points(self):
        torus = build_product_torus([GEN0])
        g = affine_from_factor_action(torus, [block(GEN0, MINUS)], (0, 0))
        assert has_fixed_point(g, torus) is True

    def test_pure_half_translation_is_free(self):
        torus = build_product_torus([GEN0])
        g = AffineAut(identity(2), (F(1, 2), F(0)), (ONE,))
        assert has_fixed_point(g, torus) is False

    def test_z4_square_acts_freely(self):
        d = z4_threefold()
        g = d.group.generators[0]
        g2 = compose(g, g)
        assert not g2.is_identity()
        assert has_fixed_point(g2, d.torus) is False

    def test_corrupted_z4_square_has_fixed_point(self):
        d = z4_threefold(quarter=F(1, 2))
        g = d.group.generators[0]
        g2 = compose(g, g)
        assert has_fixed_point(g2, d.torus) is True


class TestValidate:
    def test_z4_passes(self):
        d = z4_threefold()
        report = validate(d)
        assert report.passed
        assert report.is_hyperelliptic
        assert report.group_order == 4
        assert report.nonidentity_translations == ()

    @pytest.mark.parametrize("m", [2, 3])
    def test_zmzm_passes(self, m):
        report = validate(zmzm_threefold(m))
        assert report.passed
        assert report.group_order == m * m

    def test_corrupted_z4_fails_freeness_at_g2(self):
        d = z4_threefold(quarter=F(1, 2))
        report = validate(d)
        assert not report.passed
        g = d.group.generators[0]
        g2 = compose(g, g)
        g2_index = d.group.index_of(g2)
        assert g2_index in report.fixed_point_elements

    def test_faithful_on_valid_data(self):
        d = z4_threefold()
        validate(d)
        linears = {e.linear for e in d.group.elements}
        assert len(linears) == d.group.order


class TestEigenvalueOrders:
    def test_linear_order_is_lcm_of_eigenvalue_orders(self):
        from math import lcm

        from hyperelliptic.catalog import get_entry, list_entries

        for name in list_entries():
            d = get_entry(name).build()
            for e in d.group.elements:
                expected = 1
                for z in e.eigenvalues:
                    expected = lcm(expected, z.order)
                power = identity(e.rank)
                order = None
                for k in range(1, 2 * expected + 1):
                    power = mat_mul(power, e.linear)
                    if power == identity(e.rank):
                        order = k
                        break
                assert order == expected, (name, e.eigenvalues)


class TestQuotientByTranslations:
    def test_no_translations_identity(self):
        d = z4_threefold()
        assert quotient_by_translations(d) is d

    def test_single_translation_of_order_two(self):
        torus = build_product_torus([GEN0])
        shift = AffineAut(identity(2), (F(1, 2), F(0)), (ONE,))
        group = close_group([shift], torus)
        d = HyperellipticDatum(torus, group, standard_form(torus))
        out = quotient_by_translations(d)
        assert out.group.order == 1
        assert index_over_product_lattice(out.torus) == 2 * index_over_product_lattice(torus)

    def test_idempotent(self):
        torus = build_product_torus([GEN0, GEN1])
        shift = AffineAut(
            identity(4), (F(1, 2), F(0), F(0), F(0)), (ONE, ONE)
        )
        neg = affine_from_factor_action(
            torus, [block(GEN0, ONE), block(GEN1, MINUS)], (0, F(1, 2), 0, 0)
        )
        group = close_group([shift, neg], torus)
        d = HyperellipticDatum(torus, group, standard_form(torus))
        once = quotient_by_translations(d)
        assert once.group.order == 2
        twice = quotient_by_translations(once)
        assert twice is once

    def test_group_order_factorization(self):
        torus = build_product_torus([GEN0, GEN1])
        shift = AffineAut(
            identity(4), (F(1, 2), F(0), F(0), F(0)), (ONE, ONE)
        )
        neg = affine_from_factor_action(
            torus, [block(GEN0, ONE), block(GEN1, MINUS)], (0, F(1, 2), 0, 0)
        )
        group = close_group([shift, neg], torus)
        d = HyperellipticDatum(torus, group, standard_form(torus))
        out = quotient_by_translations(d)
        translations = sum(1 for e in d.group.elements if e.is_translation())
        assert out.group.order * translations == d.group.order
        assert all(
            not e.is_translation() for e in out.group.elements if not e.is_identity()
        )
