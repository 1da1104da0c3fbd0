from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_perfbench
from helpers import (
    as_pair,
    compose,
    coset_has_fixed_point,
    coset_meets_lattice,
    element_index,
    fiber_datum,
    members_of,
    over_common_denominator,
    scaled_mod1,
    vec_denominator,
    vec_mod1,
)
from hyperelliptic.action import (
    AffineAut,
    HyperellipticDatum,
    affine_from_factor_action,
    affine_identity,
    affine_raw,
    char_poly,
    close_group,
    cyclotomic_multiplicities,
    has_fixed_point,
    quotient_by_translations,
    rewrite_on_lattice,
    validate,
)
from hyperelliptic.albanese import run_pipeline
from hyperelliptic.catalog import get_entry, list_entries
from hyperelliptic.cyclotomic import RootOfUnity
from hyperelliptic.documents import build_datum
from hyperelliptic.errors import CapReached, InternalError, InvalidDatum
from hyperelliptic.exactlin import Sublattice, identity, mat_mul, transpose
from hyperelliptic.torus import (
    AlternatingForm,
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
        [GEN0, GEN1, GAUSS], over_common_denominator([(F(1, 2), 0, F(1, 2), 0, 0, 0)])
    )
    g = affine_from_factor_action(
        torus,
        [block(GEN0, ONE), block(GEN1, MINUS), block(GAUSS, I4)],
        as_pair((quarter, 0, 0, 0, 0, 0)),
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
        factors, over_common_denominator([(F(1, m), 0, 0, 0) + t])
    )
    g1 = affine_from_factor_action(
        torus,
        [block(factors[0], ONE), block(factors[1], zeta), block(factors[2], ONE)],
        as_pair((F(1, m), 0, 0, 0, 0, 0)),
    )
    g2 = affine_from_factor_action(
        torus,
        [block(factors[0], ONE), block(factors[1], ONE), block(factors[2], zeta)],
        as_pair((0, F(1, m), 0, 0, 0, 0)),
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
        g = affine_from_factor_action(torus, [block(GEN0, MINUS)], as_pair((0, 0)))
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
        orders = sorted(d.group.orders)
        assert orders == sorted([1] + [m] * (m * m - 1))
        assert d.group.is_abelian()
        assert not d.group.is_cyclic()

    def test_cap(self):
        torus = build_product_torus([GEN0])
        g = AffineAut(identity(2), 5, (1, 0), (ONE,))
        with pytest.raises(CapReached, match="^closure cap 3, the group has more elements$"):
            close_group([g], torus, cap=3)

    def test_non_unimodular_rejected(self):
        torus = TorusDatum.raw(2)
        bad = affine_raw(((2, 0), (0, 1)), as_pair((0, 0)), (ONE,))
        with pytest.raises(InvalidDatum, match="^linear part is not unimodular$"):
            close_group([bad], torus)

    def test_rational_matrix_entry_rejected(self):
        # the matrix is taken as given: an entry 1/2 is not truncated to 0, which
        # would make the linear part I and close a translation group of order 2
        torus = TorusDatum.raw(2)
        bad = affine_raw(((1, F(1, 2)), (0, 1)), as_pair((F(1, 2), 0)), (ONE,))
        with pytest.raises(InvalidDatum, match="linear part must be integral on the"):
            close_group([bad], torus)

    def test_lattice_not_preserved_by_factor_action(self):
        # -1 on only one half of an identified pair does not descend
        k_gens = over_common_denominator([(F(1, 2), 0, F(1, 2), 0)])
        torus = build_product_torus([GEN0, GEN1], k_gens)
        with pytest.raises(
            InvalidDatum, match="^linear part does not preserve the enlarged lattice$"
        ):
            affine_from_factor_action(
                torus, [block(GEN0, ONE), ((2, 0), (0, 2))], as_pair((0, 0, 0, 0))
            )

    def test_raw_closure_needs_eigenvalues_for_complex_products(self):
        torus = TorusDatum.raw(4)
        rot = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
        swapped = affine_raw(rot, as_pair((0, 0, 0, 0)), (I4, I4.conjugate()))
        message = ("^closure created an element with complex eigenvalues of order > 2; "
                   "list all group elements with their eigenvalues in the input$")
        with pytest.raises(InvalidDatum, match=message):
            close_group([swapped], torus)

    def test_raw_closure_with_real_eigenvalues_derives(self):
        torus = TorusDatum.raw(2)
        neg = affine_raw(((-1, 0), (0, -1)), as_pair((F(1, 2), 0)), (MINUS,))
        group = close_group([neg], torus)
        assert group.order == 2


RATIONALS = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 60))


@st.composite
def vector_pairs(draw):
    """Two rational vectors of one length 0-6, congruent mod 1 about half the time."""
    n = draw(st.integers(0, 6))
    v = draw(st.lists(RATIONALS, min_size=n, max_size=n))
    if draw(st.booleans()):
        w = [x + draw(st.integers(-3, 3)) for x in v]
    else:
        w = draw(st.lists(RATIONALS, min_size=n, max_size=n))
    return tuple(v), tuple(w)


class TestTranslationStorage:
    """An element's den and shift against the Fraction reduction mod 1 they replace."""

    @settings(max_examples=300, deadline=None)
    @given(vector_pairs())
    def test_den_and_shift_match_the_fraction_reduction(self, pair):
        v, w = pair
        a, b = (affine_raw(identity(len(x)), as_pair(x), ()) for x in pair)
        assert a.den == vec_denominator(vec_mod1(v))
        assert a.shift == tuple(a.den * x for x in vec_mod1(v))
        assert (a.key() == b.key()) == (vec_mod1(v) == vec_mod1(w))


class TestComposeInverse:
    def test_compose_reduces_mod_lattice(self):
        torus = build_product_torus([GEN0])
        g = affine_from_factor_action(torus, [block(GEN0, ONE)], as_pair((F(1, 2), 0)))
        gg = compose(g, g)
        assert gg.key() == affine_identity(2).key()

    @staticmethod
    def _inverse_in(group, g):
        """The element h of the closed group with g . h = identity."""
        (h,) = [h for h in group.elements if compose(g, h).key() == affine_identity(g.rank).key()]
        return h

    def test_inverse(self):
        d = z4_threefold()
        g = d.group.elements[d.group.gens[0]]
        g_inv = self._inverse_in(d.group, g)
        assert g_inv.key() != affine_identity(6).key()
        assert compose(g_inv, g).key() == affine_identity(6).key()

    @pytest.mark.parametrize("name", ["z4-threefold", "zmzm-threefold-m3"])
    def test_inverse_conjugates_eigenvalues(self, name):
        group = get_entry(name).build().group
        i = next(i for i in range(group.order) if group.orders[i] in (3, 4))
        g = group.elements[i]
        g_inv = self._inverse_in(group, g)
        assert g_inv.eigenvalues == tuple(z.conjugate() for z in g.eigenvalues)
        assert g_inv.eigenvalues != g.eigenvalues

    def test_is_translation(self):
        ident = affine_identity(2)
        assert ident.is_translation()
        shift = AffineAut(identity(2), 2, (1, 0), (ONE,))
        assert shift.is_translation()
        neg = affine_raw(((-1, 0), (0, -1)), as_pair((0, 0)), (MINUS,))
        assert not neg.is_translation()


class TestFixedPoints:
    def test_negation_has_fixed_points(self):
        torus = build_product_torus([GEN0])
        g = affine_from_factor_action(torus, [block(GEN0, MINUS)], as_pair((0, 0)))
        assert has_fixed_point(g) is True

    def test_pure_half_translation_is_free(self):
        torus = build_product_torus([GEN0])
        g = AffineAut(identity(2), 2, (1, 0), (ONE,))
        assert has_fixed_point(g) is False

    def test_z4_square_acts_freely(self):
        d = z4_threefold()
        g = d.group.elements[d.group.gens[0]]
        g2 = compose(g, g)
        assert g2.key() != affine_identity(6).key()
        assert has_fixed_point(g2) is False

    def test_corrupted_z4_square_has_fixed_point(self):
        d = z4_threefold(quarter=F(1, 2))
        g = d.group.elements[d.group.gens[0]]
        g2 = compose(g, g)
        assert has_fixed_point(g2) is True

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), min_size=4, max_size=4),
        st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=12), min_size=4, max_size=4
        ),
    )
    def test_hermite_decision_matches_coset_reference(self, b, t):
        linear = tuple(tuple(b[i][j] + int(i == j) for j in range(4)) for i in range(4))
        t = tuple(t)
        span = Sublattice.from_int_columns(4, [c for c in transpose(b) if any(c)])
        g = AffineAut(linear, *scaled_mod1(t), None)
        assert has_fixed_point(g) == coset_meets_lattice(span, t)

    def test_hermite_decision_matches_coset_reference_on_data(self):
        # every element of every catalog datum, of the fibers along each
        # recursion, and of the seed-0 stress points
        stress = load_perfbench("stress")
        data = [get_entry(name).build() for name in list_entries()]
        data += [
            build_datum(stress.stress_document(m, k, base, 0))
            for m, k, base in ((3, 3, 2), (2, 4, 2), (2, 2, 6), (2, 2, 8), (2, 2, 10), (3, 4, 2))
        ]
        fibers = 0
        while data:
            d = data.pop()
            for e in d.group.elements:
                assert has_fixed_point(e) == coset_has_fixed_point(e)
            if validate(d).passed and d.group.order > 1:
                report = run_pipeline(d)
                if report.fiber_class.dim < d.dim:  # q > 0; at q = 0 the fiber is X again
                    data.append(fiber_datum(d, report))
                    fibers += 1
        assert fibers > 20


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
        g = d.group.elements[d.group.gens[0]]
        g2 = compose(g, g)
        g2_index = element_index(d.group, g2)
        assert g2_index in report.fixed_point_elements

    def test_faithful_on_valid_data(self):
        d = z4_threefold()
        assert validate(d).faithful
        linears = {e.linear for e in d.group.elements}
        assert len(linears) == d.group.order

    def test_faithful_iff_no_translations(self):
        # the kernel of g -> lin(g) is the translation subgroup, so distinct
        # linear parts and no nonidentity translation are the same condition
        torus = build_product_torus([GEN0, GEN1])
        shift = AffineAut(identity(4), 2, (1, 0, 0, 0), (ONE, ONE))
        neg = affine_from_factor_action(
            torus, [block(GEN0, ONE), block(GEN1, MINUS)], as_pair((0, F(1, 2), 0, 0))
        )
        data = [get_entry(name).build() for name in list_entries()]
        group = close_group([shift, neg], torus)
        data.append(HyperellipticDatum(torus, group, standard_form(torus)))
        for d in data:
            report = validate(d)
            distinct = len({e.linear for e in d.group.elements}) == d.group.order
            assert report.faithful == distinct == (not report.nonidentity_translations)
        assert not report.faithful and report.nonidentity_translations == (1,)


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


def swap_datum():
    """The swap of (e1, e2) with (e3, e4) on the raw rank-4 torus, form J + J."""
    torus = TorusDatum.raw(4)
    swap = affine_raw(
        ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)), as_pair((0, 0, 0, 0)),
        (ONE, MINUS),
    )
    form = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
    return HyperellipticDatum(torus, close_group([swap], torus), AlternatingForm(form))


def shift_and_flip():
    """(z0 + 1/2, z1) and (z0, -z1 + 1/2) on E_tau0 x E_tau1: element 1 is a translation."""
    torus = build_product_torus([GEN0, GEN1])
    shift = AffineAut(identity(4), 2, (1, 0, 0, 0), (ONE, ONE))
    neg = affine_from_factor_action(
        torus, [block(GEN0, ONE), block(GEN1, MINUS)], as_pair((0, F(1, 2), 0, 0))
    )
    return HyperellipticDatum(torus, close_group([shift, neg], torus), standard_form(torus))


class TestQuotientByTranslations:
    """A faithful datum passes unchanged; a translation in the group is a program bug."""

    def test_no_translations_identity(self):
        d = z4_threefold()
        assert quotient_by_translations(d) is d

    def test_single_translation_of_order_two(self):
        torus = build_product_torus([GEN0])
        shift = AffineAut(identity(2), 2, (1, 0), (ONE,))
        d = HyperellipticDatum(torus, close_group([shift], torus), standard_form(torus))
        with pytest.raises(InternalError, match="element 1 is a translation"):
            quotient_by_translations(d)

    def test_idempotent(self):
        d = shift_and_flip()
        assert d.group.order == 4 and d.group.elements[1].is_translation()
        with pytest.raises(InternalError, match="element 1 is a translation"):
            quotient_by_translations(d)

    def test_unstable_lattice_is_internal_error(self):
        # a basis the group does not preserve is a program bug: exit 3, not "invalid datum";
        # this one is not saturated either, and the saturation certificate comes first
        d = z4_threefold()
        cols = tuple(tuple(2 if i == j == 4 else int(i == j) for i in range(6)) for j in range(6))
        with pytest.raises(InternalError, match="does not span a saturated lattice"):
            rewrite_on_lattice(d, cols, d.torus, members_of(d.group))
        assert InternalError.exit_code == 3

    def test_swap_off_the_basis_plane_is_internal_error(self):
        # M swaps (e1, e2) with (e3, e4), so M B leaves span(B) for B = (e1, e2);
        # the least-squares coordinates (B^T B)^-1 B^T M B of M B are 0, which are
        # integral, so only a test that M B lies in span(B) sees it
        d = swap_datum()
        cols = identity(4)[:2]
        with pytest.raises(InternalError, match="does not preserve the lattice"):
            rewrite_on_lattice(d, cols, TorusDatum.raw(2), members_of(d.group))

    def test_unsaturated_basis_is_internal_error(self):
        # the swap keeps B = (2 (e1 + e3), e2 + e4) as it is, but B spans half of
        # Lambda meet span(B), so it has no integer left inverse
        d = swap_datum()
        cols = ((2, 0, 2, 0), (0, 1, 0, 1))
        with pytest.raises(InternalError, match="does not span a saturated lattice"):
            rewrite_on_lattice(d, cols, TorusDatum.raw(2), members_of(d.group))

    def test_members_not_closed_are_internal_error(self):
        # products are read off the parent's table, so one outside the members is a bug
        d = z4_threefold()
        assert d.group.orders[1] == 4
        cols = identity(6)
        members = members_of(d.group)[:2]
        with pytest.raises(InternalError, match="not closed"):
            rewrite_on_lattice(d, cols, d.torus, members)

    def test_two_members_of_one_image_are_internal_error(self):
        # on the second factor's plane, element 1, a shift along the first factor,
        # acts as the identity
        d = shift_and_flip()
        cols = identity(4)[2:]
        torus = build_product_torus([GEN1])
        with pytest.raises(InternalError, match="elements 0 and 1 have one image"):
            rewrite_on_lattice(d, cols, torus, members_of(d.group))

    def test_group_order_factorization(self):
        # the rewrite gives each member its own element, so no quotient order is left to check
        d = shift_and_flip()
        translations = [i for i, e in enumerate(d.group.elements) if e.is_translation()]
        assert translations == [0, 1]
        with pytest.raises(InternalError, match="element 1 is a translation"):
            quotient_by_translations(d)
