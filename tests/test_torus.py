import cmath
from fractions import Fraction

import pytest

from helpers import (
    as_pair,
    factor_subspace_in_product_coords,
    from_rat_columns,
    index_over_product_lattice,
    lam_basis,
    lattice_coords,
    mat_inv,
    over_common_denominator,
    rational,
    reference_mat_mul,
    ring_block,
    scaled_mod1,
)
from hyperelliptic.cyclotomic import RootOfUnity
from hyperelliptic.documents import build_datum, parse_vector
from hyperelliptic.errors import InternalError, InvalidDatum
from hyperelliptic.exactlin import Sublattice, identity, mat_mul, transpose
from hyperelliptic.torus import (
    FACTOR_KINDS,
    EllipticFactor,
    TorusDatum,
    build_product_torus,
    factor_automorphism_matrix,
    factor_block_eigenvalue,
    identify_factor_subspace,
    standard_form,
)
from output_digest import documents as digest_documents

F = Fraction

GEN = EllipticFactor("generic", "tau0")
GAUSS = EllipticFactor("gauss")
EIS = EllipticFactor("eisenstein")


class TestFactorMatrices:
    def test_negation_on_generic(self):
        m = factor_automorphism_matrix(GEN, RootOfUnity.of(1, 2))
        assert m == ((-1, 0), (0, -1))

    def test_i_on_gauss(self):
        m = factor_automorphism_matrix(GAUSS, RootOfUnity.of(1, 4))
        assert m == ((0, -1), (1, 0))

    def test_zeta3_on_eisenstein(self):
        m = factor_automorphism_matrix(EIS, RootOfUnity.of(1, 3))
        assert m == ((0, -1), (1, -1))

    def test_rejects_foreign_automorphism(self):
        with pytest.raises(InvalidDatum, match="^i is not an automorphism of a generic factor$"):
            factor_automorphism_matrix(GEN, RootOfUnity.of(1, 4))
        with pytest.raises(InvalidDatum, match="^zeta3 is not an automorphism of a gauss factor$"):
            factor_automorphism_matrix(GAUSS, RootOfUnity.of(1, 3))

    @pytest.mark.parametrize(
        "factor", [GEN, GAUSS, EIS], ids=["generic", "gauss", "eisenstein"]
    )
    def test_matrix_order_matches_root_order(self, factor):
        for unit in FACTOR_KINDS[factor.kind].blocks:
            m = factor_automorphism_matrix(factor, unit)
            power = identity(2)
            order = 0
            for k in range(1, 13):
                power = mat_mul(power, m)
                if power == identity(2):
                    order = k
                    break
            assert order == unit.order

    def test_block_eigenvalue_roundtrip(self):
        for factor in (GEN, GAUSS, EIS):
            for unit in FACTOR_KINDS[factor.kind].blocks:
                m = factor_automorphism_matrix(factor, unit)
                assert factor_block_eigenvalue(factor, m) == unit


# tau of each kind as a complex number; a generic factor's ring is Z, so its tau never enters
TAU = {"generic": 0, "gauss": 1j, "eisenstein": cmath.exp(2j * cmath.pi / 3)}
UNIT_GROUP_ORDER = {"generic": 2, "gauss": 4, "eisenstein": 6}
J = ((0, 1), (-1, 0))


@pytest.mark.parametrize("kind", sorted(FACTOR_KINDS))
class TestFactorKindTable:
    """Each entry of the kinds table against the ring-multiplication reference.

    The order of each block and the reverse lookup are checked per unit in
    TestFactorMatrices.
    """

    def test_units_are_the_whole_unit_group(self, kind):
        n = UNIT_GROUP_ORDER[kind]
        assert set(FACTOR_KINDS[kind].blocks) == {RootOfUnity.of(k, n) for k in range(n)}

    def test_every_block_is_multiplication_by_its_unit(self, kind):
        for unit, block in FACTOR_KINDS[kind].blocks.items():
            a, b = block[0][0], block[1][0]
            assert block == ring_block(kind, a, b)
            zeta = cmath.exp(2j * cmath.pi * unit.k / unit.order)
            assert cmath.isclose(a + b * TAU[kind], zeta, abs_tol=1e-12)

    def test_every_block_has_det_1_and_preserves_the_form(self, kind):
        for block in FACTOR_KINDS[kind].blocks.values():
            assert block[0][0] * block[1][1] - block[0][1] * block[1][0] == 1
            assert mat_mul(mat_mul(transpose(block), J), block) == J

    def test_a_unimodular_non_unit_block_is_refused(self, kind):
        shear = ((1, 1), (0, 1))
        with pytest.raises(InvalidDatum, match="is not an automorphism"):
            factor_block_eigenvalue(EllipticFactor(kind), shear)

    def test_the_default_label_is_the_kinds(self, kind):
        assert EllipticFactor(kind).display_label() == FACTOR_KINDS[kind].label
        assert EllipticFactor(kind, "E").display_label() == "E"


class TestBuildProductTorus:
    def test_single_generic_factor(self):
        t = build_product_torus([GEN])
        assert t.rank == 2
        assert index_over_product_lattice(t) == 1

    def test_half_diagonal_identification(self):
        t = build_product_torus(
            [GEN, EllipticFactor("generic", "tau1"), GAUSS],
            over_common_denominator([(F(1, 2), 0, F(1, 2), 0, 0, 0)]),
        )
        assert t.rank == 6
        assert index_over_product_lattice(t) == 2

    def test_hyperelliptic_fibers_style_generator(self):
        # K = <(1/2, 0, 1/2)> in complex notation, expanded coordinates below
        t = build_product_torus(
            [GEN, EllipticFactor("generic", "tau1"), EllipticFactor("generic", "tau2")],
            over_common_denominator([(F(1, 2), 0, 0, 0, F(1, 2), 0)]),
        )
        assert index_over_product_lattice(t) == 2

    def test_index_is_subgroup_order(self):
        # generator of order 3 plus an independent one of order 2
        t = build_product_torus(
            [GEN, EIS],
            over_common_denominator([(F(1, 3), 0, F(1, 3), F(-1, 3)), (0, F(1, 2), 0, 0)]),
        )
        assert index_over_product_lattice(t) == 6

    def test_lattice_coord_roundtrip(self):
        t = build_product_torus([GEN, GAUSS], over_common_denominator([(F(1, 2), 0, F(1, 2), 0)]))
        v = (F(1, 2), F(0), F(1, 2), F(0))
        w = lattice_coords(t, v)
        assert all(x.denominator == 1 for x in w)  # v is in Lambda
        assert rational(*t.to_product_coords(*as_pair(w))) == v


class TestStandardForm:
    def test_one_generic_factor(self):
        form = standard_form(build_product_torus([GEN]))
        assert form.matrix == ((F(0), F(1)), (F(-1), F(0)))

    def test_two_factors_block_diagonal(self):
        form = standard_form(build_product_torus([GEN, GAUSS]))
        assert form.matrix[0][1] == 1 and form.matrix[2][3] == 1
        assert form.matrix[0][2] == 0 and form.matrix[1][3] == 0

    def test_gauss_rotation_preserves_form(self):
        t = build_product_torus([GAUSS])
        form = standard_form(t)
        m = factor_automorphism_matrix(GAUSS, RootOfUnity.of(1, 4))
        assert form.is_invariant_under(m)

    def test_raw_needs_explicit_form(self):
        with pytest.raises(
            InternalError, match="^raw lattices must supply an alternating form explicitly$"
        ):
            standard_form(TorusDatum.raw(2))

    def test_rational_on_enlarged_lattice(self):
        # the Gram matrix lam^T J lam has denominators dividing den^2 = 4; the
        # form keeps den^2 times it, C^T J C for the Hermite columns C
        t = build_product_torus([GEN, GEN], over_common_denominator([(F(1, 2), 0, F(1, 2), 0)]))
        form = standard_form(t)
        j = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
        basis = lam_basis(t)
        gram = reference_mat_mul(reference_mat_mul(transpose(basis), j), basis)
        assert {x.denominator for row in gram for x in row} <= {1, 2, 4}
        assert t.lattice.den == 2
        assert form.matrix == tuple(tuple(4 * x for x in row) for row in gram)
        assert all(type(x) is int for row in form.matrix for x in row)

    def test_raw_form_is_stored_over_its_lcm_denominator(self):
        form = build_datum({"mode": "raw", "rank": 2, "form": [["0", "1/2"], ["-1/2", "0"]]}).form
        assert form.matrix == ((0, 1), (-1, 0))
        assert all(type(x) is int for row in form.matrix for x in row)
        swap = ((0, 1), (1, 0))
        assert not form.is_invariant_under(swap)
        assert form.is_invariant_under(((0, -1), (1, 0)))


class TestIdentifyFactorSubspace:
    def test_factor_plane(self):
        from hyperelliptic.exactlin import Sublattice

        t = build_product_torus([GEN, GAUSS])
        sub = Sublattice.from_int_columns(4, [(0, 0, 1, 0), (0, 0, 0, 1)])
        assert identify_factor_subspace(t, sub) == (1,)

    def test_skew_plane_is_not_identified(self):
        from hyperelliptic.exactlin import Sublattice

        t = build_product_torus([GEN, GAUSS])
        sub = Sublattice.from_int_columns(4, [(1, 0, 1, 0), (0, 1, 0, 1)])
        assert identify_factor_subspace(t, sub) is None

    @pytest.mark.parametrize("k_gens", [(), ((F(1, 2), F(1, 2), F(1, 2), F(1, 2), 0, 0),)])
    def test_hand_made_sublattices_match_product_coordinates(self, k_gens):
        # sublattices written in product coordinates: odd rank, a support wider
        # than the rank, a plane of index 2, planes enlarged by a half vector
        # (the k_gen lies in Lambda, the other half vector never does) and the
        # aligned planes themselves
        t = build_product_torus([GEN, GAUSS, EIS], over_common_denominator(k_gens))
        e = [tuple(F(int(i == j)) for j in range(6)) for i in range(6)]
        half = (F(1, 2), F(1, 2), 0, 0, 0, 0)
        cases = {
            "odd rank": ([e[0]], None),
            "odd rank three": ([e[0], e[1], e[2]], None),
            "wrong support": ([e[0], e[2]], None),
            "wrong support four": ([e[0], e[1], e[2], e[4]], None),
            "index 2": ([tuple(2 * x for x in e[0]), e[1]], None),
            "half vector": ([e[0], e[1], half], None),
            "half vector across": ([e[0], e[1], e[2], e[3], (F(1, 2),) * 4 + (0, 0)], None),
            "first plane": ([e[0], e[1]], (0,)),
            "outer planes": ([e[0], e[1], e[4], e[5]], (0, 2)),
            "everything": (e, (0, 1, 2)),
        }
        for name, (vectors, expected) in cases.items():
            sub = from_rat_columns(6, [lattice_coords(t, v) for v in vectors])
            got = identify_factor_subspace(t, sub)
            assert got == factor_subspace_in_product_coords(t, sub), name
            assert got == expected, name

    def test_raw_torus_has_no_factors(self):
        t = TorusDatum.raw(4)
        sub = Sublattice.standard(4)
        assert identify_factor_subspace(t, sub) is None
        assert factor_subspace_in_product_coords(t, sub) is None


def test_lattice_inverse_matches_the_reference_inverse_on_every_builder_torus():
    # lam_basis_inv's columns are the coordinates of the unit vectors in the
    # basis C / den; the reference inverts that basis as a Fraction matrix
    tori = [
        build_datum(doc).torus for _, doc in digest_documents() if doc["mode"] == "builder"
    ]
    assert len(tori) > 200
    for t in tori:
        basis = lam_basis(t)
        assert t.lam_basis_inv == mat_inv(basis)
        assert reference_mat_mul(basis, t.lam_basis_inv) == identity(t.rank)


def test_generator_translations_match_the_rational_reference_on_every_builder_document():
    # the builder carries a product-coordinate translation into lattice
    # coordinates in integers; the reference does it in Fraction arithmetic
    count = 0
    for _, doc in digest_documents():
        if doc["mode"] != "builder":
            continue
        d = build_datum(doc)
        for spec, index in zip(doc["generators"], d.group.gens):
            t = rational(*parse_vector(spec.get("translation", ["0"] * d.rank), d.rank))
            e = d.group.elements[index]
            assert (e.den, e.shift) == scaled_mod1(lattice_coords(d.torus, t))
            count += 1
    assert count > 250
