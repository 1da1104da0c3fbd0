from fractions import Fraction

import pytest

from helpers import index_over_product_lattice
from hyperelliptic.cyclotomic import RootOfUnity
from hyperelliptic.exactlin import identity, mat_mul, transpose
from hyperelliptic.torus import (
    AlternatingForm,
    EllipticFactor,
    InvalidAutomorphism,
    NoProvenance,
    TorusDatum,
    build_product_torus,
    factor_automorphism_matrix,
    factor_block_eigenvalue,
    identify_factor_subspace,
    standard_form,
)

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
        with pytest.raises(InvalidAutomorphism):
            factor_automorphism_matrix(GEN, RootOfUnity.of(1, 4))
        with pytest.raises(InvalidAutomorphism):
            factor_automorphism_matrix(GAUSS, RootOfUnity.of(1, 3))

    @pytest.mark.parametrize(
        "factor", [GEN, GAUSS, EIS], ids=["generic", "gauss", "eisenstein"]
    )
    def test_matrix_order_matches_root_order(self, factor):
        for unit in factor.units.values():
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
            for unit in factor.units.values():
                m = factor_automorphism_matrix(factor, unit)
                assert factor_block_eigenvalue(factor, m) == unit


class TestBuildProductTorus:
    def test_single_generic_factor(self):
        t = build_product_torus([GEN])
        assert t.rank == 2
        assert index_over_product_lattice(t) == 1

    def test_half_diagonal_identification(self):
        t = build_product_torus(
            [GEN, EllipticFactor("generic", "tau1"), GAUSS],
            [(F(1, 2), 0, F(1, 2), 0, 0, 0)],
        )
        assert t.rank == 6
        assert index_over_product_lattice(t) == 2

    def test_hyperelliptic_fibers_style_generator(self):
        # K = <(1/2, 0, 1/2)> in complex notation, expanded coordinates below
        t = build_product_torus(
            [GEN, EllipticFactor("generic", "tau1"), EllipticFactor("generic", "tau2")],
            [(F(1, 2), 0, 0, 0, F(1, 2), 0)],
        )
        assert index_over_product_lattice(t) == 2

    def test_index_is_subgroup_order(self):
        # generator of order 3 plus an independent one of order 2
        t = build_product_torus(
            [GEN, EIS],
            [(F(1, 3), 0, F(1, 3), F(-1, 3)), (0, F(1, 2), 0, 0)],
        )
        assert index_over_product_lattice(t) == 6

    def test_lattice_coord_roundtrip(self):
        t = build_product_torus([GEN, GAUSS], [(F(1, 2), 0, F(1, 2), 0)])
        v = (F(1, 2), F(0), F(1, 2), F(0))
        w = t.to_lattice_coords(v)
        assert all(x.denominator == 1 for x in w)  # v is in Lambda
        assert t.to_product_coords(w) == v


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
        with pytest.raises(NoProvenance):
            standard_form(TorusDatum.raw(2))

    def test_rational_on_enlarged_lattice(self):
        t = build_product_torus([GEN, GEN], [(F(1, 2), 0, F(1, 2), 0)])
        form = standard_form(t)
        dens = {x.denominator for row in form.matrix for x in row}
        assert dens <= {1, 2, 4}


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
