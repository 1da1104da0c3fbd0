import itertools
from fractions import Fraction

import pytest

from helpers import fiber_datum
from hyperelliptic.action import HyperellipticDatum, close_group, validate
from hyperelliptic.albanese import run_pipeline
from hyperelliptic.catalog import get_entry, list_entries
from hyperelliptic.errors import InternalError, InvalidDatum
from hyperelliptic.invariants import (
    canonical_order,
    canonical_report,
    hodge_diamond,
    invariants_report,
    irregularity,
)
from hyperelliptic.torus import EllipticFactor, build_product_torus, standard_form

F = Fraction


def datum_of(name):
    d = get_entry(name).build()
    assert validate(d).passed
    return d


def trivial_datum(n_factors):
    torus = build_product_torus(
        [EllipticFactor("generic", f"t{i}") for i in range(n_factors)]
    )
    d = HyperellipticDatum(torus, close_group([], torus), standard_form(torus))
    validate(d)
    return d


def rational_symmetric_average(eigenvalue_lists, p, q):
    """Independent h^{p,q} oracle for data whose eigenvalues are all +-1.

    Expands e_p and e_q by explicit subset sums in plain rational arithmetic
    (conjugation is then trivial), bypassing the cyclotomic machinery.
    """
    total = F(0)
    for eigs in eigenvalue_lists:
        ep = sum(
            (F(1) * _prod(sub) for sub in itertools.combinations(eigs, p)), F(0)
        )
        eq = sum(
            (F(1) * _prod(sub) for sub in itertools.combinations(eigs, q)), F(0)
        )
        total += ep * eq
    return total / len(eigenvalue_lists)


def _prod(xs):
    out = F(1)
    for x in xs:
        out *= x
    return out


class TestIrregularity:
    @pytest.mark.parametrize("name", [f"bielliptic-{k}" for k in range(1, 8)])
    def test_table_families(self, name):
        d = datum_of(name)
        assert irregularity(d, hodge_diamond(d)) == 1

    def test_small_irregularity_cyclic(self):
        d = datum_of("small-irregularity-cyclic")
        assert d.dim == 4
        assert irregularity(d, hodge_diamond(d)) == 2

    def test_z2z2(self):
        d = datum_of("z2z2-threefold")
        assert irregularity(d, hodge_diamond(d)) == 0

    def test_disagreeing_lattice_side_raises(self):
        # the traces of the linear parts give dim V^G = 2, so q = 1, not 2
        d = datum_of("bielliptic-1")
        diamond = hodge_diamond(d)
        rows = [list(row) for row in diamond.h]
        rows[1][0] = 2
        wrong = diamond._replace(h=tuple(map(tuple, rows)))
        with pytest.raises(
            InvalidDatum, match="character irregularity 2 != lattice irregularity 1$"
        ):
            irregularity(d, wrong)


class TestHodgeDiamond:
    def test_z2z2_diamond_rows(self):
        diamond = hodge_diamond(datum_of("z2z2-threefold"))
        assert diamond.rows() == (
            (1,), (0, 0), (0, 3, 0), (1, 3, 3, 1), (0, 3, 0), (0, 0), (1,),
        )

    def test_trivial_group_full_exterior_algebra(self):
        diamond = hodge_diamond(trivial_datum(2))
        from math import comb

        for p in range(3):
            for q in range(3):
                assert diamond.h[p][q] == comb(2, p) * comb(2, q)

    def test_bielliptic_1_against_rational_oracle(self):
        d = datum_of("bielliptic-1")
        eigenvalue_lists = [
            [F(1) if z.is_one() else F(-1) for z in e.eigenvalues]
            for e in d.group.elements
        ]
        diamond = hodge_diamond(d)
        for p in range(3):
            for q in range(3):
                expected = rational_symmetric_average(eigenvalue_lists, p, q)
                assert expected.denominator == 1
                assert diamond.h[p][q] == expected
        assert diamond.h[1][0] == 1
        assert diamond.h[2][0] == 0
        assert diamond.h[1][1] == 2

    def test_z4_derived_snapshot(self):
        # frozen snapshot, first computed by hand from the eigenvalue lists
        # (1,1,1), (1,-1,i), (1,1,-1), (1,-1,-i)
        diamond = hodge_diamond(datum_of("z4-threefold"))
        assert diamond.rows() == (
            (1,), (1, 1), (0, 3, 0), (0, 2, 2, 0), (0, 3, 0), (1, 1), (1,),
        )

    def test_symmetries_across_catalog(self):
        for name in list_entries():
            entry = get_entry(name)
            if entry.expect_invalid:
                continue
            d = entry.build()
            validate(d)
            diamond = hodge_diamond(d)
            n = diamond.n
            assert diamond.h[0][0] == diamond.h[n][n] == 1
            for p in range(n + 1):
                for q in range(n + 1):
                    assert diamond.h[p][q] == diamond.h[q][p]
                    assert diamond.h[p][q] == diamond.h[n - p][n - q]
                    assert diamond.h[p][q] >= 0


class TestCanonicalOrder:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("bielliptic-1", 2),
            ("bielliptic-2", 2),
            ("bielliptic-3", 3),
            ("bielliptic-4", 3),
            ("bielliptic-5", 4),
            ("bielliptic-6", 4),
            ("bielliptic-7", 6),
        ],
    )
    def test_bielliptic_orders(self, name, expected):
        assert canonical_order(datum_of(name)) == expected

    def test_z2z2_trivial_canonical(self):
        assert canonical_order(datum_of("z2z2-threefold")) == 1

    def test_trivial_group(self):
        assert canonical_order(trivial_datum(1)) == 1

    def test_h_n0_detects_trivial_canonical(self):
        for name in ("z2z2-threefold", "bielliptic-3", "z4-threefold"):
            d = datum_of(name)
            diamond = hodge_diamond(d)
            assert (diamond.h[d.dim][0] == 1) == (canonical_order(d) == 1)


class TestReports:
    def test_full_report_consistency(self):
        for name in list_entries():
            entry = get_entry(name)
            if entry.expect_invalid:
                continue
            d = entry.build()
            validate(d)
            inv = invariants_report(d)
            assert inv.q < inv.dim
            assert inv.euler_char_structure_sheaf == 0
            assert inv.diamond.h[1][0] == inv.q

    def test_pullback_diagnostic_table_families(self):
        for k in range(1, 8):
            d = datum_of(f"bielliptic-{k}")
            report = run_pipeline(d)
            diag = canonical_report(canonical_order(d), canonical_order(fiber_datum(d, report)))
            assert diag.fiber_canonical_order == 1
            assert diag.pulled_back_from_albanese

    def test_pullback_diagnostic_z4(self):
        d = datum_of("z4-threefold")
        report = run_pipeline(d)
        fiber = fiber_datum(d, report)
        diag = canonical_report(canonical_order(d), canonical_order(fiber))
        assert diag.x_canonical_order == 4
        assert diag.fiber_canonical_order == 2
        assert diag.x_canonical_order == invariants_report(d).canonical_order
        assert diag.fiber_canonical_order == invariants_report(fiber).canonical_order
        assert not diag.pulled_back_from_albanese

    def test_fiber_order_divides_across_catalog(self):
        for name in list_entries():
            entry = get_entry(name)
            if entry.expect_invalid:
                continue
            d = entry.build()
            validate(d)
            report = run_pipeline(d)
            x_order, fiber_order = canonical_order(d), canonical_order(fiber_datum(d, report))
            diag = canonical_report(x_order, fiber_order)
            assert x_order % fiber_order == 0
            assert diag.pulled_back_from_albanese == (fiber_order == 1)

    def test_divisibility_violation_raises(self):
        d = datum_of("z4-threefold")
        report = run_pipeline(d)
        # deliberately swapped
        with pytest.raises(
            InternalError, match="^fiber canonical order 4 does not divide 2$"
        ):
            canonical_report(canonical_order(fiber_datum(d, report)), canonical_order(d))
