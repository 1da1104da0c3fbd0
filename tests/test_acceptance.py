"""Acceptance suite: one criterion per test, one [PASS]/[FAIL] line each.

Every assertion is exact (integer/rational equality); the only tolerances are
the stated runtime budgets.  Run with `pytest -s tests/test_acceptance.py` to
see the per-criterion lines.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from helpers import basis_pairs, compose, element_index, fiber_datum, from_rat_columns, rational
from hyperelliptic.action import validate
from hyperelliptic.albanese import run_pipeline
from hyperelliptic.catalog import get_entry, list_entries
from hyperelliptic.invariants import canonical_report, invariants_report
from hyperelliptic.oracle import (
    build_model,
    datum_denominator,
    fixed_point_survey,
    oracle_fiber_count,
)

F = Fraction


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def build_valid(name):
    datum = get_entry(name).build()
    report = validate(datum)
    assert report.passed, report.failures()
    return datum


def positive_entries():
    return [n for n in list_entries() if not get_entry(n).expect_invalid]


def test_table_1_reproduction():
    with criterion("Table-1 reproduction: 7 families, exact, < 1 s"):
        expected = {
            "bielliptic-1": ((2,), "generic"),
            "bielliptic-2": ((2, 2), "generic"),
            "bielliptic-3": ((3,), "eisenstein"),
            "bielliptic-4": ((3, 3), "eisenstein"),
            "bielliptic-5": ((4,), "gauss"),
            "bielliptic-6": ((4, 2), "gauss"),
            "bielliptic-7": ((6,), "eisenstein"),
        }
        start = time.perf_counter()
        for name, (factors, fiber_kind) in expected.items():
            datum = build_valid(name)
            report = run_pipeline(datum)
            assert report.q == 1, name
            assert sorted(report.albanese_isogeny_factors) == sorted(factors), name
            assert report.fiber_class.kind == "abelian", name
            assert report.fiber_class.dim == 1, name
            assert report.fiber_factor_indices == (1,), name
            assert datum.torus.factors[1].kind == fiber_kind, name
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"Table 1 took {elapsed:.2f}s"


def test_z4_threefold_example():
    with criterion("order-4 threefold: H = {e, g^2}, bielliptic Z/2 fiber, K0 = <1/2>"):
        datum = build_valid("z4-threefold")
        report = run_pipeline(datum)
        g = datum.group.elements[datum.group.gens[0]]
        g2_index = element_index(datum.group, compose(g, g))
        assert set(report.subgroup_h) == {0, g2_index}
        assert report.fiber_class.kind == "hyperelliptic"
        assert report.fiber_class.cyclic
        assert report.fiber_class.holonomy_order == 2
        assert report.fiber_class.dim == 2
        # K0 = <1/2> on the first factor: compare lattices in product coordinates
        torus, dec = datum.torus, report.decomposition
        actual = from_rat_columns(
            6,
            [rational(*torus.to_product_coords(*v))
             for v in basis_pairs(dec.lambda0) + dec.k0.generators],
        )
        expected = from_rat_columns(
            6, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (F(1, 2), 0, 0, 0, 0, 0)]
        )
        assert actual == expected


@pytest.mark.parametrize("m", [2, 3])
def test_zmzm_threefold_example(m):
    with criterion(f"(Z/{m})^2 threefold: H = <g1> of order {m}, bielliptic Z/{m} fiber"):
        datum = build_valid(f"zmzm-threefold-m{m}")
        assert datum.group.order == m * m
        orders = sorted(datum.group.orders)
        assert orders == sorted([1] + [m] * (m * m - 1))  # (Z/m)^2 shape
        assert datum.group.is_abelian() and not datum.group.is_cyclic()
        report = run_pipeline(datum)
        assert report.q == 1
        g1 = datum.group.elements[datum.group.gens[0]]
        expected_h = {0}
        power = g1
        for _ in range(m - 1):
            expected_h.add(element_index(datum.group, power))
            power = compose(power, g1)
        assert set(report.subgroup_h) == expected_h
        assert len(report.subgroup_h) == m
        assert report.fiber_class.kind == "hyperelliptic"
        assert report.fiber_class.cyclic
        assert report.fiber_class.holonomy_order == m


def test_z2z2_threefold_example():
    with criterion("(Z/2)^2 regular threefold: q = 0, exact Hodge diamond, trivial canonical"):
        datum = build_valid("z2z2-threefold")
        inv = invariants_report(datum)
        assert inv.q == 0
        assert inv.diamond.rows() == (
            (1,), (0, 0), (0, 3, 0), (1, 3, 3, 1), (0, 3, 0), (0, 0), (1,),
        )
        assert inv.canonical_order == 1
        assert inv.euler_char_structure_sheaf == 0


def test_abelian_fiber_instance():
    with criterion("abelian-fiber construction: fiber is A1, Albanese dimension 1"):
        datum = build_valid("abelian-fiber-construction")
        report = run_pipeline(datum)
        assert report.q == 1
        assert report.fiber_class.kind == "abelian"
        assert report.fiber_class.dim == 2
        assert report.subgroup_h == (0,)
        assert report.fiber_factor_indices == (1, 2)  # the two negated factors


def test_property_suite():
    with criterion("property suite over every catalog entry (all exact)"):
        for name in positive_entries():
            datum = build_valid(name)
            report = run_pipeline(datum)
            inv = invariants_report(datum)
            assert report.q < report.dim, name
            assert report.q == report.decomposition.lambda0.rank // 2 == inv.q, name
            dec = report.decomposition
            assert dec.k.order == dec.k0.order == dec.k1.order, name
            assert report.q + report.fiber_class.dim == report.dim, name
            fiber_inv = invariants_report(fiber_datum(datum, report))
            assert inv.canonical_order % fiber_inv.canonical_order == 0, name
            if report.q == report.dim - 1:
                assert datum.group.is_cyclic(), name
            if datum.group.is_cyclic():
                assert (
                    report.fiber_class.kind == "abelian" or report.fiber_class.cyclic
                ), name
            order = datum.group.order
            is_prime = order > 1 and all(order % k for k in range(2, order))
            if is_prime and datum.group.is_cyclic():
                assert report.fiber_class.kind == "abelian", name
                assert report.subgroup_h == (0,), name


def test_oracle_equivalence():
    with criterion("oracle equivalence on every catalog entry, < 60 s"):
        start = time.perf_counter()
        for name in positive_entries():
            datum = build_valid(name)
            survey = fixed_point_survey(datum)
            assert survey.passed, name
            assert all(c.exhaustive for c in survey.checks), name
            report = run_pipeline(datum)
            level = datum_denominator(datum)
            verdict = oracle_fiber_count(build_model(datum, level), report)
            assert verdict.passed, (name, verdict)
        # negative entries still get their fixed-point counts cross-checked
        for name in list_entries():
            if not get_entry(name).expect_invalid:
                continue
            datum = get_entry(name).build()
            validate(datum)
            survey = fixed_point_survey(datum)
            assert survey.passed, name
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"


def test_negative_controls():
    with criterion("negative controls: corrupted z4 and the (2,6) forcing are rejected"):
        corrupted = get_entry("z4-threefold-corrupted").build()
        report = validate(corrupted)
        assert not report.passed
        g = corrupted.group.elements[corrupted.group.gens[0]]
        assert element_index(corrupted.group, compose(g, g)) in report.fixed_point_elements

        forced = get_entry("not-all-bielliptic-2-6").build()
        report = validate(forced)
        assert not report.passed
        assert report.fixed_point_elements, "rejection must carry a fixed-point witness"
        g2 = forced.group.elements[forced.group.gens[1]]
        fourth = compose(compose(compose(g2, g2), g2), g2)
        assert element_index(forced.group, fourth) in report.fixed_point_elements
