import itertools
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest

from conftest import load_perfbench
from helpers import all_exhaustive, orbits
from hyperelliptic.action import HyperellipticDatum, close_group, validate
from hyperelliptic.albanese import run_pipeline
from hyperelliptic.catalog import get_entry, list_entries
from hyperelliptic.documents import build_datum
from hyperelliptic.exactlin import Sublattice
from hyperelliptic.oracle import (
    BadLevel,
    CapExceeded,
    FiberCountVerdict,
    TorsionModel,
    _albanese_projection_matrix,
    _unpack_fiber_key,
    build_model,
    datum_denominator,
    element_level_bound,
    fiber_count_level,
    fixed_point_survey,
    formula_level,
    oracle_fiber_count,
    oracle_fixed_points,
)
from hyperelliptic.torus import (
    EllipticFactor,
    build_product_torus,
    factor_automorphism_matrix,
    standard_form,
)
from hyperelliptic.action import affine_from_factor_action
from hyperelliptic.cyclotomic import RootOfUnity

F = Fraction


def datum_of(name):
    d = get_entry(name).build()
    assert validate(d).passed
    return d


def negation_datum():
    f = EllipticFactor("generic", "t")
    torus = build_product_torus([f])
    g = affine_from_factor_action(
        torus, [factor_automorphism_matrix(f, RootOfUnity.of(1, 2))], (0, 0)
    )
    d = HyperellipticDatum(torus, close_group([g], torus), standard_form(torus))
    return d


class TestBuildModel:
    def test_point_counts(self):
        d = negation_datum()
        model = build_model(d, 2)
        assert model.point_count == 4

    def test_family_1_square_at_level_2(self):
        d = datum_of("bielliptic-1")
        model = build_model(d, 2)
        assert model.point_count == 16
        assert oracle_fixed_points(model, 1) == 0  # g acts without fixed points

    def test_bad_level(self):
        d = datum_of("bielliptic-5")  # denominators need 4
        with pytest.raises(BadLevel):
            build_model(d, 2)

    def test_cap(self):
        d = datum_of("z4-threefold")
        with pytest.raises(CapExceeded):
            build_model(d, 16, cap=1000)

    def test_z4_free_at_level_4(self):
        d = datum_of("z4-threefold")
        model = build_model(d, 4)
        for i in range(1, 4):
            assert oracle_fixed_points(model, i) == 0


class TestFixedPoints:
    def test_negation_counts_two_torsion(self):
        model = build_model(negation_datum(), 2)
        assert oracle_fixed_points(model, 1) == 4

    def test_free_half_translation(self):
        f = EllipticFactor("generic", "t")
        torus = build_product_torus([f])
        from hyperelliptic.action import AffineAut
        from hyperelliptic.exactlin import identity

        shift = AffineAut(identity(2), (F(1, 2), F(0)), (RootOfUnity.one(),))
        d = HyperellipticDatum(torus, close_group([shift], torus), standard_form(torus))
        model = build_model(d, 2)
        assert oracle_fixed_points(model, 1) == 0

    def test_table_family_1_generator_at_level_4(self):
        model = build_model(datum_of("bielliptic-1"), 4)
        assert oracle_fixed_points(model, 1) == 0

    def test_meet_in_middle_matches_direct(self):
        # same counts through both code paths on a model straddling the limit
        d = datum_of("zmzm-threefold-m3")
        model = build_model(d, 3)
        direct = [oracle_fixed_points(model, i) for i in range(1, d.group.order)]
        import hyperelliptic.oracle as oracle_module

        old = oracle_module._DIRECT_LOOP_LIMIT
        oracle_module._DIRECT_LOOP_LIMIT = 0
        try:
            split = [oracle_fixed_points(model, i) for i in range(1, d.group.order)]
        finally:
            oracle_module._DIRECT_LOOP_LIMIT = old
        assert direct == split

    def test_corrupted_z4_detects_fixed_points(self):
        d = get_entry("z4-threefold-corrupted").build()
        report = validate(d)
        assert not report.passed
        model = build_model(d, 4)
        g2_index = 2  # BFS order: e, g, g^2, g^3
        assert oracle_fixed_points(model, g2_index) > 0


class TestSurvey:
    def test_survey_agrees_on_catalog(self):
        for name in list_entries():
            entry = get_entry(name)
            d = entry.build()
            validate(d)
            survey = fixed_point_survey(d)
            assert survey.passed, f"{name}: {survey.checks}"

    def test_exhaustive_levels_divide_formula_level_when_small(self):
        d = datum_of("bielliptic-3")
        level = formula_level(d)
        for e in d.group.elements[1:]:
            assert level % element_level_bound(e) == 0

    def test_split_counting_handles_large_formula_level(self):
        d = datum_of("z4-threefold")
        assert formula_level(d) == 16  # 16^6 points, but the half grids fit
        survey = fixed_point_survey(d)
        assert not survey.downgraded
        assert all_exhaustive(survey)
        assert survey.passed
        assert all(c.level == 16 for c in survey.checks)

    def test_downgrade_recorded_when_cap_is_tight(self):
        d = datum_of("z4-threefold")
        survey = fixed_point_survey(d, cap=1000)
        assert survey.downgraded
        assert survey.passed
        assert not all_exhaustive(survey)  # some elements fall to one-sided levels


class TestOrbits:
    def test_orbit_sizes_divide_group_order(self):
        d = datum_of("bielliptic-1")
        model = build_model(d, 2)
        sizes = orbits(model)
        assert sum(sizes) == model.point_count
        assert all(d.group.order % s == 0 for s in sizes)

    def test_free_action_has_full_orbits(self):
        d = datum_of("z2z2-threefold")
        model = build_model(d, 2)
        sizes = orbits(model)
        assert set(sizes) == {4}


class TestFiberCount:
    @pytest.mark.parametrize("name", ["bielliptic-1", "bielliptic-6", "z4-threefold",
                                      "zmzm-threefold-m2", "zmzm-threefold-m3",
                                      "z2z2-threefold"])
    def test_passes_on_catalog_entries(self, name):
        d = datum_of(name)
        report = run_pipeline(d)
        level = fiber_count_level(d, report)
        verdict = oracle_fiber_count(build_model(d, level), report, d.group.order)
        assert verdict.passed, verdict.describe()

    def test_corrupted_h_fails_with_witness(self):
        d = datum_of("z4-threefold")
        report = run_pipeline(d)
        broken = report._replace(subgroup_h=report.subgroup_h[:1])  # drop g^2
        level = fiber_count_level(d, broken)
        verdict = oracle_fiber_count(build_model(d, level), broken, d.group.order)
        assert not verdict.passed
        assert verdict.fiber_count == 8
        assert verdict.witness == ((0, 0), 512)


def reference_fiber_count(model, report, group_order):
    """The fiber count with a dict of packed keys, as before the dense table."""
    n = model.level
    rank = model.rank
    r1 = report.decomposition.lambda1.rank
    predicted = (group_order // len(report.subgroup_h)) * n**r1
    lmat = _albanese_projection_matrix(report, rank)
    dens = []
    coeffs = []
    for row in lmat:
        d = 1
        for x in row:
            d = lcm(d, Fraction(x, n).denominator)
        dens.append(d)
        coeffs.append(tuple(int(Fraction(x, n) * d) for x in row))
    active = [j for j in range(rank) if any(c[j] % d for c, d in zip(coeffs, dens))]
    scale = n ** (rank - len(active))
    packed = [
        (d, [(k, row[j] % d) for k, j in enumerate(active) if row[j] % d])
        for row, d in zip(coeffs, dens)
        if d > 1
    ]
    counter: dict[int, int] = {}
    for p in itertools.product(range(n), repeat=len(active)):
        key = 0
        for d, terms in packed:
            key = key * d + sum(c * p[j] for j, c in terms) % d
        counter[key] = counter.get(key, 0) + 1
    bad = None
    for key, count in counter.items():
        if count * scale != predicted and (bad is None or key < bad):
            bad = key
    if bad is not None:
        witness = (_unpack_fiber_key(bad, dens), counter[bad] * scale)
        return FiberCountVerdict(n, False, predicted, len(counter), witness)
    return FiberCountVerdict(n, True, predicted, len(counter), None)


def fiber_count_pair(model, report, group_order):
    got = oracle_fiber_count(model, report, group_order)
    assert got == reference_fiber_count(model, report, group_order)
    return got


def oracle_inputs(d):
    report = run_pipeline(d)
    return build_model(d, fiber_count_level(d, report)), report


def projection_report(rank, proj0, lam_b_cols, h_order=1):
    """A hand-built report: only what the fiber count reads (proj0, Lambda_B, Lambda_1, |H|)."""
    return SimpleNamespace(
        decomposition=SimpleNamespace(lambda1=Sublattice.zero(rank), proj0=proj0),
        albanese_lattice=Sublattice.from_int_columns(rank, lam_b_cols),
        subgroup_h=(None,) * h_order,
    )


class TestDenseFiberTable:
    """The dense count table against the dict of keys it replaced."""

    VALID_ENTRIES = [name for name in list_entries() if not get_entry(name).expect_invalid]

    @pytest.mark.parametrize("name", VALID_ENTRIES)
    def test_catalog(self, name):
        d = datum_of(name)
        verdict = fiber_count_pair(*oracle_inputs(d), d.group.order)
        assert verdict.passed

    def test_mixed_moduli_entry(self):
        d = datum_of("small-irregularity-cyclic")
        assert fiber_count_pair(*oracle_inputs(d), d.group.order).fiber_count == 216

    @pytest.mark.parametrize("point", [(3, 3, 2), (2, 4, 2), (2, 2, 6), (2, 2, 8)],
                             ids=lambda p: "m{}-k{}-base{}".format(*p))
    def test_stress_points(self, point):
        d = build_datum(load_perfbench("stress").stress_document(*point, 0))
        assert fiber_count_pair(*oracle_inputs(d), d.group.order).passed

    def test_truncated_h(self):
        d = datum_of("z4-threefold")
        model, report = oracle_inputs(d)
        broken = report._replace(subgroup_h=report.subgroup_h[:1])
        verdict = fiber_count_pair(model, broken, d.group.order)
        assert (verdict.passed, verdict.fiber_count, verdict.witness) == (False, 8, ((0, 0), 512))

    def test_key_space_with_empty_slots(self):
        # both key rows read (p0 + p1)/2 mod 1, so only the keys (0, 0) and (1, 1)
        # of the four slots are hit, two points each, times N = 2 for the idle p2
        proj0 = ((1, 1, 0), (1, 1, 0), (0, 0, 0))
        report = projection_report(3, proj0, [(1, 0, 0), (0, 1, 0)])
        model = TorsionModel(2, 3, ())
        verdict = fiber_count_pair(model, report, 4)
        assert (verdict.passed, verdict.fiber_count) == (True, 2)
        verdict = fiber_count_pair(model, report, 2)
        assert (verdict.passed, verdict.fiber_count, verdict.witness) == (False, 2, ((0, 0), 4))

    def test_table_larger_than_model_is_capped(self):
        # Lambda_B = 3Z gives the key p/6 mod 1: six slots for a two-point model
        report = projection_report(1, ((1,),), [(3,)])
        with pytest.raises(CapExceeded):
            oracle_fiber_count(TorsionModel(2, 1, ()), report, 1)
