import itertools
import re
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest

from conftest import load_perfbench
from helpers import (
    all_exhaustive,
    as_pair,
    direct_fixed_points,
    orbits,
    pipeline_chain,
    two_branch_survey,
)
from output_digest import STRESS_POINTS
from hyperelliptic.action import HyperellipticDatum, close_group, validate
from hyperelliptic.albanese import run_pipeline
from hyperelliptic.catalog import get_entry, list_entries
from hyperelliptic.documents import build_datum
from hyperelliptic.errors import CapReached, InternalError, InvalidDatum
from hyperelliptic.exactlin import Sublattice
from hyperelliptic.oracle import (
    FiberCountVerdict,
    TorsionModel,
    _albanese_projection_matrix,
    _unpack_fiber_key,
    build_model,
    datum_denominator,
    element_level_bound,
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


@pytest.fixture(scope="module")
def pipeline_levels():
    """(label, datum, report) for every valid catalog entry, every stress point of
    the output digest at seeds 0-3, and each fiber their recursions descend into."""
    stress = load_perfbench("stress")
    data = [(name, get_entry(name).build()) for name in list_entries()
            if not get_entry(name).expect_invalid]
    data += [
        (f"stress-{point}-seed{seed}", build_datum(stress.stress_document(*point, seed)))
        for point, seed in itertools.product(STRESS_POINTS, range(4))
    ]
    return [
        (f"{label} depth {depth}", x, report)
        for label, d in data
        for depth, (x, report) in enumerate(pipeline_chain(d))
    ]


def negation_datum():
    f = EllipticFactor("generic", "t")
    torus = build_product_torus([f])
    g = affine_from_factor_action(
        torus, [factor_automorphism_matrix(f, RootOfUnity.of(1, 2))], as_pair((0, 0))
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
        with pytest.raises(
            InvalidDatum, match="^level 2 is not divisible by all datum denominators$"
        ):
            build_model(d, 2)

    def test_cap(self):
        d = datum_of("z4-threefold")
        with pytest.raises(
            CapReached, match="^oracle point cap 1000, level 16 needs 16777216 points$"
        ):
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

        shift = AffineAut(identity(2), 2, (1, 0), (RootOfUnity.one(),))
        d = HyperellipticDatum(torus, close_group([shift], torus), standard_form(torus))
        model = build_model(d, 2)
        assert oracle_fixed_points(model, 1) == 0

    def test_table_family_1_generator_at_level_4(self):
        model = build_model(datum_of("bielliptic-1"), 4)
        assert oracle_fixed_points(model, 1) == 0

    def test_meet_in_middle_matches_direct(self):
        # the meet-in-the-middle count equals the point-by-point count
        for name in list_entries():
            d = get_entry(name).build()
            model = build_model(d, datum_denominator(d))
            if model.point_count > 5000:
                continue
            for i in range(d.group.order):
                assert oracle_fixed_points(model, i) == direct_fixed_points(model, i), (name, i)

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

    def test_one_loop_matches_two_branch_reference(self):
        # every catalog entry at caps that take each branch of the reference,
        # with the formula level, a given level and twice it
        outcomes = []
        for name in list_entries():
            d = get_entry(name).build()
            validate(d)
            for cap in (50, 1000, 10**4, 10**5, None):
                for level in (None, formula_level(d), 2 * formula_level(d)):
                    kwargs = {"level": level} if cap is None else {"level": level, "cap": cap}
                    try:
                        expected = two_branch_survey(d, **kwargs)
                    except CapReached as exc:
                        with pytest.raises(CapReached, match=f"^{re.escape(str(exc))}$"):
                            fixed_point_survey(d, **kwargs)
                        outcomes.append("cap")
                        continue
                    assert fixed_point_survey(d, **kwargs) == expected, (name, cap, level)
                    outcomes.append("downgraded" if expected.downgraded else "survey")
        # a given level whose split grid is over the cap raises instead of falling back
        assert len(outcomes) == 240
        assert outcomes.count("downgraded") == 18
        assert outcomes.count("cap") == 66

    def test_given_level_is_built_first(self):
        # level 33 is not a multiple of z4-threefold's denominator 4, and its
        # split grid of 2 * 33^3 points is over the cap: neither falls back
        d = datum_of("z4-threefold")
        with pytest.raises(
            InvalidDatum, match="^level 33 is not divisible by all datum denominators$"
        ):
            fixed_point_survey(d, level=33, cap=1000)
        message = "^oracle point cap 1000, level 16 needs 8192 points in its split grid$"
        with pytest.raises(CapReached, match=message):
            fixed_point_survey(d, level=16, cap=1000)
        assert fixed_point_survey(d, level=16, cap=10**4).checks[0].level == 16

    def test_exhaustive_levels_divide_formula_level_when_small(self, pipeline_levels):
        # the largest Smith divisor of M - I divides ord(M), so every bound divides
        # ord(e) * D and the default level needs no enlargement; a survey there
        # that is not downgraded is exhaustive on every element
        for label, d, _ in pipeline_levels:
            base = datum_denominator(d)
            for e, order in zip(d.group.elements, d.group.orders):
                assert order * base % element_level_bound(e) == 0, label
            survey = fixed_point_survey(d)
            assert survey.passed, label
            if not survey.downgraded:
                assert all_exhaustive(survey), label
                assert {c.level for c in survey.checks} <= {formula_level(d)}, label

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
        level = datum_denominator(d)
        verdict = oracle_fiber_count(build_model(d, level), report)
        assert verdict.passed, verdict

    def test_passes_at_every_multiple_of_the_denominator(self, pipeline_levels):
        # every nonempty fiber holds [G : H] N^rank(Lambda_1) points at any multiple N
        # of D; of the 41 pipeline levels times three N, the 54 models over the
        # point cap (the larger stress points) are skipped
        counted = 0
        for label, d, report in pipeline_levels:
            for level in (datum_denominator(d) * k for k in (1, 2, 3)):
                try:
                    model = build_model(d, level)
                except CapReached:
                    continue
                verdict = oracle_fiber_count(model, report)
                assert verdict.passed, (label, level, verdict)
                counted += 1
        assert counted == 69

    def test_corrupted_h_fails_with_witness(self):
        d = datum_of("z4-threefold")
        report = run_pipeline(d)
        broken = report._replace(subgroup_h=report.subgroup_h[:1])  # drop g^2
        level = datum_denominator(d)
        verdict = oracle_fiber_count(build_model(d, level), broken)
        assert not verdict.passed
        assert verdict.fiber_count == 8
        assert verdict.witness == ((0, 0), 512)

    def test_projection_outside_albanese_lattice_is_internal(self):
        # a report whose Albanese lattice misses V0 is a program bug (exit 3), not bad input
        d = datum_of("bielliptic-1")
        report = run_pipeline(d)
        broken = report._replace(albanese_lattice=report.decomposition.lambda1)
        with pytest.raises(InternalError, match="Albanese lattice span"):
            _albanese_projection_matrix(broken)


def reference_fiber_count(model, report):
    """The fiber count with a dict of packed keys, as before the dense table."""
    n = model.level
    rank = model.rank
    r1 = report.decomposition.lambda1.rank
    predicted = (report.group_order // len(report.subgroup_h)) * n**r1
    den, rows = _albanese_projection_matrix(report)
    lmat = [[Fraction(x, den) for x in row] for row in rows]
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


def fiber_count_pair(model, report):
    got = oracle_fiber_count(model, report)
    assert got == reference_fiber_count(model, report)
    return got


def oracle_inputs(d):
    report = run_pipeline(d)
    return build_model(d, datum_denominator(d)), report


def projection_report(rank, proj0, lam_b_cols, group_order, h_order=1):
    """A hand-built report: what the fiber count reads (S, Lambda_B, Lambda_1, |G|, |H|).

    The group sum S is |G| proj0, so the projection P0 = S/|G| is proj0 at every |G|.
    """
    group_sum = tuple(tuple(group_order * x for x in row) for row in proj0)
    return SimpleNamespace(
        group_order=group_order,
        decomposition=SimpleNamespace(lambda1=Sublattice(rank, 1, ()), group_sum=group_sum),
        albanese_lattice=Sublattice.from_int_columns(rank, lam_b_cols),
        subgroup_h=(None,) * h_order,
    )


class TestDenseFiberTable:
    """The dense count table against the dict of keys it replaced."""

    VALID_ENTRIES = [name for name in list_entries() if not get_entry(name).expect_invalid]

    @pytest.mark.parametrize("name", VALID_ENTRIES)
    def test_catalog(self, name):
        d = datum_of(name)
        verdict = fiber_count_pair(*oracle_inputs(d))
        assert verdict.passed

    def test_mixed_moduli_entry(self):
        d = datum_of("small-irregularity-cyclic")
        assert fiber_count_pair(*oracle_inputs(d)).fiber_count == 216

    @pytest.mark.parametrize("point", [(3, 3, 2), (2, 4, 2), (2, 2, 6), (2, 2, 8)],
                             ids=lambda p: "m{}-k{}-base{}".format(*p))
    def test_stress_points(self, point):
        d = build_datum(load_perfbench("stress").stress_document(*point, 0))
        assert fiber_count_pair(*oracle_inputs(d)).passed

    def test_truncated_h(self):
        d = datum_of("z4-threefold")
        model, report = oracle_inputs(d)
        broken = report._replace(subgroup_h=report.subgroup_h[:1])
        verdict = fiber_count_pair(model, broken)
        assert (verdict.passed, verdict.fiber_count, verdict.witness) == (False, 8, ((0, 0), 512))

    def test_key_space_with_empty_slots(self):
        # both key rows read (p0 + p1)/2 mod 1, so only the keys (0, 0) and (1, 1)
        # of the four slots are hit, two points each, times N = 2 for the idle p2
        proj0 = ((1, 1, 0), (1, 1, 0), (0, 0, 0))
        lam_b_cols = [(1, 0, 0), (0, 1, 0)]
        model = TorsionModel(2, 3, ())
        verdict = fiber_count_pair(model, projection_report(3, proj0, lam_b_cols, 4))
        assert (verdict.passed, verdict.fiber_count) == (True, 2)
        verdict = fiber_count_pair(model, projection_report(3, proj0, lam_b_cols, 2))
        assert (verdict.passed, verdict.fiber_count, verdict.witness) == (False, 2, ((0, 0), 4))

    def test_table_larger_than_model_is_capped(self):
        # Lambda_B = 3Z gives the key p/6 mod 1: six slots for a two-point model
        report = projection_report(1, ((1,),), [(3,)], 1)
        with pytest.raises(
            CapReached, match=r"^fiber table cap 2 \(the model's points\), the table needs 6 keys$"
        ):
            oracle_fiber_count(TorsionModel(2, 1, ()), report)
