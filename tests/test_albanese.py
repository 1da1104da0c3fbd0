import itertools
import json
from fractions import Fraction

import pytest

from helpers import (
    basis_pairs,
    compose,
    contains,
    decomposition,
    element_index,
    fiber_basis,
    fiber_datum,
    fiber_translations_match,
    from_rat_columns,
    h_by_solve,
    lattice_coords,
    proj0,
    rational,
    reference_coords_of,
    reference_mat_vec,
    t0_table,
    t0_vectors,
    three_curve_document,
    translation,
    vec_sub,
)
from hyperelliptic.action import validate
from hyperelliptic.albanese import (
    compute_H,
    compute_albanese,
    decompose_cocycle,
    run_pipeline,
)
from hyperelliptic.catalog import get_entry
from hyperelliptic.cli import main
from hyperelliptic.documents import build_datum
from hyperelliptic.exactlin import Sublattice
from hyperelliptic.oracle import (
    build_model,
    datum_denominator,
    fixed_point_survey,
    oracle_fiber_count,
)
from hyperelliptic.torus import identify_factor_subspace

F = Fraction


def datum_of(name):
    d = get_entry(name).build()
    assert validate(d).passed
    return d


def pipeline_parts(d):
    dec = decomposition(d)
    table = t0_table(d)
    return dec, table


def subgroup_h(d, dec):
    """compute_H as the pipeline calls it, on t0 of the generators."""
    return compute_H(d, dec, decompose_cocycle(d, dec))


def product_lattice(d, vectors):
    """The lattice of (den, integers) lattice-coordinate vectors, in product coordinates."""
    return from_rat_columns(
        d.rank, [rational(*d.torus.to_product_coords(den, v)) for den, v in vectors]
    )


def factor_plane(d, index):
    cols = []
    for j in (2 * index, 2 * index + 1):
        col = [F(0)] * d.rank
        col[j] = F(1)
        cols.append(tuple(col))
    return cols


class TestDecomposition:
    def test_bielliptic_1_lattices(self):
        d = datum_of("bielliptic-1")
        dec, _ = pipeline_parts(d)
        assert dec.q == 1
        assert product_lattice(d, basis_pairs(dec.lambda0)) == from_rat_columns(
            4, factor_plane(d, 0)
        )
        assert product_lattice(d, basis_pairs(dec.lambda1)) == from_rat_columns(
            4, factor_plane(d, 1)
        )
        assert dec.k.order == 1

    def test_trivial_group_lambda0_is_full(self):
        from hyperelliptic.action import HyperellipticDatum, close_group
        from hyperelliptic.torus import EllipticFactor, build_product_torus, standard_form

        torus = build_product_torus([EllipticFactor("generic", "t")])
        d = HyperellipticDatum(torus, close_group([], torus), standard_form(torus))
        validate(d)
        dec = decomposition(d)
        assert dec.lambda0 == Sublattice.standard(2)
        assert dec.lambda1.rank == 0

    def test_z2z2_has_rank_zero_fixed_lattice(self):
        d = datum_of("z2z2-threefold")
        dec = decomposition(d)
        assert dec.lambda0.rank == 0
        assert dec.lambda1 == Sublattice.standard(6)

    def test_z4_fixed_and_moving_parts(self):
        d = datum_of("z4-threefold")
        dec, _ = pipeline_parts(d)
        # A1 is the product of the second and third factors
        assert identify_factor_subspace(d.torus, dec.lambda1) == (1, 2)
        assert dec.k.invariant_factors == (2,)
        # K0 = <1/2> on the first factor, K1 = <(1/2, 0)> on the fiber part
        k0_lat = product_lattice(
            d, basis_pairs(dec.lambda0) + dec.k0.generators
        )
        expected = from_rat_columns(
            6, factor_plane(d, 0) + [(F(1, 2), 0, 0, 0, 0, 0)]
        )
        assert k0_lat == expected
        k1_lat = product_lattice(d, basis_pairs(dec.lambda1) + dec.k1.generators)
        expected1 = from_rat_columns(
            6,
            factor_plane(d, 1) + factor_plane(d, 2) + [(0, 0, F(1, 2), 0, 0, 0)],
        )
        assert k1_lat == expected1

    def test_bielliptic_2_k_is_stated_generator(self):
        d = datum_of("bielliptic-2")
        dec, _ = pipeline_parts(d)
        assert dec.k.invariant_factors == (2,)
        # K = <(tau/2, 1/2)>: product coordinates (0, 1/2, 1/2, 0)
        gen = rational(*d.torus.to_product_coords(*dec.k.generators[0]))
        lattice_with_gen = from_rat_columns(
            4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), gen]
        )
        expected = from_rat_columns(
            4,
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
             (0, F(1, 2), F(1, 2), 0)],
        )
        assert lattice_with_gen == expected

    def test_k_orders_agree(self):
        for name in ("bielliptic-2", "bielliptic-4", "bielliptic-6", "z4-threefold",
                     "zmzm-threefold-m2", "zmzm-threefold-m3"):
            d = datum_of(name)
            dec, _ = pipeline_parts(d)
            assert dec.k.order == dec.k0.order == dec.k1.order


class TestCocycle:
    def test_identity_splits_to_zero(self):
        d = datum_of("z4-threefold")
        dec, table = pipeline_parts(d)
        assert not any(table[0])
        members, index = subgroup_h(d, dec)
        solved, shifts = h_by_solve(d, table)
        assert (members, index * len(members)) == (solved, d.group.order)
        assert not any(shifts[0])
        report = run_pipeline(d)
        assert fiber_translations_match(d, report, shifts)
        one = fiber_datum(d, report).group.elements[0]
        assert (one.den, any(one.shift)) == (1, False)

    def test_z4_generator_splits_on_base(self):
        # t0(g) = 1/4 on the first factor, mod Lambda_0
        d = datum_of("z4-threefold")
        dec, _ = pipeline_parts(d)
        expected_t0 = lattice_coords(d.torus, (F(1, 4), 0, 0, 0, 0, 0))
        diff = tuple(a - b for a, b in zip(t0_vectors(decompose_cocycle(d, dec))[0], expected_t0))
        assert contains(dec.lambda0, diff)

    def test_zmzm_second_generator_splits_to_tau_quotient(self):
        # t0(g2) = tau0/3 on the first factor, mod Lambda_0
        d = datum_of("zmzm-threefold-m3")
        dec, _ = pipeline_parts(d)
        expected_t0 = lattice_coords(d.torus, (0, F(1, 3), 0, 0, 0, 0))
        diff = tuple(a - b for a, b in zip(t0_vectors(decompose_cocycle(d, dec))[1], expected_t0))
        assert contains(dec.lambda0, diff)

    def test_splitting_reassembles(self):
        # tau(h) = w + shift(h) with w integral, P0 w = t0(h) and shift(h) in V1;
        # the fiber translation of h is shift(h) in the fiber basis, mod 1
        for name in ("bielliptic-6", "z4-threefold", "zmzm-threefold-m3", "z2z2-threefold"):
            d = datum_of(name)
            dec, table = pipeline_parts(d)
            h, index = subgroup_h(d, dec)
            solved, shifts = h_by_solve(d, table)
            assert (h, index * len(h)) == (solved, d.group.order)
            assert set(shifts) == set(h)
            assert fiber_translations_match(d, run_pipeline(d), shifts)
            for i in h:
                assert reference_coords_of(dec.lambda1, shifts[i]) is not None
                w = vec_sub(translation(d.group.elements[i]), shifts[i])
                assert all(x.denominator == 1 for x in w)
                assert reference_mat_vec(proj0(d, dec), w) == table[i]


class TestSubgroupH:
    def test_z4_h_is_generated_by_square(self):
        d = datum_of("z4-threefold")
        dec, _ = pipeline_parts(d)
        h, _ = subgroup_h(d, dec)
        g = d.group.elements[d.group.gens[0]]
        g2 = compose(g, g)
        assert set(h) == {0, element_index(d.group, g2)}

    @pytest.mark.parametrize("m", [2, 3])
    def test_zmzm_h_is_first_generator(self, m):
        d = datum_of(f"zmzm-threefold-m{m}")
        dec, _ = pipeline_parts(d)
        h, _ = subgroup_h(d, dec)
        assert len(h) == m
        g1 = d.group.elements[d.group.gens[0]]
        power = g1
        indices = {0}
        for _ in range(m - 1):
            indices.add(element_index(d.group, power))
            power = compose(power, g1)
        assert set(h) == indices

    def test_bielliptic_h_trivial(self):
        for name in ("bielliptic-1", "bielliptic-5", "bielliptic-7"):
            d = datum_of(name)
            dec, _ = pipeline_parts(d)
            h, _ = subgroup_h(d, dec)
            assert h == (0,)

    def test_z2z2_h_is_everything(self):
        d = datum_of("z2z2-threefold")
        dec, _ = pipeline_parts(d)
        h, _ = subgroup_h(d, dec)
        assert set(h) == set(range(d.group.order))


class TestAlbanese:
    @pytest.mark.parametrize(
        "name,factors",
        [
            ("bielliptic-1", (2,)),
            ("bielliptic-2", (2, 2)),
            ("bielliptic-3", (3,)),
            ("bielliptic-4", (3, 3)),
            ("bielliptic-5", (4,)),
            ("bielliptic-6", (4, 2)),
            ("bielliptic-7", (6,)),
        ],
    )
    def test_table_rows(self, name, factors):
        d = datum_of(name)
        dec, _ = pipeline_parts(d)
        lam_b, got = compute_albanese(d, dec, decompose_cocycle(d, dec))
        assert sorted(got) == sorted(factors)

    def test_trivial_group_albanese_is_lambda0(self):
        from hyperelliptic.action import HyperellipticDatum, close_group
        from hyperelliptic.torus import EllipticFactor, build_product_torus, standard_form

        torus = build_product_torus([EllipticFactor("generic", "t")])
        d = HyperellipticDatum(torus, close_group([], torus), standard_form(torus))
        validate(d)
        dec, _ = pipeline_parts(d)
        lam_b, factors = compute_albanese(d, dec, decompose_cocycle(d, dec))
        assert factors == ()
        assert lam_b == dec.lambda0


class TestFiber:
    def test_z4_fiber_is_bielliptic(self):
        d = datum_of("z4-threefold")
        report = run_pipeline(d)
        assert report.fiber_class.kind == "hyperelliptic"
        assert report.fiber_class.holonomy_order == 2
        assert report.fiber_class.cyclic
        assert report.fiber_class.dim == 2

    @pytest.mark.parametrize("m", [2, 3])
    def test_zmzm_fiber_is_bielliptic(self, m):
        report = run_pipeline(datum_of(f"zmzm-threefold-m{m}"))
        assert report.fiber_class.kind == "hyperelliptic"
        assert report.fiber_class.holonomy_order == m
        assert report.fiber_class.cyclic

    def test_bielliptic_5_fiber_is_gauss_curve(self):
        d = datum_of("bielliptic-5")
        report = run_pipeline(d)
        assert report.fiber_class.kind == "abelian"
        assert report.fiber_factor_indices == (1,)
        assert d.torus.factors[1].kind == "gauss"

    def test_abelian_fiber_construction(self):
        report = run_pipeline(datum_of("abelian-fiber-construction"))
        assert report.q == 1
        assert report.fiber_class.kind == "abelian"
        assert report.fiber_class.dim == 2
        assert report.subgroup_h == (0,)

    def test_fiber_classification_of_prime_order_cyclic(self):
        # prime-order cyclic groups always give abelian fibers with trivial H
        for name in ("bielliptic-1", "bielliptic-3", "low-irregularity-cyclic"):
            report = run_pipeline(datum_of(name))
            assert report.fiber_class.kind == "abelian"
            assert report.subgroup_h == (0,)


class TestFiberBasis:
    """The fiber is written in the basis its torus and form use, Hermite or not."""

    def test_aligned_basis_outside_hermite_form(self, tmp_path, capsys):
        # k_gen touches the fiber's factor plane, so the factor-aligned basis
        # of Lambda_1 is not its Hermite basis
        path = tmp_path / "datum.json"
        doc = three_curve_document(("0", "0", "1/2", "1/2", "1/2", "1/2"), ("1/2", "1/2"))
        path.write_text(json.dumps(doc))
        d = build_datum(doc)
        validate(d)
        report = run_pipeline(d)
        lambda1 = report.decomposition.lambda1
        cols, indices = fiber_basis(d, report), report.fiber_factor_indices
        assert indices == (1,) and cols != lambda1.cols
        outputs = {}
        for command in ("check", "albanese", "invariants", "oracle"):
            assert main([command, str(path), "--format", "json"]) == 0, command
            outputs[command] = json.loads(capsys.readouterr().out)
        alb = outputs["albanese"]
        assert alb["q"] == 2
        assert alb["h"]["order"] == 1
        assert (alb["fiber"]["kind"], alb["fiber"]["dim"]) == ("abelian", 1)

    def test_valid_data_pass_pipeline_and_oracle(self):
        # every k_gen in {0, 1/2}^6 with three first-factor translations
        valid = unaligned = 0
        for k_gen in itertools.product(("0", "1/2"), repeat=6):
            for translation in (("1/2", "0"), ("1/2", "1/2"), ("0", "1/2")):
                d = build_datum(three_curve_document(k_gen, translation))
                if not validate(d).passed:
                    continue
                valid += 1
                report = run_pipeline(d, recurse=True)
                lambda1 = report.decomposition.lambda1
                cols, indices = fiber_basis(d, report), report.fiber_factor_indices
                unaligned += indices is not None and cols != lambda1.cols
                assert fixed_point_survey(d).passed
                model = build_model(d, datum_denominator(d))
                assert oracle_fiber_count(model, report).passed
        assert valid == 180
        assert unaligned > 0


class TestRunPipeline:
    def test_recursion_into_z4_fiber(self):
        report = run_pipeline(datum_of("z4-threefold"), recurse=True)
        assert report.fiber_report is not None
        assert report.fiber_report.q == 1
        assert report.fiber_report.fiber_class.kind == "abelian"
        assert report.fiber_report.fiber_report is None

    def test_regular_variety_does_not_recurse_forever(self):
        report = run_pipeline(datum_of("z2z2-threefold"), recurse=True)
        assert report.q == 0
        assert report.fiber_class.dim == 3  # the fiber is the variety itself
        assert report.fiber_report is None

    def test_low_irregularity_cyclic(self):
        report = run_pipeline(datum_of("low-irregularity-cyclic"))
        assert report.dim == 3
        assert report.q == 1

    def test_property_suite_over_catalog(self):
        from hyperelliptic.catalog import list_entries, get_entry
        from hyperelliptic.invariants import invariants_report

        for name in list_entries():
            entry = get_entry(name)
            if entry.expect_invalid:
                continue
            d = entry.build()
            validate(d)
            report = run_pipeline(d)
            inv = invariants_report(d)
            assert report.q < report.dim  # groups here are nontrivial
            assert report.q == report.decomposition.lambda0.rank // 2 == inv.q
            assert (
                report.decomposition.k.order
                == report.decomposition.k0.order
                == report.decomposition.k1.order
            )
            assert report.q + report.fiber_class.dim == report.dim
            if report.q == report.dim - 1:
                assert d.group.is_cyclic()
            if d.group.is_cyclic():
                assert report.fiber_class.kind == "abelian" or report.fiber_class.cyclic
            gen_eigs = [
                {z.order for z in d.group.elements[i].eigenvalues if not z.is_one()}
                for i in d.group.gens
            ]
            if d.group.is_cyclic() and len(gen_eigs) == 1 and len(gen_eigs[0]) == 1:
                assert report.fiber_class.kind == "abelian"
                assert report.subgroup_h == (0,)
