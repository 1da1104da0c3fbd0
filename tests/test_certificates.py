"""The Albanese pipeline's certificates against the enumerations they replace.

The pipeline checks P0 M_g = P0 on the generators only, reads H and
[G : H] off the Cayley tree, writes each fiber translation with an integer
left inverse of the fiber basis without solving P0 w = t0(h), checks
|K0| = |K1| = |K| from two lattice quotients, reads the oracle level off
the K0 and K1 generators and finds invariant factors by p-primary
counting.  The reference here does each
job the long way: it enumerates K element by element, matches t0(g) against
every K0 element, tests P0 M_g = P0 and the cocycle identity on every
element, reads each fiber translation as t1(g) - p1(k) for the matching K
element k in the rational left inverse (B^T B)^-1 B^T of the fiber basis B,
and checks invariant factors by the divisor-count predicate
#{x : x^d = 1} = prod gcd(d, f_i).  It runs on every catalog entry, on its
recursive fibers and on the stress family the benchmark uses.  The projector
P0, the group average of the linear parts, and I - P0 must equal the
projectors read off the inverse of the basis [Lambda_0 | Lambda_1] on those
data, on the fiber-basis sweep, on the D4 threefold and in two other lattice
bases; there Lambda_1 must also be the complement the invariant form cuts
out, and the trace of P0 the rank of Lambda_0.  On the same data Lambda_0,
the kernel of I - P0, must equal the kernel of the generators' rows M_g - I,
H and [G : H] must match one integer solve per element, and the fiber's
translations that solve's shifts tau(h) - w read by (B^T B)^-1 B^T; the group
sum S must reach its column Hermite form once per pipeline level with
Lambda_1 still the kernel of P0, that form must be |G|/D times the form of
D P0 with the same transform, for the reference P0 and D its denominator,
and |G| |K| = |H| [Lambda_B : Lambda_0] must hold.  On a
factor torus `validate` checks neither the form nor the eigenvalues, which
hold by construction; the reference checks every element's eigenvalues and
the form under every generator, on the same data, on the fiber-basis sweep
and on every builder document of the output digest and each fiber of its
recursion, while raw data still get every check.  On those builder
documents every generator carries the units read off its blocks, and its
linear part is unimodular: `close_group` takes both from the constructor.
The pipeline builds a fiber datum only where the recursion descends, which
a counted `compute_fiber` checks; here every level's fiber is built
(`fiber_datum`) and the rewrite's certificates run on it.  Its report, which `compute_fiber`
certifies by theorem, must equal `validate` of it, and the class and
canonical order the pipeline reads on G's Cayley table and off the kept
eigenvalues must equal those read off it, on every level of those data and
of two and three copies of `z2z2-threefold` side by side; every subgroup on
two generators of three groups, D4 among them, is classified both ways too.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import cache
from math import gcd, inf, lcm, prod

import pytest

from conftest import bareiss_det, load_perfbench
from helpers import (
    base_change,
    basis_vectors,
    block_eigenvalues,
    conjugated,
    contains,
    decomposition,
    every_element_eigenvalue_violations,
    factor_subspace_in_product_coords,
    fiber_datum,
    fiber_translations_match,
    fixed_projector,
    form_complement,
    from_rat_columns,
    generator_fixed_lattice,
    generator_vectors,
    h_by_solve,
    lam_basis,
    mat_inv,
    model_actions,
    over_common_denominator,
    pipeline_chain,
    proj0,
    projectors,
    reference_classify_fiber,
    reference_coords_of,
    reference_mat_vec,
    reference_reduce_mod,
    t0_table,
    t0_vectors,
    three_curve_document,
    translation,
    vec_denominator,
    vec_sub,
)
from hyperelliptic import action, albanese, documents
from hyperelliptic.action import (
    ActionGroup,
    AffineAut,
    HyperellipticDatum,
    affine_from_factor_action,
    close_group,
    validate,
)
from hyperelliptic.albanese import (
    _abelian_invariant_factors,
    classify_fiber,
    compute_A0,
    compute_H,
    decompose_cocycle,
    run_pipeline,
)
from hyperelliptic.catalog import get_entry, list_entries
from hyperelliptic.cyclotomic import RootOfUnity
from hyperelliptic.documents import build_datum
from hyperelliptic.errors import InvalidDatum
from hyperelliptic.exactlin import (
    Sublattice,
    column_hermite,
    hermite_normal_form,
    identity,
    is_unimodular,
    kernel_lattice,
    mat_mul,
    transpose,
)
from hyperelliptic.invariants import canonical_order, invariants_report
from hyperelliptic.oracle import build_model, datum_denominator
from hyperelliptic.torus import (
    AlternatingForm,
    EllipticFactor,
    TorusDatum,
    build_product_torus,
    identify_factor_subspace,
)
from output_digest import STRESS_POINTS as DIGEST_STRESS_POINTS
from output_digest import documents as digest_documents
from test_cli import RAW_FORM_FLIP, RAW_INVOLUTION
from test_closure_reference import z2z2_copies
from test_nonabelian import D4_THREEFOLD

# the benchmark's stress points, (m, k, base); each pipeline runs in well under 2 s
STRESS_POINTS = ((3, 3, 2), (2, 4, 2), (2, 2, 6), (2, 2, 8))


def in_lattice(lattice: Sublattice, v) -> bool:
    return not any(v) if lattice.rank == 0 else contains(lattice, v)


def enumerate_k(d, dec):
    """Every K element as (lift in Lambda, V0 part, V1 part), by enumeration."""
    small = Sublattice.from_int_columns(d.rank, dec.lambda0.cols + dec.lambda1.cols)
    projector = proj0(d, dec)
    out = []
    gens = generator_vectors(dec.k)
    for combo in itertools.product(*(range(f) for f in dec.k.invariant_factors)):
        v = tuple(sum(c * g[t] for c, g in zip(combo, gens)) for t in range(d.rank))
        lift = reference_reduce_mod(small, v)
        p0 = reference_mat_vec(projector, lift)
        out.append((lift, p0, vec_sub(lift, p0)))
    return out


def check_against_enumeration(d, report):
    dec = decomposition(d)
    projector = proj0(d, dec)
    assert projector == fixed_projector(d)
    table = t0_table(d)
    h, index = compute_H(d, dec, decompose_cocycle(d, dec))
    k_elements = enumerate_k(d, dec)

    # K: both projections injective, checked element by element
    assert len(k_elements) == dec.k.order
    for lam, part in ((dec.lambda0, 1), (dec.lambda1, 2)):
        images = {reference_reduce_mod(lam, e[part]) if lam.rank else e[part] for e in k_elements}
        assert len(images) == dec.k.order

    # S M_g = S and the cocycle identity hold for every element, not just generators
    enlarged = from_rat_columns(
        d.rank, basis_vectors(dec.lambda0) + generator_vectors(dec.k0)
    )
    for i, e in enumerate(d.group.elements):
        assert mat_mul(dec.group_sum, e.linear) == dec.group_sum
        for j in range(d.group.order):
            ij = d.group.compose_indices(i, j)
            diff = vec_sub(table[ij], tuple(a + b for a, b in zip(table[i], table[j])))
            assert in_lattice(enlarged, diff)

    # H = {g : t0(g) - p0(k) in Lambda_0 for some k}, and each fiber translation
    # is the V1 shift t1(g) - p1(k) for that k, in the fiber basis, mod 1
    expected_h = []
    enumerated_shifts = {}
    for i, e in enumerate(d.group.elements):
        t0 = table[i]
        match = next((k for k in k_elements if in_lattice(dec.lambda0, vec_sub(t0, k[1]))), None)
        if match is None:
            continue
        expected_h.append(i)
        t1 = vec_sub(translation(e), reference_mat_vec(projector, translation(e)))
        enumerated_shifts[i] = vec_sub(t1, match[2])
        assert reference_coords_of(dec.lambda1, enumerated_shifts[i]) is not None
    assert h == tuple(expected_h) == report.subgroup_h
    assert fiber_translations_match(d, report, enumerated_shifts)
    members = set(h)
    assert all(d.group.compose_indices(i, j) in members for i in h for j in h)
    assert index * len(h) == d.group.order

    # the oracle's fiber count holds at every multiple of D because D t0(g) lies in
    # P0(Z^n) for every element g, and so does D times each basis vector of Lambda_B
    base = datum_denominator(d)
    image = from_rat_columns(d.rank, transpose(projector))
    for v in [*table, *basis_vectors(report.albanese_lattice)]:
        assert in_lattice(image, tuple(base * x for x in v))


def subgroup_indices(group, gens) -> frozenset[int]:
    """Element indices of the subgroup generated by the given element indices."""
    members = {0}
    frontier = [0]
    while frontier:
        new = [group.compose_indices(i, g) for i in frontier for g in gens]
        frontier = [j for j in set(new) if j not in members]
        members.update(frontier)
    return frozenset(members)


def check_invariant_factors(group):
    """p-primary counting against the divisor-count predicate it replaced."""
    factors = _abelian_invariant_factors(group.orders)
    orders = group.orders
    product = 1
    for f in factors:
        product *= f
    assert product == group.order
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert all(f > 1 for f in factors)
    for dvs in range(1, max(orders) + 1):
        predicted = 1
        for f in factors:
            predicted *= gcd(dvs, f)
        assert sum(1 for o in orders if dvs % o == 0) == predicted
    return factors


VALID_ENTRIES = [name for name in list_entries() if not get_entry(name).expect_invalid]


@pytest.mark.parametrize("name", VALID_ENTRIES)
def test_catalog_certificates_match_enumeration(name):
    for d, report in pipeline_chain(get_entry(name).build()):
        check_against_enumeration(d, report)


BASE_CHANGES = [
    pytest.param(name, kind, id=name if kind == "superdiagonal" else f"{name}-random")
    for kind in ("superdiagonal", "random")
    for name in VALID_ENTRIES
]


@pytest.mark.parametrize("name,kind", BASE_CHANGES)
def test_base_change_certificates_match_enumeration(name, kind):
    # in a skewed basis some translations of H pick up integer V0 parts, so
    # the integer solution w of P0 w = t0(g) is not always zero
    d = get_entry(name).build()
    u = base_change(kind, d.rank, name)
    assert abs(bareiss_det(u)) == 1
    moved = conjugated(d, u)
    assert validate(moved).passed
    chain = pipeline_chain(moved)
    for datum, report in chain:
        check_against_enumeration(datum, report)
    report = chain[0][1]
    original = pipeline_chain(d)[0][1]
    assert report.q == original.q
    assert len(report.subgroup_h) == len(original.subgroup_h)
    assert report.decomposition.k.invariant_factors == original.decomposition.k.invariant_factors
    assert report.albanese_isogeny_factors == original.albanese_isogeny_factors
    assert report.fiber_class == original.fiber_class
    # the Hodge diamond and the canonical order do not see the basis either
    assert invariants_report(moved) == invariants_report(d)


def projector_data(family):
    """The valid data of one family, each to be followed along its recursion."""
    if family == "catalog":
        return [get_entry(name).build() for name in VALID_ENTRIES]
    if family == "stress":
        stress = load_perfbench("stress")
        return [build_datum(stress.stress_document(*p, 0)) for p in STRESS_POINTS + ((3, 4, 2),)]
    if family == "sweep":
        data = [
            build_datum(three_curve_document(k_gen, translation))
            for k_gen in itertools.product(("0", "1/2"), repeat=6)
            for translation in (("1/2", "0"), ("1/2", "1/2"), ("0", "1/2"))
        ]
        return [d for d in data if validate(d).passed]
    if family == "nonabelian":
        return [build_datum(D4_THREEFOLD)]
    # "base-change": every valid entry in the two other lattice bases
    moved = []
    for kind in ("superdiagonal", "random"):
        for name in VALID_ENTRIES:
            d = get_entry(name).build()
            moved.append(conjugated(d, base_change(kind, d.rank, name)))
    return moved


@pytest.mark.parametrize("family", ["catalog", "stress", "sweep", "nonabelian", "base-change"])
def test_projectors_match_basis_inverse(family):
    data = projector_data(family)
    assert data
    for d in data:
        for datum, report in pipeline_chain(d):
            dec = report.decomposition
            p0, p1 = projectors(dec.lambda0, dec.lambda1)
            assert proj0(datum, dec) == p0 == fixed_projector(datum)
            complement = tuple(
                tuple(int(i == j) - x for j, x in enumerate(row)) for i, row in enumerate(p0)
            )
            assert complement == p1
            assert dec.lambda1 == form_complement(datum, dec.lambda0)
            order = datum.group.order
            traces = sum(e.linear[i][i] for e in datum.group.elements for i in range(datum.rank))
            assert Fraction(traces, 2 * order) == generator_fixed_lattice(datum).rank // 2


@pytest.mark.parametrize("family", ["catalog", "stress", "sweep", "nonabelian", "base-change"])
def test_tree_walk_matches_per_element_solve(family):
    # Lambda_0 as a kernel of I - P0, t0 on the generators, H and [G : H]
    # walked along the Cayley tree and the fiber translations read by an
    # integer left inverse, against the generator rows, the t0 table and one
    # integer solve per element
    for d in projector_data(family):
        for datum, report in pipeline_chain(d):
            dec = report.decomposition
            assert compute_A0(dec.group_sum, datum.group.order) == generator_fixed_lattice(datum)
            table = t0_table(datum)
            t0 = decompose_cocycle(datum, dec)
            assert t0_vectors(t0) == tuple(table[i] for i in datum.group.gens)
            members, index = compute_H(datum, dec, t0)
            solved, shifts = h_by_solve(datum, table)
            assert members == solved == report.subgroup_h
            assert index * len(solved) == datum.group.order
            assert fiber_translations_match(datum, report, shifts)
            lattice_index = prod(report.albanese_isogeny_factors)
            assert datum.group.order * dec.k.order == len(members) * lattice_index


def recorded_hermite_inputs(monkeypatch):
    """The list every hermite_normal_form input is appended to while the patch holds."""
    seen = []

    def recording(m):
        seen.append(tuple(map(tuple, m)))
        return hermite_normal_form(m)

    monkeypatch.setattr("hyperelliptic.exactlin.hermite_normal_form", recording)
    return seen


@pytest.mark.parametrize("family", ["catalog", "stress", "sweep", "nonabelian", "base-change"])
def test_projector_is_hermite_reduced_once_per_level(family, monkeypatch):
    # Lambda_1 and H's classes both read one column Hermite form of the group
    # sum S, so the transpose of S reaches hermite_normal_form once per
    # pipeline level; Lambda_1 must still be the kernel of P0, and H, [G : H]
    # and the fiber translations must match one integer solve per element
    seen = recorded_hermite_inputs(monkeypatch)
    for d in projector_data(family):
        seen.clear()
        chain = pipeline_chain(d)
        calls = list(seen)
        for datum, report in chain:
            dec = report.decomposition
            assert calls.count(transpose(dec.group_sum)) == 1
            assert dec.hermite == column_hermite(dec.group_sum)
            _, p0 = over_common_denominator(fixed_projector(datum))
            assert dec.lambda1 == kernel_lattice(p0)
            members, index = compute_H(datum, dec, decompose_cocycle(datum, dec))
            solved, shifts = h_by_solve(datum, t0_table(datum))
            assert members == solved == report.subgroup_h
            assert index * len(solved) == datum.group.order
            assert fiber_translations_match(datum, report, shifts)


@pytest.mark.parametrize("family", ["catalog", "stress", "sweep", "nonabelian", "base-change"])
def test_group_sum_hermite_form_is_a_multiple_of_the_projector_form(family):
    # S = (|G|/D) D P0, so column_hermite(S) is (|G|/D) h with the transform v
    # of column_hermite(D P0) = (h, v): Lambda_1, P0(Z^n) and H's classes
    # read the same lattices off either form
    for d in projector_data(family):
        for datum, report in pipeline_chain(d):
            den, p0 = over_common_denominator(fixed_projector(datum))
            scale, rest = divmod(datum.group.order, den)
            assert rest == 0
            h, v = column_hermite(p0)
            assert report.decomposition.hermite == (
                tuple(tuple(scale * x for x in row) for row in h), v
            )


@pytest.mark.parametrize("family", ["catalog", "stress", "sweep", "nonabelian", "base-change"])
def test_albanese_lattice_reduces_a_basis_of_the_image(family, monkeypatch):
    # Lambda_B is one reduction of the rank(Lambda_0) pivot columns of S's
    # Hermite form and the |gens| vectors t0, not of the n columns of P0
    seen = recorded_hermite_inputs(monkeypatch)
    widths = []
    compute_albanese = albanese.compute_albanese
    quotient_group = albanese.quotient_group

    def unrecorded_quotient(big, small):
        # Lambda_B / Lambda_0 takes Hermite forms of its own: the Smith
        # form's rounds and the inverse of its u; none reduces generators
        start = len(seen)
        result = quotient_group(big, small)
        del seen[start:]
        return result

    monkeypatch.setattr(albanese, "quotient_group", unrecorded_quotient)

    def measured(*args):
        seen.clear()
        result = compute_albanese(*args)
        widths.append([len(m) for m in seen])
        return result

    monkeypatch.setattr(albanese, "compute_albanese", measured)
    for d in projector_data(family):
        widths.clear()
        chain = pipeline_chain(d)
        expected = [[r.decomposition.lambda0.rank + len(datum.group.gens)] for datum, r in chain]
        assert widths == expected


def test_product_torus_and_factor_alignment_are_one_reduction_each(monkeypatch):
    # Z^6 + Z k_gens is one reduction of the identity columns and the k_gens;
    # TorusDatum reads the inverse of the basis off that reduction's Hermite
    # columns, with no form of its own; the product lattice of the support's
    # planes is one reduction of columns of lam_basis_inv, compared with a
    # sublattice that is already canonical
    seen = recorded_hermite_inputs(monkeypatch)
    half, third = Fraction(1, 2), Fraction(1, 3)
    k_gens = [(half, half, half, half, 0, 0), (0, 0, 0, 0, third, 2 * third)]
    torus = build_product_torus([EllipticFactor("generic")] * 3, over_common_denominator(k_gens))
    assert len(seen) == 1
    assert len(seen[0]) == 6 + len(k_gens) and len(seen[0][0]) == 6
    assert torus.lam_basis_inv == mat_inv(lam_basis(torus))
    # Lambda meets the first factor's plane in Z^2, the third's in more; the
    # rows of den lam_basis, the Hermite rows, have the kernel of lam_basis's
    rows = transpose(torus.lattice.cols)
    for rows, expected in ((rows[2:], (0,)), (rows[:4], None)):
        plane = kernel_lattice(rows)
        seen.clear()
        assert identify_factor_subspace(torus, plane) == expected
        assert len(seen) == 1
    seen.clear()
    assert Sublattice.standard(6) == Sublattice.from_int_columns(6, identity(6))
    assert len(seen) == 1  # from_int_columns reduces, standard does not


@pytest.mark.parametrize("family", ["catalog", "stress", "sweep", "nonabelian", "base-change"])
def test_factor_alignment_matches_product_coordinates(family):
    # Lambda_0 and Lambda_1 of every pipeline level, aligned in lattice
    # coordinates by the library and in product coordinates by the reference
    for d in projector_data(family):
        for datum, report in pipeline_chain(d):
            dec = report.decomposition
            for sub in (dec.lambda0, dec.lambda1):
                reference = factor_subspace_in_product_coords(datum.torus, sub)
                assert identify_factor_subspace(datum.torus, sub) == reference


@pytest.mark.parametrize(
    "family", ["catalog", "stress", "sweep", "nonabelian", "base-change", "z2z2-x2"]
)
def test_certified_fiber_report_matches_validate(family):
    # compute_fiber gives each fiber a passing report by theorem, and the
    # pipeline no longer validates fibers; the full validate must agree
    data = fiber_levels(family)
    assert data
    for d in data:
        for datum, report in pipeline_chain(d):
            fiber = fiber_datum(datum, report)
            certified = fiber._report  # read before validate replaces it
            assert validate(fiber) == certified


def fiber_levels(family):
    """The data whose pipeline levels the fiber tests walk: a family, or copies of z2z2."""
    if family.startswith("z2z2-x"):
        return [z2z2_copies(int(family.removeprefix("z2z2-x")))]
    return projector_data(family)


@pytest.mark.parametrize(
    "family", ["catalog", "stress", "sweep", "nonabelian", "base-change", "z2z2-x2", "z2z2-x3"]
)
def test_table_classification_matches_the_rewritten_fiber(family):
    # classify_fiber reads H on G's Cayley table and the fiber's canonical
    # order is read off the kept eigenvalues; the reference reads both off
    # the fiber datum the rewrite builds, which the pipeline no longer
    # builds unless the recursion descends
    data = fiber_levels(family)
    assert data
    for d in data:
        for datum, report in pipeline_chain(d):
            fiber = fiber_datum(datum, report)
            assert report.fiber_class == reference_classify_fiber(fiber)
            assert report.fiber_canonical_order == canonical_order(fiber)


def test_no_fiber_datum_unless_the_recursion_descends(monkeypatch):
    calls = []
    compute_fiber = albanese.compute_fiber

    def counting(*args):
        calls.append(args[0])
        return compute_fiber(*args)

    monkeypatch.setattr(albanese, "compute_fiber", counting)
    stress = load_perfbench("stress")
    data = [get_entry(name).build() for name in VALID_ENTRIES]
    data += [build_datum(stress.stress_document(*p, 0)) for p in DIGEST_STRESS_POINTS]
    for d in data:
        validate(d)
        run_pipeline(d)
    copies = z2z2_copies(3)
    validate(copies)
    assert run_pipeline(copies, recurse=True).fiber is None
    assert calls == []
    for name in ("z4-threefold", "zmzm-threefold-m2", "zmzm-threefold-m3"):
        calls.clear()
        chain = pipeline_chain(get_entry(name).build())
        assert len(calls) == len(chain) - 1 > 0
        assert calls == [x for x, _ in chain[:-1]]


def test_factor_alignment_matches_product_coordinates_on_the_sweep():
    # the sweep's half vectors k_gen join factors, so Lambda meets a set of
    # factor planes in more than the product lattice of those planes; every
    # such intersection is tested on all 192 documents, aligned or not
    outcomes = set()
    for k_gen in itertools.product(("0", "1/2"), repeat=6):
        for translation in (("1/2", "0"), ("1/2", "1/2"), ("0", "1/2")):
            t = build_datum(three_curve_document(k_gen, translation)).torus
            scaled_rows = transpose(t.lattice.cols)  # den lam_basis: the same kernels
            for size in range(4):
                for support in itertools.combinations(range(3), size):
                    rows = [r for j, r in enumerate(scaled_rows) if j // 2 not in support]
                    sub = kernel_lattice(rows) if rows else Sublattice.standard(6)
                    got = identify_factor_subspace(t, sub)
                    assert got == factor_subspace_in_product_coords(t, sub)
                    outcomes.add(got is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("point", STRESS_POINTS, ids=lambda p: "m{}-k{}-base{}".format(*p))
def test_stress_certificates_match_enumeration(point):
    stress = load_perfbench("stress")
    d = build_datum(stress.stress_document(*point, 0))
    for datum, report in pipeline_chain(d):
        check_against_enumeration(datum, report)
    m, k, _ = point
    assert check_invariant_factors(d.group) == (m,) * k


@pytest.mark.parametrize("name", list_entries())
def test_invariant_factors_match_divisor_counts(name):
    # the group, its fibers' holonomy groups and every subgroup on at most two generators
    d = get_entry(name).build()
    groups = [d.group]
    if not get_entry(name).expect_invalid:
        groups += [fiber_datum(x, r).group for x, r in pipeline_chain(d)]
    pairs = itertools.combinations(range(d.group.order), 2)
    for members in {subgroup_indices(d.group, pair) for pair in pairs}:
        elements = tuple(d.group.elements[i] for i in sorted(members))
        groups.append(close_group(elements[1:], d.torus))
    for group in groups:
        if group.order > 1 and group.is_abelian():
            check_invariant_factors(group)


@pytest.mark.parametrize("name", ["d4-threefold", "z2z2-threefold", "zmzm-threefold-m3"])
def test_subgroups_classified_on_the_table_match_their_own_closure(name):
    # H <= G read on G's table against H closed on its own, for every
    # subgroup on at most two generators: the D4 threefold's include abelian
    # subgroups of a nonabelian group, and the group itself
    d = build_datum(D4_THREEFOLD) if name == "d4-threefold" else get_entry(name).build()
    pairs = itertools.combinations(range(d.group.order), 2)
    kinds = set()
    for members in {subgroup_indices(d.group, pair) for pair in pairs}:
        h = tuple(sorted(members))
        own = close_group([d.group.elements[i] for i in h[1:]], d.torus)
        reference = reference_classify_fiber(HyperellipticDatum(d.torus, own, d.form))
        assert classify_fiber(d.group, h, d.dim) == reference
        kinds.add((reference.cyclic, reference.holonomy_invariant_factors is None))
    nonabelian = {(False, True)} if name == "d4-threefold" else set()
    assert kinds == {(True, False), (False, False)} | nonabelian


def assert_eigenvalue_check_matches_every_element(d):
    assert validate(d).eigenvalue_violations == every_element_eigenvalue_violations(d)


@pytest.mark.parametrize("name", list_entries())
def test_catalog_eigenvalue_check_matches_every_element(name):
    d = get_entry(name).build()
    assert_eigenvalue_check_matches_every_element(d)
    if not get_entry(name).expect_invalid:
        for fiber, _ in pipeline_chain(d)[1:]:
            assert_eigenvalue_check_matches_every_element(fiber)


@pytest.mark.parametrize(
    "point", STRESS_POINTS + ((3, 4, 2),), ids=lambda p: "m{}-k{}-base{}".format(*p)
)
def test_stress_eigenvalue_check_matches_every_element(point):
    stress = load_perfbench("stress")
    for seed in range(4):
        assert_eigenvalue_check_matches_every_element(
            build_datum(stress.stress_document(*point, seed))
        )


def test_sweep_eigenvalue_check_matches_every_element():
    for k_gen in itertools.product(("0", "1/2"), repeat=6):
        for translation in (("1/2", "0"), ("1/2", "1/2"), ("0", "1/2")):
            d = build_datum(three_curve_document(k_gen, translation))
            assert_eigenvalue_check_matches_every_element(d)


@cache
def digest_levels() -> tuple:
    """Each output-digest datum and the fibers its recursion descends into.

    The documents are the catalog entries, the stress points, the sweep and
    D4; an invalid datum has no recursion and comes alone.  Two tests walk
    them, so they are built once.
    """
    levels = []
    for _, doc in digest_documents():
        d = build_datum(doc)
        levels += [x for x, _ in pipeline_chain(d)] if validate(d).passed else [d]
    return tuple(levels)


def test_datum_denominator_is_the_all_element_lcm():
    assert len(digest_levels()) > len(list_entries())
    for datum in digest_levels():
        every = lcm(*(vec_denominator(translation(e)) for e in datum.group.elements))
        assert datum_denominator(datum) == every


def test_model_actions_match_fraction_translations():
    # build_model reads N t as (N // den) shift; the reference reads int(t * N).
    # The model enumerates nothing when it is built, so no cap applies here
    for datum in digest_levels():
        den = datum_denominator(datum)
        for level in (den, 2 * den, 3 * den):
            model = build_model(datum, level, cap=inf)
            assert model.actions == model_actions(datum, level)


@pytest.mark.parametrize("name", ["bielliptic-5", "z4-threefold", "zmzm-threefold-m3"])
def test_wrong_generator_eigenvalue_fails_both_checks(name):
    # declare 1 where a generator acts by a nontrivial unit and carry the
    # wrong eigenvalues factorwise along the Cayley tree: given as raw data,
    # the group fails validate as it fails the every-element reference
    d = get_entry(name).build()
    g = d.group.elements[d.group.gens[0]]
    k = next(k for k, z in enumerate(g.eigenvalues) if not z.is_one())
    eig = g.eigenvalues[:k] + (RootOfUnity.one(),) + g.eigenvalues[k + 1:]
    gens = (AffineAut(g.linear, g.den, g.shift, eig),) + tuple(
        d.group.elements[i] for i in d.group.gens[1:]
    )
    eigenvalues = [d.group.elements[0].eigenvalues]
    for parent, s in d.group.tree[1:]:
        eigenvalues.append(tuple(x * y for x, y in zip(eigenvalues[parent], gens[s].eigenvalues)))
    elements = tuple(AffineAut(e.linear, e.den, e.shift, z)
                     for e, z in zip(d.group.elements, eigenvalues))
    bad_group = ActionGroup(elements, d.group.edges, d.group.tree)
    reference = every_element_eigenvalue_violations(HyperellipticDatum(d.torus, bad_group, d.form))
    assert reference
    raw = HyperellipticDatum(TorusDatum.raw(d.rank), bad_group, d.form)
    assert validate(raw).eigenvalue_violations == reference


def test_hand_built_generator_off_the_unit_blocks_is_refused():
    # a block that is no unit's entry in its factor kind's table has no
    # eigenvalue: the constructor refuses it, whichever factor it is on
    torus = build_product_torus([EllipticFactor("generic"), EllipticFactor("gauss")])
    one, i, shear = ((1, 0), (0, 1)), ((0, -1), (1, 0)), ((1, 1), (0, 1))
    for blocks, message in (
        ([shear, one], "block ((1, 1), (0, 1)) is not an automorphism of a generic factor"),
        ([i, i], "block ((0, -1), (1, 0)) is not an automorphism of a generic factor"),
        ([one, shear], "block ((1, 1), (0, 1)) is not an automorphism of a gauss factor"),
    ):
        with pytest.raises(InvalidDatum, match=f"^{re.escape(message)}$"):
            affine_from_factor_action(torus, blocks, (1, (0,) * 4))


def test_builder_generators_carry_their_blocks_units(monkeypatch):
    # close_group takes a factor-torus generator's eigenvalues and its
    # unimodularity from the constructor: both hold on every generator the
    # builder documents of the output digest make
    made = []

    def recording(torus, blocks, translation):
        made.append((torus, affine_from_factor_action(torus, blocks, translation)))
        return made[-1][1]

    monkeypatch.setattr(documents, "affine_from_factor_action", recording)
    builders = [doc for _, doc in digest_documents() if doc["mode"] == "builder"]
    for doc in builders:
        build_datum(doc)
    assert len(made) > len(builders)
    for torus, g in made:
        assert g.eigenvalues == block_eigenvalues(torus, g.linear)
        assert is_unimodular(g.linear)


def builder_chains():
    """Each builder document of the output digest and each fiber its recursion descends into."""
    for _, doc in digest_documents():
        if doc["mode"] == "builder":
            d = build_datum(doc)
            yield [x for x, _ in pipeline_chain(d)] if validate(d).passed else [d]


def test_builder_data_hold_form_and_eigenvalues_by_construction(monkeypatch):
    # the reference finds every builder datum and every fiber valid on the
    # form and the eigenvalues, and validate checks neither on a factor torus
    chains = list(builder_chains())
    for datum in (datum for chain in chains for datum in chain):
        assert every_element_eigenvalue_violations(datum) == ()
        gens = [datum.group.elements[i].linear for i in datum.group.gens]
        assert all(datum.form.is_invariant_under(m) for m in gens)
    factor_data = [x for chain in chains for x in chain if x.torus.factors is not None]
    assert len(factor_data) > len(chains)  # some fibers are factor-aligned

    def refuse(*args):
        raise AssertionError("a form or eigenvalue check ran on a factor torus")

    monkeypatch.setattr(action, "char_poly", refuse)
    monkeypatch.setattr(action, "cyclotomic_multiplicities", refuse)
    monkeypatch.setattr(AlternatingForm, "is_invariant_under", refuse)
    for datum in factor_data:
        report = validate(datum)
        assert not report.form_violations and not report.eigenvalue_violations


@pytest.mark.parametrize("doc", [D4_THREEFOLD, RAW_INVOLUTION, RAW_FORM_FLIP],
                         ids=["d4-threefold", "raw-involution", "raw-form-flip"])
def test_raw_data_get_every_check(doc, monkeypatch):
    # per nonidentity element a characteristic polynomial and its cyclotomic
    # factors, and per distinct generator the form
    d = build_datum(doc)
    calls = []

    def counting(name, function):
        def call(*args):
            calls.append(name)
            return function(*args)

        return call

    for name in ("char_poly", "cyclotomic_multiplicities"):
        monkeypatch.setattr(action, name, counting(name, getattr(action, name)))
    monkeypatch.setattr(
        AlternatingForm, "is_invariant_under", counting("form", AlternatingForm.is_invariant_under)
    )
    report = validate(d)
    nonidentity = d.group.order - 1
    assert calls.count("char_poly") == calls.count("cyclotomic_multiplicities") == nonidentity
    assert calls.count("form") == len(set(d.group.gens))
    assert report.form_invariant == (doc is not RAW_FORM_FLIP)
