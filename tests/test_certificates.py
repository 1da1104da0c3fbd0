"""The Albanese pipeline's certificates against the enumerations they replace.

The pipeline checks P0 M_g = P0 on the generators only, decides H by one
integer solve of P0 w = t0(g) per element, checks |K0| = |K1| = |K| from two
lattice quotients, reads the oracle level off the K0 and K1 generators and
finds invariant factors by p-primary counting.  The reference here does each
job the long way: it enumerates K element by element, matches t0(g) against
every K0 element, tests P0 M_g = P0 and the cocycle identity on every
element, and checks invariant factors by the divisor-count predicate
#{x : x^d = 1} = prod gcd(d, f_i).  It runs on every catalog entry, on its
recursive fibers and on the stress family the benchmark uses.
"""

from __future__ import annotations

import itertools
import random
from math import gcd, lcm

import pytest

from conftest import load_perfbench
from hyperelliptic.action import (
    AffineAut,
    HyperellipticDatum,
    close_group,
    quotient_by_translations,
    validate,
)
from hyperelliptic.albanese import (
    _abelian_invariant_factors,
    compute_A0,
    compute_A1,
    compute_H,
    compute_K,
    decompose_cocycle,
    run_pipeline,
)
from hyperelliptic.catalog import get_entry, list_entries
from hyperelliptic.documents import build_datum
from hyperelliptic.exactlin import (
    Sublattice,
    identity,
    mat_det,
    mat_inv,
    mat_mul,
    mat_vec,
    transpose,
    vec_denominator,
    vec_mod1,
    vec_sub,
)
from hyperelliptic.invariants import invariants_report
from hyperelliptic.oracle import datum_denominator, fiber_count_level
from hyperelliptic.torus import AlternatingForm, TorusDatum

# the benchmark's stress points, (m, k, base); each pipeline runs in well under 2 s
STRESS_POINTS = ((3, 3, 2), (2, 4, 2), (2, 2, 6), (2, 2, 8))


def in_lattice(lattice: Sublattice, v) -> bool:
    return not any(v) if lattice.rank == 0 else lattice.contains(v)


def enumerate_k(d, dec):
    """Every K element as (lift in Lambda, V0 part, V1 part), by enumeration."""
    small = Sublattice.from_int_columns(d.rank, dec.lambda0.cols + dec.lambda1.cols)
    out = []
    for combo in itertools.product(*(range(f) for f in dec.k.invariant_factors)):
        v = tuple(sum(c * g[t] for c, g in zip(combo, dec.k.generators)) for t in range(d.rank))
        lift = small.reduce_mod(v)
        out.append((lift, mat_vec(dec.proj0, lift), mat_vec(dec.proj1, lift)))
    return out


def pipeline_chain(d):
    """(datum, report) for the datum and each fiber the recursion descends into."""
    validate(d)
    report = run_pipeline(d, recurse=True)
    chain = [(d, report)]
    while report.fiber_report is not None:
        chain.append((report.fiber, report.fiber_report))
        report = report.fiber_report
    return chain


def check_against_enumeration(d, report):
    lambda0 = compute_A0(d)
    dec = compute_K(d, lambda0, compute_A1(d, lambda0))
    table = decompose_cocycle(d, dec)
    h, shifts = compute_H(d, dec, table)
    k_elements = enumerate_k(d, dec)

    # K: both projections injective, checked element by element
    assert len(k_elements) == dec.k.order
    for lam, part in ((dec.lambda0, 1), (dec.lambda1, 2)):
        images = {tuple(lam.reduce_mod(e[part])) if lam.rank else e[part] for e in k_elements}
        assert len(images) == dec.k.order

    # P0 M_g = P0 and the cocycle identity hold for every element, not just generators
    enlarged = dec.lambda0
    if dec.k0.generators:
        enlarged = enlarged.sum(Sublattice.from_rat_columns(d.rank, dec.k0.generators))
    for i, e in enumerate(d.group.elements):
        assert mat_mul(dec.proj0, e.linear) == dec.proj0
        for j in range(d.group.order):
            ij = d.group.compose_indices(i, j)
            diff = vec_sub(table.t0[ij], tuple(a + b for a, b in zip(table.t0[i], table.t0[j])))
            assert in_lattice(enlarged, diff)

    # H = {g : t0(g) - p0(k) in Lambda_0 for some k}, and each fiber shift is
    # t1(g) - p1(k) modulo Lambda_1 for that k
    expected_h = []
    for i, e in enumerate(d.group.elements):
        t0 = table.t0[i]
        match = next((k for k in k_elements if in_lattice(dec.lambda0, vec_sub(t0, k[1]))), None)
        if match is None:
            continue
        expected_h.append(i)
        old_shift = vec_sub(mat_vec(dec.proj1, e.translation), match[2])
        assert in_lattice(dec.lambda1, vec_sub(shifts[i], old_shift))
    assert h == tuple(expected_h) == report.subgroup_h
    members = set(h)
    assert all(d.group.compose_indices(i, j) in members for i in h for j in h)

    # the oracle level from the generators equals the lcm over all of K
    level = datum_denominator(d)
    for b in report.albanese_lattice.basis_vectors():
        level = lcm(level, vec_denominator(b))
    for _, p0, p1 in k_elements:
        level = lcm(level, vec_denominator(p0), vec_denominator(p1))
    assert fiber_count_level(d, report) == level


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
    factors = _abelian_invariant_factors(group)
    orders = [group.element_order(i) for i in range(group.order)]
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


def conjugated(d, u):
    """The same action written in the lattice basis given by the columns of u."""
    u_inv = tuple(tuple(int(x) for x in row) for row in mat_inv(u))

    def move(e):
        translation = vec_mod1(mat_vec(u_inv, e.translation))
        return AffineAut(mat_mul(mat_mul(u_inv, e.linear), u), translation, e.eigenvalues)

    table = {move(e).linear: e.eigenvalues for e in d.group.elements}
    torus = TorusDatum.raw(d.rank)
    group = close_group([move(g) for g in d.group.generators], torus, eigenvalue_table=table)
    form = AlternatingForm(mat_mul(mat_mul(transpose(u), d.form.matrix), u))
    return HyperellipticDatum(torus, group, form, builder_mode=False, j_stability_assumed=True)


def base_change(kind: str, rank: int, seed: str):
    """U = I + superdiagonal, or a seeded product of elementary matrices in GL(rank, Z)."""
    if kind == "superdiagonal":
        return tuple(tuple(int(j in (i, i + 1)) for j in range(rank)) for i in range(rank))
    rng = random.Random(seed)
    u = [list(row) for row in identity(rank)]
    for _ in range(2 * rank):
        i, j = rng.sample(range(rank), 2)  # row i += c * row j
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    flip = rng.randrange(rank)  # one row times -1, so det U = -1
    u[flip] = [-a for a in u[flip]]
    return tuple(map(tuple, u))


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
    assert abs(mat_det(u)) == 1
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
        groups += [quotient_by_translations(r.fiber).group for _, r in pipeline_chain(d)]
    pairs = itertools.combinations(range(d.group.order), 2)
    for members in {subgroup_indices(d.group, pair) for pair in pairs}:
        elements = tuple(d.group.elements[i] for i in sorted(members))
        groups.append(close_group(elements[1:], d.torus))
    for group in groups:
        if group.order > 1 and group.is_abelian():
            check_invariant_factors(group)
