"""Products read off the Cayley edges, and eigenvalues multiplied factor by factor.

`close_group` forms every product once and keeps its Cayley edges;
`ActionGroup` answers later products by following them, and decides
commutativity on the generators alone.  With elliptic factors a new
element's eigenvalues are the factorwise product of its parent's and its
generator's.  The references here are the computations those replaced:
`compose` on every pair of elements, a power walk for element orders, the
all-pairs commutation test, and the eigenvalue read off each diagonal 2x2
block in product coordinates.  They run on every catalog entry, on the raw and
normalized fibers along each valid entry's recursion, and on the benchmark's
stress points at seed 0.
"""

from __future__ import annotations

import json

import pytest

from conftest import load_perfbench
from hyperelliptic.action import compose, quotient_by_translations, validate
from hyperelliptic.albanese import (
    compute_A0,
    compute_A1,
    compute_fiber,
    compute_H,
    compute_K,
    decompose_cocycle,
    run_pipeline,
)
from hyperelliptic.catalog import get_entry, list_entries
from hyperelliptic.cli import main
from hyperelliptic.cyclotomic import RootOfUnity
from hyperelliptic.documents import build_datum
from hyperelliptic.exactlin import mat_inv, mat_mul
from hyperelliptic.torus import factor_block_eigenvalue

STRESS_POINTS = ((3, 3, 2), (2, 4, 2), (2, 2, 6), (2, 2, 8))


def raw_fiber(d):
    """The fiber datum before quotient_by_translations, as run_pipeline builds it."""
    lambda0 = compute_A0(d)
    dec = compute_K(d, lambda0, compute_A1(d, lambda0))
    h, shifts = compute_H(d, dec, decompose_cocycle(d, dec))
    return compute_fiber(d, dec, h, shifts)[0]


def data_of(d):
    """d and, when d is valid, the raw and normalized fiber of each datum its recursion visits."""
    out = [d]
    if not validate(d).passed:
        return out
    report = run_pipeline(d, recurse=True)
    while report is not None:
        fiber = raw_fiber(d)
        out += [fiber, quotient_by_translations(fiber), report.fiber]
        d, report = report.fiber, report.fiber_report
    return out


def catalog_data(name):
    return data_of(get_entry(name).build())


def stress_data(point):
    return data_of(build_datum(load_perfbench("stress").stress_document(*point, 0)))


CASES = [pytest.param(catalog_data, name, id=name) for name in list_entries()] + [
    pytest.param(stress_data, point, id="m{}-k{}-base{}".format(*point))
    for point in STRESS_POINTS
]


def naive_order(e) -> int:
    power, order = e, 1
    while not power.is_identity():
        power, order = compose(power, e), order + 1
    return order


def block_eigenvalues(torus, e):
    """The eigenvalue of each diagonal 2x2 block of e in product coordinates, in factor order."""
    m = mat_mul(mat_mul(torus.lam_basis, e.linear), mat_inv(torus.lam_basis))
    assert all(x.denominator == 1 for row in m for x in row)
    assert all(m[i][j] == 0 for i in range(len(m)) for j in range(len(m)) if i // 2 != j // 2)
    return tuple(
        factor_block_eigenvalue(
            f, ((int(m[2 * k][2 * k]), int(m[2 * k][2 * k + 1])),
                (int(m[2 * k + 1][2 * k]), int(m[2 * k + 1][2 * k + 1])))
        )
        for k, f in enumerate(torus.factors)
    )


@pytest.mark.parametrize("data,arg", CASES)
def test_products_match_compose(data, arg):
    for d in data(arg):
        group = d.group
        elements = group.elements
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                assert group.compose_indices(i, j) == group.index_of(compose(a, b))
            assert group.element_order(i) == naive_order(a)
        commute = all(compose(a, b) == compose(b, a) for a in elements for b in elements)
        assert group.is_abelian() == commute


@pytest.mark.parametrize("data,arg", CASES)
def test_eigenvalues_match_factor_blocks(data, arg):
    checked = 0
    for d in data(arg):
        if d.torus.factors is None:
            continue
        for e in d.group.elements + d.group.generators:
            assert e.eigenvalues == block_eigenvalues(d.torus, e)
            checked += 1
    assert checked


def test_quotient_with_translations_is_covered():
    # some catalog fiber has translations, so the cases above reach a nontrivial quotient
    assert any(
        quotient_by_translations(d) is not d
        for name in list_entries()
        for d in catalog_data(name)
    )


# q = 1 on e2; H = <g1> acts on the fiber e0 x e1 by (z0 + 1/2, -z1).  Dropping
# "the first q ones" from g1's eigenvalues (1, -1, 1) would give (-1, 1), out of
# factor order; the fiber's closure multiplies eigenvalues factor by factor.
FIBER_ORDER_DOCUMENT = {
    "mode": "builder",
    "factors": [
        {"kind": "generic", "label": "e0"},
        {"kind": "generic", "label": "e1"},
        {"kind": "generic", "label": "e2"},
    ],
    "generators": [
        {"zetas": ["1", "-1", "1"], "translation": ["1/2", "0", "0", "0", "0", "0"]},
        {"zetas": ["-1", "1", "1"], "translation": ["0", "0", "1/2", "0", "1/2", "0"]},
    ],
}


def test_fiber_eigenvalues_are_in_factor_order(tmp_path, capsys):
    d = build_datum(FIBER_ORDER_DOCUMENT)
    report = run_pipeline(d)
    assert report.q == 1
    assert report.albanese_factor_indices == (2,)
    assert report.subgroup_h == (0, 1)
    one, minus = RootOfUnity.one(), RootOfUnity.of(1, 2)
    assert [g.eigenvalues for g in report.fiber.group.generators] == [(one, minus)]

    path = tmp_path / "fiber-order.json"
    path.write_text(json.dumps(FIBER_ORDER_DOCUMENT))
    assert main(["albanese", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Albanese: dimension 1 on e2," in out
    assert "H: order 2, element indices [0, 1]" in out
    assert "fiber: hyperelliptic of dimension 2 with holonomy Z/2 on e0 x e1\n" in out
    assert main(["oracle", str(path)]) == 0
