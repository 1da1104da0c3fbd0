"""Products read off the Cayley edges, and eigenvalues multiplied factor by factor.

`close_group` forms every product once, in integers over one denominator,
builds an element only when it is new, and keeps its Cayley edges;
`ActionGroup` answers later products by following them, and decides
commutativity on the generators alone.  A derived group (an Albanese
fiber) reads its products off its parent's Cayley table and multiplies
nothing.  With elliptic factors a new element's eigenvalues are the
factorwise product of its parent's and its generator's.  The references
here are the computations those replaced: `compose`, the `Fraction`
product, on every pair of elements, a power walk for element orders, the
all-pairs commutation test, and the eigenvalue read off each diagonal 2x2
block in product coordinates (`helpers.block_eigenvalues`).
They run on every catalog entry, on the fibers along each valid entry's
recursion, on two copies of `z2z2-threefold` side by side, and on the
benchmark's stress points at seed 0.
"""

from __future__ import annotations

import json

import pytest

from conftest import load_perfbench
from helpers import (
    block_eigenvalues,
    chain_data,
    compose,
    element_index,
    fiber_datum,
    side_by_side,
)
import hyperelliptic.action
import hyperelliptic.albanese
from hyperelliptic.action import affine_identity, close_group, validate
from hyperelliptic.albanese import run_pipeline
from hyperelliptic.catalog import get_entry, list_entries
from hyperelliptic.cli import main
from hyperelliptic.cyclotomic import RootOfUnity
from hyperelliptic.documents import build_datum

STRESS_POINTS = ((3, 3, 2), (2, 4, 2), (2, 2, 6), (2, 2, 8))


def data_of(d):
    """d and, when d is valid, the fiber of each datum its recursion visits."""
    return chain_data(d) if validate(d).passed else [d]


def catalog_data(name):
    return data_of(get_entry(name).build())


def stress_data(point):
    return data_of(build_datum(load_perfbench("stress").stress_document(*point, 0)))


def z2z2_copies(copies):
    return build_datum(side_by_side(get_entry("z2z2-threefold").document, copies))


def copies_data(copies):
    return data_of(z2z2_copies(copies))


CASES = [pytest.param(catalog_data, name, id=name) for name in list_entries()] + [
    pytest.param(stress_data, point, id="m{}-k{}-base{}".format(*point))
    for point in STRESS_POINTS
] + [pytest.param(copies_data, 2, id="z2z2-x2")]


def naive_order(e) -> int:
    power, order = e, 1
    while power.key() != affine_identity(e.rank).key():
        power, order = compose(power, e), order + 1
    return order


@pytest.mark.parametrize("data,arg", CASES)
def test_products_match_compose(data, arg):
    for d in data(arg):
        group = d.group
        elements = group.elements
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                assert group.compose_indices(i, j) == element_index(group, compose(a, b))
            assert group.orders[i] == naive_order(a)
        commute = all(
            compose(a, b).key() == compose(b, a).key() for a in elements for b in elements
        )
        assert group.is_abelian() == commute


@pytest.mark.parametrize("data,arg", CASES)
def test_eigenvalues_match_factor_blocks(data, arg):
    checked = 0
    for d in data(arg):
        if d.torus.factors is None:
            continue
        for e in d.group.elements:
            assert e.eigenvalues == block_eigenvalues(d.torus, e.linear)
            checked += 1
    assert checked


@pytest.mark.parametrize(
    "build",
    [pytest.param(get_entry(name).build, id=name)
     for name in list_entries() if not get_entry(name).expect_invalid]
    + [pytest.param(lambda: z2z2_copies(2), id="z2z2-x2")],
)
def test_pipeline_multiplies_no_element(build, monkeypatch):
    # the pipeline closes no group: the fiber reads its products off G's
    # table, and each fiber's report is certified, so no element is checked either
    d = build()
    assert validate(d).passed

    def refuse(*args):
        raise AssertionError("an element was multiplied or checked after validation")

    monkeypatch.setattr(hyperelliptic.action, "close_group", refuse)
    monkeypatch.setattr(hyperelliptic.albanese, "validate", refuse)
    monkeypatch.setattr(hyperelliptic.action, "has_fixed_point", refuse)
    monkeypatch.setattr(hyperelliptic.action, "char_poly", refuse)
    run_pipeline(d, recurse=True)


@pytest.mark.parametrize("data,arg", CASES)
def test_closure_builds_one_element_per_group_element(data, arg, monkeypatch):
    # the products are integer pairs: an AffineAut is built for a new element only
    d = data(arg)[0]
    gens = [d.group.elements[i] for i in d.group.gens]
    table = {e.linear: e.eigenvalues for e in d.group.elements}
    built = []

    class Counted(hyperelliptic.action.AffineAut):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(hyperelliptic.action, "AffineAut", Counted)
    group = close_group(gens, d.torus, cap=d.group.order,
                        eigenvalue_table=None if d.builder_mode else table)
    assert len(built) == group.order == d.group.order
    assert [(e.key(), e.eigenvalues) for e in group.elements] == [
        (e.key(), e.eigenvalues) for e in d.group.elements]
    assert (group.edges, group.tree) == (d.group.edges, d.group.tree)


def test_two_z2z2_copies_have_h_everything():
    d = z2z2_copies(2)
    report = run_pipeline(d, recurse=True)
    assert (d.group.order, d.rank, report.q) == (16, 12, 0)
    assert fiber_datum(d, report).group.order == 16


# q = 1 on e2; H = <g1> acts on the fiber e0 x e1 by (z0 + 1/2, -z1).  Dropping
# "the first q ones" from g1's eigenvalues (1, -1, 1) would give (-1, 1), out of
# factor order; the fiber's eigenvalues must match its factor blocks.
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
    fiber = fiber_datum(d, report).group
    assert [fiber.elements[i].eigenvalues for i in fiber.gens] == [(one, minus)]

    path = tmp_path / "fiber-order.json"
    path.write_text(json.dumps(FIBER_ORDER_DOCUMENT))
    assert main(["albanese", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Albanese: dimension 1 on e2," in out
    assert "H: order 2, element indices [0, 1]" in out
    assert "fiber: hyperelliptic of dimension 2 with holonomy Z/2 on e0 x e1\n" in out
    assert main(["oracle", str(path)]) == 0
