"""The group-ring Hodge diamond against the Q(zeta_N) reference.

`hyperelliptic.invariants` computes h^{p,q} and q as integer sums in
Z[Z/N], one per class of elements with the same eigenvalue exponents, and
reduces each cell mod Phi_N once.  `cyclo_reference` does the same averages
element by element in Q(zeta_N) with `Fraction` coefficients.  Both must
agree on every catalog entry, on every fiber the Albanese recursion reaches
and on the benchmark's stress points, and the per-class cells must match the
reference's elementary symmetric sums on random eigenvalue multisets.  The
certificate (a constant remainder, nonnegative and divisible by |G|) is
tested directly.
"""

from __future__ import annotations

from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclo_reference as ref
from conftest import load_perfbench
from helpers import chain_data
from hyperelliptic.action import validate
from hyperelliptic.catalog import get_entry, list_entries
from hyperelliptic.cyclotomic import RootOfUnity
from hyperelliptic.documents import build_datum
from hyperelliptic.errors import InvalidDatum
from hyperelliptic.invariants import (
    _add_class,
    _certified_integer,
    _elementary_symmetric,
    hodge_diamond,
    irregularity,
)

# the four stress points of the benchmark's certificate tests, and (3, 4, 2)
STRESS_POINTS = ((3, 3, 2), (2, 4, 2), (2, 2, 6), (2, 2, 8), (3, 4, 2))
VALID_ENTRIES = [name for name in list_entries() if not get_entry(name).expect_invalid]


def assert_matches_reference(d):
    assert hodge_diamond(d) == ref.hodge_diamond(d)
    assert irregularity(d, hodge_diamond(d)) == ref.irregularity(d)


@pytest.mark.parametrize("name", VALID_ENTRIES)
def test_catalog_matches_reference(name):
    for d in chain_data(get_entry(name).build()):
        assert_matches_reference(d)


@pytest.mark.parametrize("point", STRESS_POINTS, ids=lambda p: "m{}-k{}-base{}".format(*p))
def test_stress_points_match_reference(point):
    stress = load_perfbench("stress")
    d = build_datum(stress.stress_document(*point, 0))
    validate(d)
    assert_matches_reference(d)


def group_ring_value(counts, conductor: int) -> ref.CycloNumber:
    """sum_t counts[t] * zeta_N^t in the reference's Q(zeta_N)."""
    total = ref.CycloNumber.zero(conductor)
    for t, c in enumerate(counts):
        total = total + ref.embed(RootOfUnity.of(t, conductor), conductor) * c
    return total


roots = st.builds(
    RootOfUnity.of, st.integers(0, 11), st.sampled_from((1, 2, 3, 4, 6, 12))
)


@settings(max_examples=60, deadline=None)
@given(st.lists(roots, min_size=1, max_size=5), st.integers(1, 5))
def test_class_cells_match_elementary_symmetric(eigenvalues, count):
    conductor = lcm(*(z.order for z in eigenvalues))
    exponents = tuple(sorted(z.k * (conductor // z.order) for z in eigenvalues))
    n = len(eigenvalues)
    values = [ref.embed(z, conductor) for z in eigenvalues]
    es = [ref.elementary_symmetric(values, p) for p in range(n + 1)]
    ring_es = _elementary_symmetric(exponents, conductor)
    cells = [[[0] * conductor for _ in range(n + 1)] for _ in range(n + 1)]
    _add_class(cells, exponents, count, conductor)
    for p in range(n + 1):
        assert group_ring_value(ring_es[p], conductor) == es[p]
        for q in range(n + 1):
            expected = es[p] * es[q].conjugate() * count
            assert group_ring_value(cells[p][q], conductor) == expected


class TestCertificate:
    def test_constant_divisible_by_order(self):
        assert _certified_integer([6, 0, 0, 0], 4, 3, "h") == 2
        assert _certified_integer([5, 0, 1, 0], 4, 2, "h") == 2  # x^2 = -1 mod Phi_4
        assert _certified_integer([2, 1, 1], 3, 1, "h") == 1  # 1 + x + x^2 = 0 mod Phi_3
        assert _certified_integer([0, 0, 0], 3, 5, "h") == 0

    def test_non_constant_remainder_is_non_rational(self):
        with pytest.raises(
            InvalidDatum, match=r"^h is not rational: remainder \(0, 1\) mod Phi_4$"
        ):
            _certified_integer([0, 1, 0, 0], 4, 1, "h")
        with pytest.raises(
            InvalidDatum, match=r"^h is not rational: remainder \(2, 1\) mod Phi_3$"
        ):
            _certified_integer([2, 1, 0], 3, 1, "h")

    def test_negative_constant_is_inconsistent(self):
        with pytest.raises(InvalidDatum, match="^h is not a nonnegative integer: -1$"):
            _certified_integer([-2, 0, 0, 0], 4, 2, "h")

    def test_constant_not_divisible_by_order_is_inconsistent(self):
        with pytest.raises(InvalidDatum, match="^h is not a nonnegative integer: 3/2$"):
            _certified_integer([3, 0, 0, 0], 4, 2, "h")

    @staticmethod
    def stub(order, *eigenvalue_lists):
        elements = [SimpleNamespace(eigenvalues=e) for e in eigenvalue_lists]
        group = SimpleNamespace(order=order, elements=elements)
        return SimpleNamespace(dim=len(eigenvalue_lists[0]), group=group)

    def test_diamond_of_a_non_galois_stable_set_is_non_rational(self):
        # the eigenvalues 1 and i average to (1 + i) / 2 in h^{1,0}
        d = self.stub(2, (RootOfUnity.one(),), (RootOfUnity.of(1, 4),))
        with pytest.raises(
            InvalidDatum, match=r"^h\^\{0,1\} is not rational: remainder \(1, -1\) mod Phi_4$"
        ):
            hodge_diamond(d)

    def test_diamond_with_a_wrong_group_order_is_inconsistent(self):
        d = self.stub(3, (RootOfUnity.one(),), (RootOfUnity.of(1, 2),))
        with pytest.raises(InvalidDatum, match=r"^h\^\{0,0\} is not a nonnegative integer: 2/3$"):
            hodge_diamond(d)
