"""The integer lattice routines give what their `Fraction` forms gave.

`Sublattice.coords_of`, `Sublattice.reduce_mod` and `quotient_group` carry
every vector as (den, integers), and `hermite_coords` back-substitutes in
integers.  Each is compared with its `Fraction` reference in `helpers`: the
same coordinates (None off the span), the same coset representatives, the
same invariant factors and generators, with every returned den least.  The
cases are random lattices and vectors, and every Lambda_0, Lambda_1,
Lambda_B, K, K0 and K1 of the output digest's catalog and stress documents,
along the `--recurse` tower of fibers.
"""

import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    as_pair,
    basis_vectors,
    from_rat_columns,
    generator_vectors,
    pipeline_chain,
    proj0,
    rational,
    reference_coords_of,
    reference_hermite_coords,
    reference_mat_vec,
    reference_quotient_group,
    reference_reduce_mod,
    t0_vectors,
    vec_sub,
)
from hyperelliptic.action import validate
from hyperelliptic.albanese import decompose_cocycle
from hyperelliptic.catalog import list_entries
from hyperelliptic.documents import build_datum
from hyperelliptic.errors import InternalError
from hyperelliptic.exactlin import (
    Sublattice,
    column_hermite,
    hermite_coords,
    identity,
    quotient_group,
    transpose,
)
from output_digest import documents as digest_documents

FRACTIONS = st.fractions(-3, 3, max_denominator=6)


def is_least(pair) -> bool:
    den, v = pair
    return den > 0 and gcd(den, *v) == 1


def same_coords(lattice: Sublattice, v) -> None:
    """coords_of against the reference on the rational vector v."""
    got = lattice.coords_of(*as_pair(v))
    expected = reference_coords_of(lattice, v)
    if expected is None:
        assert got is None
    else:
        assert is_least(got) and rational(*got) == expected


def same_representative(lattice: Sublattice, v) -> None:
    """reduce_mod against the reference on the rational vector v, which lies in the span."""
    got = lattice.reduce_mod(*as_pair(v))
    assert is_least(got) and rational(*got) == reference_reduce_mod(lattice, v)


def same_quotient(big: Sublattice, small: Sublattice):
    """quotient_group against the reference: the same factors and generators, or both refuse."""
    try:
        expected = reference_quotient_group(big, small)
    except InternalError as exc:
        with pytest.raises(InternalError, match=f"^{re.escape(str(exc))}$"):
            quotient_group(big, small)
        return None
    got = quotient_group(big, small)
    assert all(map(is_least, got.generators))
    assert (got.invariant_factors, generator_vectors(got)) == expected
    return got


@st.composite
def lattice_cases(draw):
    """(lattice, a vector in its span, a vector of the ambient space) with small entries."""
    n = draw(st.integers(1, 4))
    vector = st.lists(FRACTIONS, min_size=n, max_size=n).map(tuple)
    lattice = from_rat_columns(n, draw(st.lists(vector, max_size=4)))
    combo = draw(st.lists(FRACTIONS, min_size=lattice.rank, max_size=lattice.rank))
    basis = basis_vectors(lattice)
    inside = tuple(sum((c * b[t] for c, b in zip(combo, basis)), Fraction(0)) for t in range(n))
    return lattice, inside, draw(vector)


class TestRandom:
    @settings(max_examples=200, deadline=None)
    @given(lattice_cases())
    def test_coordinates_and_representatives(self, case):
        lattice, inside, anywhere = case
        for v in (inside, anywhere):
            same_coords(lattice, v)
        same_representative(lattice, inside)
        # a representative is one per coset: moving by 3 times a basis vector keeps it
        for b in basis_vectors(lattice):
            moved = tuple(x + 3 * y for x, y in zip(inside, b))
            assert lattice.reduce_mod(*as_pair(moved)) == lattice.reduce_mod(*as_pair(inside))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(lambda n: st.tuples(
            st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=5),
            st.lists(st.integers(-20, 20), min_size=n, max_size=n),
        ))
    )
    def test_hermite_coords(self, case):
        # the nonzero columns of a column Hermite form, as the library reads them
        generators, target = case
        h, _ = column_hermite(transpose(generators)) if generators else ((), ())
        cols = [c for c in transpose(h) if any(c)]
        for t in (target, [sum(c[i] for c in cols) for i in range(len(target))]):
            got = hermite_coords(cols, t)
            expected = reference_hermite_coords(cols, t)
            if expected is None:
                assert got is None
            else:
                assert is_least(got) and list(rational(*got)) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 4).flatmap(lambda n: st.tuples(
            st.lists(st.lists(FRACTIONS, min_size=n, max_size=n), max_size=3),
            st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n,
                     max_size=n),
        ))
    )
    def test_quotient_groups(self, case):
        # big = Z^n + the extra vectors; small has basis c @ (a basis of big)
        extra, c = case
        n = len(c)
        big = from_rat_columns(n, list(identity(n)) + extra)
        basis = basis_vectors(big)
        small = from_rat_columns(
            n, [tuple(sum(x * b[t] for x, b in zip(row, basis)) for t in range(n)) for row in c]
        )
        same_quotient(big, small)


def digest_data():
    """Every datum of the digest's catalog and stress documents that passes validation."""
    catalog = set(list_entries())
    data = []
    for name, doc in digest_documents():
        if name in catalog or name.startswith("stress-"):
            d = build_datum(doc)
            if validate(d).passed:
                data.append(d)
    return data


def test_every_albanese_lattice_and_group_of_the_digest():
    data = digest_data()
    levels = 0
    for d in data:
        for datum, report in pipeline_chain(d):
            levels += 1
            dec = report.decomposition
            n = datum.rank
            lam0, lam1, lam_b = dec.lambda0, dec.lambda1, report.albanese_lattice
            # K = Z^n / (Lambda_0 + Lambda_1) and Lambda_B / Lambda_0, as the pipeline forms them
            small = Sublattice.from_int_columns(n, lam0.cols + lam1.cols)
            assert same_quotient(Sublattice.standard(n), small) == dec.k
            got = same_quotient(lam_b, lam0)
            assert got.invariant_factors == report.albanese_isogeny_factors
            # K0 and K1: the reference projections of K's generators, reduced by the reference
            p0 = proj0(datum, dec)
            for gen, g0, g1 in zip(generator_vectors(dec.k), generator_vectors(dec.k0),
                                   generator_vectors(dec.k1), strict=True):
                v0 = reference_mat_vec(p0, gen)
                assert g0 == reference_reduce_mod(lam0, v0)
                assert g1 == reference_reduce_mod(lam1, vec_sub(gen, v0))
                same_representative(lam0, v0)
                same_representative(lam1, vec_sub(gen, v0))
            # coordinates and representatives of every basis vector, generator,
            # unit vector, t0 row and P0 column against each lattice
            t0 = t0_vectors(decompose_cocycle(datum, dec))
            columns = transpose(p0)
            for lattice, inside in (
                (lam0, basis_vectors(lam0) + generator_vectors(dec.k0)),
                (lam1, basis_vectors(lam1) + generator_vectors(dec.k1)),
                (lam_b, basis_vectors(lam_b) + t0 + columns),
            ):
                for v in inside:
                    same_coords(lattice, v)
                    same_representative(lattice, v)
                for v in identity(n):
                    same_coords(lattice, v)
    assert levels > len(data) > len(list_entries())  # stress data, and fibers in the tower
