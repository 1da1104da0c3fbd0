from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bareiss_det, in_span, minors_gcd
from helpers import is_saturated, saturate
from hyperelliptic.catalog import get_entry, list_entries
from hyperelliptic.exactlin import (
    LatticeError,
    Sublattice,
    column_hermite,
    coset_meets_lattice,
    hermite_normal_form,
    identity,
    integer_solution,
    kernel_lattice,
    mat_mul,
    mat_vec,
    quotient_group,
    smith_normal_form,
    transpose,
)

F = Fraction


def reference_mat_mul(a, b):
    """The plain product, one entry at a time: sum(x * y) over the operands' own types."""
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def reference_mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def small_int_matrix(rows, cols, bound=5):
    entry = st.integers(min_value=-bound, max_value=bound)
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda m: tuple(map(tuple, m)))


def assert_canonical_hnf(h):
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            pivots.append(None)
            continue
        assert pivots and pivots[-1] is None or True
        pivots.append(nz[0])
        assert row[nz[0]] > 0
    seen = [p for p in pivots if p is not None]
    assert seen == sorted(seen) and len(set(seen)) == len(seen)
    # zero rows must be at the bottom
    first_zero = next((i for i, p in enumerate(pivots) if p is None), len(pivots))
    assert all(p is None for p in pivots[first_zero:])
    for i, p in enumerate(pivots):
        if p is None:
            continue
        for above in range(i):
            assert 0 <= h[above][p] < h[i][p]


class TestHermite:
    def test_identity(self):
        h, u = hermite_normal_form(identity(3))
        assert h == identity(3)
        assert u == identity(3)

    def test_zero(self):
        z = ((0, 0), (0, 0))
        h, u = hermite_normal_form(z)
        assert h == z
        assert u == identity(2)

    @settings(max_examples=60, deadline=None)
    @given(small_int_matrix(4, 4))
    def test_random_against_oracle(self, m):
        h, u = hermite_normal_form(m)
        assert mat_mul(u, m) == h
        assert abs(bareiss_det(u)) == 1
        assert_canonical_hnf(h)

    @settings(max_examples=30, deadline=None)
    @given(small_int_matrix(3, 5))
    def test_rectangular(self, m):
        h, u = hermite_normal_form(m)
        assert mat_mul(u, m) == h
        assert abs(bareiss_det(u)) == 1


# entries: ints, Fractions with denominators up to 10^6, or a mix of both
ENTRY_KINDS = {
    "int": st.integers(-10**6, 10**6),
    "fraction": st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
}
ENTRY_KINDS["mixed"] = st.one_of(ENTRY_KINDS["int"], ENTRY_KINDS["fraction"])


def entry_matrix(kind, rows, cols):
    return st.lists(
        st.lists(ENTRY_KINDS[kind], min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda m: tuple(map(tuple, m)))


def all_ints(values) -> bool:
    return all(type(x) is int for x in values)


product_operands = st.tuples(
    st.sampled_from(tuple(ENTRY_KINDS)),
    st.sampled_from(tuple(ENTRY_KINDS)),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 4),
).flatmap(
    lambda t: st.tuples(entry_matrix(t[0], t[2], t[3]), entry_matrix(t[1], t[3], t[4]))
)


class TestProductsAgainstReference:
    """mat_mul / mat_vec over one common denominator against the entry-wise sums."""

    @settings(max_examples=300, deadline=None)
    @given(product_operands)
    def test_mat_mul(self, operands):
        a, b = operands
        got = mat_mul(a, b)
        assert got == reference_mat_mul(a, b)
        if all_ints(x for row in a + b for x in row):
            assert all_ints(x for row in got for x in row)

    @settings(max_examples=300, deadline=None)
    @given(product_operands)
    def test_mat_vec(self, operands):
        a, b = operands
        v = tuple(row[0] for row in b) if b and b[0] else tuple(0 for _ in b)
        got = mat_vec(a, v)
        assert got == reference_mat_vec(a, v)
        if all_ints(x for row in a for x in row) and all_ints(v):
            assert all_ints(got)

    @pytest.mark.parametrize(
        "a, b",
        [
            ((), ((1, 2),)),  # 0 x 1 times 1 x 2
            (((),) * 3, ()),  # 3 x 0 times 0 x n
            (((F(-7, 3),),), ((F(9, 14),),)),  # 1 x 1
            (((F(1, 999_983),),), ((-999_979,),)),
            (((2, -3), (0, 5)), ((F(1, 2), 0), (0, F(-1, 10**6)))),
            (((1, 2), (3, 4)), ((-5, 6), (7, -8))),
        ],
    )
    def test_edge_shapes(self, a, b):
        assert mat_mul(a, b) == reference_mat_mul(a, b)
        v = tuple(row[0] for row in b) if b and b[0] else ()
        assert mat_vec(a, v) == reference_mat_vec(a, v)


def sympy_hermite_rows(m):
    """The nonzero rows of the row Hermite form of m, computed by sympy.

    sympy gives the column Hermite form with pivots at the bottom right and
    zero columns dropped; reversing the row and column order of m^T before
    and after maps it to this library's row convention (pivots top left,
    entries above each pivot reduced into [0, pivot)).
    """
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

    flipped = sympy.Matrix([list(reversed(col)) for col in reversed(transpose(m))])
    w = [list(reversed(row)) for row in reversed(sympy_hnf(flipped).tolist())]
    return tuple(tuple(int(x) for x in col) for col in transpose(w)) if w and w[0] else ()


def sympy_smith(m):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_decomp

    s, _, _ = smith_normal_decomp(sympy.Matrix(m), domain=sympy.ZZ)
    return tuple(tuple(int(x) for x in row) for row in s.tolist())


def assert_normal_forms_match_sympy(m):
    h, _ = hermite_normal_form(m)
    assert tuple(row for row in h if any(row)) == sympy_hermite_rows(m)
    _, s, _ = smith_normal_form(m)
    assert s == sympy_smith(m)


def minus_identity(m):
    return tuple(tuple(x - (i == j) for j, x in enumerate(row)) for i, row in enumerate(m))


class TestNormalFormsAgainstSympy:
    @settings(max_examples=120, deadline=None)
    @given(
        st.tuples(st.integers(1, 6), st.integers(1, 6), st.sampled_from((1, 3, 9))).flatmap(
            lambda t: small_int_matrix(*t)
        )
    )
    def test_random_integer_matrices(self, m):
        assert_normal_forms_match_sympy(m)

    @pytest.mark.parametrize("m", [((0,),), ((0, 0, 0), (0, 0, 0)), ((4, 6), (6, 9))])
    def test_degenerate(self, m):
        assert_normal_forms_match_sympy(m)

    @pytest.mark.parametrize("name", list_entries())
    def test_catalog_elements_minus_identity(self, name):
        for e in get_entry(name).build().group.elements:
            assert_normal_forms_match_sympy(minus_identity(e.linear))


class TestSmith:
    def test_diag_2_3(self):
        u, s, v = smith_normal_form(((2, 0), (0, 3)))
        assert (s[0][0], s[1][1]) == (1, 6)

    def test_identity(self):
        u, s, v = smith_normal_form(identity(3))
        assert s == identity(3)

    def test_already_smith(self):
        u, s, v = smith_normal_form(((2, 0), (0, 2)))
        assert (s[0][0], s[1][1]) == (2, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 5).flatmap(lambda n: small_int_matrix(n, n, bound=4)))
    def test_random_against_minor_gcds(self, m):
        n = len(m)
        u, s, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == s
        assert abs(bareiss_det(u)) == 1
        assert abs(bareiss_det(v)) == 1
        diag = [s[i][i] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert s[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
        # product of the first k invariant factors equals the gcd of k x k minors
        prod = 1
        for k, d in enumerate(diag, start=1):
            if d == 0:
                assert minors_gcd(m, k) == 0
                break
            prod *= d
            assert minors_gcd(m, k) == prod


class TestSaturate:
    def test_index_two(self):
        s = Sublattice.from_int_columns(2, [(2, 0)])
        assert saturate(s) == Sublattice.from_int_columns(2, [(1, 0)])

    def test_already_saturated(self):
        s = Sublattice.from_int_columns(3, [(1, 0, 2), (0, 1, 1)])
        assert saturate(s) == s

    def test_enumeration_oracle(self):
        # the inputs are Q-independent, so the Q-span is the whole plane and
        # the saturation is Z^2; the enumeration oracle below pins this down
        s = Sublattice.from_int_columns(2, [(2, 2), (0, 4)])
        sat = saturate(s)
        cols = [tuple(c) for c in s.cols]
        for x in range(-4, 5):
            for y in range(-4, 5):
                if in_span(cols, (x, y)):
                    assert sat.contains((F(x), F(y)))
        assert sat == Sublattice.standard(2)

    def test_enumeration_oracle_rank_one(self):
        # a genuinely non-saturated rank-1 case in the plane
        s = Sublattice.from_int_columns(2, [(2, 4)])
        sat = saturate(s)
        for x in range(-4, 5):
            for y in range(-4, 5):
                if in_span([(2, 4)], (x, y)):
                    assert sat.contains((F(x), F(y)))
        assert sat == Sublattice.from_int_columns(2, [(1, 2)])

    @settings(max_examples=40, deadline=None)
    @given(small_int_matrix(3, 2, bound=4))
    def test_idempotent(self, m):
        cols = [c for c in transpose(m) if any(c)]
        s = Sublattice.from_int_columns(3, cols)
        once = saturate(s)
        assert saturate(once) == once
        assert once.rank == s.rank


class TestKernel:
    def test_zero_matrix(self):
        assert kernel_lattice(((0, 0), (0, 0))) == Sublattice.standard(2)

    def test_identity(self):
        assert kernel_lattice(identity(2)) == Sublattice.zero(2)

    def test_single_equation(self):
        k = kernel_lattice(((1, -1), (0, 0)))
        assert k == Sublattice.from_int_columns(2, [(1, 1)])

    @settings(max_examples=40, deadline=None)
    @given(small_int_matrix(3, 4, bound=3))
    def test_kernel_is_kernel(self, m):
        k = kernel_lattice(m)
        for col in k.cols:
            assert all(sum(a * b for a, b in zip(row, col)) == 0 for row in m)
        assert is_saturated(k)


class TestQuotient:
    def test_two_squared(self):
        g = quotient_group(Sublattice.standard(2), Sublattice.from_int_columns(2, [(2, 0), (0, 2)]))
        assert g.invariant_factors == (2, 2)
        assert g.order == 4

    def test_trivial(self):
        g = quotient_group(Sublattice.standard(2), Sublattice.standard(2))
        assert g.invariant_factors == ()
        assert g.order == 1

    def test_half_vector_lattice(self):
        # Z^4 extended by (1/2, 1/2, 0, 0) over Z^4: one factor of 2
        big = Sublattice.from_rat_columns(
            4,
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
             (F(1, 2), F(1, 2), 0, 0)],
        )
        small = Sublattice.standard(4)
        g = quotient_group(big, small)
        assert g.invariant_factors == (2,)
        assert small.sum(Sublattice.from_rat_columns(4, g.generators)) == big
        assert g.generators[0] == (F(1, 2), F(1, 2), 0, 0)

    def test_order_is_det_of_change_of_basis(self):
        big = Sublattice.standard(3)
        small = Sublattice.from_int_columns(3, [(2, 1, 0), (0, 3, 1), (0, 0, 2)])
        g = quotient_group(big, small)
        assert g.order == abs(bareiss_det(transpose(small.cols)))

    def test_errors(self):
        with pytest.raises(LatticeError):
            quotient_group(Sublattice.standard(2), Sublattice.from_int_columns(2, [(1, 0)]))
        with pytest.raises(LatticeError):
            quotient_group(
                Sublattice.from_int_columns(2, [(2, 0), (0, 2)]),
                Sublattice.from_int_columns(2, [(1, 0), (0, 3)]),
            )


class TestIntegerSolution:
    def test_rational_projection(self):
        # P0 for V0 = span (1, 1) along V1 = span (1, -1), times den = 2
        hermite = column_hermite(((1, 1), (1, 1)))
        x = integer_solution(hermite, (F(1), F(1)))
        assert x is not None and mat_vec(((1, 1), (1, 1)), x) == (1, 1)
        assert integer_solution(hermite, (F(1, 2), F(1, 2))) is None
        assert integer_solution(hermite, (F(1), F(2))) is None

    def test_zero_matrix(self):
        hermite = column_hermite(((0, 0), (0, 0)))
        assert integer_solution(hermite, (F(0), F(0))) == (0, 0)
        assert integer_solution(hermite, (F(0), F(1))) is None

    @settings(max_examples=60, deadline=None)
    @given(
        small_int_matrix(3, 3, bound=3),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
        st.booleans(),
    )
    def test_against_bounded_enumeration(self, m, x0, solvable):
        import itertools

        b = mat_vec(m, x0) if solvable else tuple(x0)
        got = integer_solution(column_hermite(m), tuple(F(x) for x in b))
        if got is not None:
            assert mat_vec(m, got) == tuple(b)
        found = any(
            mat_vec(m, z) == tuple(b)
            for z in itertools.product(range(-3, 4), repeat=3)
        )
        # a solution in the box means the solver must find one (perhaps another)
        if found:
            assert got is not None


class TestCosetMeetsLattice:
    def test_fixed_half_coordinate(self):
        w = Sublattice.from_int_columns(2, [(1, 0)])
        assert coset_meets_lattice(w, (F(0), F(1, 2))) is False

    def test_lands_on_integer(self):
        w = Sublattice.from_int_columns(2, [(1, 0)])
        assert coset_meets_lattice(w, (F(1, 3), F(1))) is True

    def test_rank_zero(self):
        w = Sublattice.zero(2)
        assert coset_meets_lattice(w, (F(1), F(2))) is True
        assert coset_meets_lattice(w, (F(1, 2), F(0))) is False

    @settings(max_examples=50, deadline=None)
    @given(
        small_int_matrix(4, 2, bound=2),
        st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=12),
            min_size=4, max_size=4,
        ),
    )
    def test_against_bounded_enumeration(self, m, tvec):
        cols = [c for c in transpose(m) if any(c)]
        w = Sublattice.from_int_columns(4, cols)
        t = tuple(tvec)
        got = coset_meets_lattice(w, t)
        # bounded enumeration oracle: z - t must lie in the span; the box is
        # large enough for these entry/denominator bounds (|B| <= 2, den <= 12)
        radius = 3
        found = False
        import itertools

        for z in itertools.product(range(-radius, radius + 1), repeat=4):
            diff = tuple(F(zi) - ti for zi, ti in zip(z, t))
            if in_span([tuple(c) for c in w.cols], diff):
                found = True
                break
        if found:
            assert got is True
        if not got:
            assert not found
