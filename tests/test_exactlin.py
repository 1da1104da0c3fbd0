import itertools
import json
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bareiss_det, in_span, left_kernel, minors_gcd
from helpers import (
    basis_vectors,
    contains,
    coset_meets_lattice,
    from_rat_columns,
    generator_vectors,
    integer_solution,
    is_saturated,
    mat_inv,
    over_common_denominator,
    reference_mat_mul,
    reference_mat_vec,
    saturate,
)
from hyperelliptic.catalog import get_entry, list_entries
from hyperelliptic.errors import InternalError, InvalidDatum
from hyperelliptic.exactlin import (
    Sublattice,
    column_hermite,
    format_rational,
    hermite_normal_form,
    identity,
    is_singular,
    is_unimodular,
    kernel_lattice,
    mat_mul,
    mat_vec,
    quotient_group,
    smith_normal_form,
    transpose,
)

F = Fraction
ROW_CHURN = Path(__file__).resolve().parent / "row_churn.py"


def list_rows(m):
    """m with list rows, the form the kernels pass to each other."""
    return [list(row) for row in m]


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
        assert h == list_rows(identity(3))
        assert u == list_rows(identity(3))

    def test_zero(self):
        z = ((0, 0), (0, 0))
        h, u = hermite_normal_form(z)
        assert h == list_rows(z)
        assert u == list_rows(identity(2))

    @settings(max_examples=60, deadline=None)
    @given(small_int_matrix(4, 4))
    def test_random_against_oracle(self, m):
        h, u = hermite_normal_form(m)
        assert list_rows(mat_mul(u, m)) == h
        assert abs(bareiss_det(u)) == 1
        assert_canonical_hnf(h)
        assert hermite_normal_form(list_rows(m)) == (h, u)

    @settings(max_examples=30, deadline=None)
    @given(small_int_matrix(3, 5))
    def test_rectangular(self, m):
        h, u = hermite_normal_form(m)
        assert list_rows(mat_mul(u, m)) == h
        assert abs(bareiss_det(u)) == 1
        assert hermite_normal_form(list_rows(m)) == (h, u)


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


def columns_of(b):
    """The columns of b, or one zero column when b has none, so a product is always read."""
    return transpose(b) or (tuple(0 for _ in b),)


int_product_operands = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda t: st.tuples(entry_matrix("int", t[0], t[1]), entry_matrix("int", t[1], t[2]))
)


class TestProductsAgainstReference:
    """mat_mul and mat_vec, the integer products, against entry-wise sums.

    The rational products they no longer take are the references' alone:
    `TestOverCommonDenominator` reads them as integer products over one
    denominator.
    """

    @settings(max_examples=300, deadline=None)
    @given(int_product_operands)
    def test_mat_mul(self, operands):
        a, b = operands
        got = mat_mul(a, b)
        assert got == reference_mat_mul(a, b)
        assert all_ints(x for row in got for x in row)

    @settings(max_examples=300, deadline=None)
    @given(int_product_operands)
    def test_mat_vec(self, operands):
        a, b = operands
        product = mat_mul(a, b)
        for j, v in enumerate(columns_of(b)):
            got = mat_vec(a, v)
            assert got == reference_mat_vec(a, v)
            if b and b[0]:
                assert got == tuple(row[j] for row in product)
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
        product = reference_mat_mul(a, b)
        for j, v in enumerate(columns_of(b)):
            if b and b[0]:
                assert reference_mat_vec(a, v) == tuple(row[j] for row in product)
        if all_ints(x for row in a + b for x in row):
            assert mat_mul(a, b) == product
            for v in columns_of(b):
                assert mat_vec(a, v) == reference_mat_vec(a, v)


class TestOverCommonDenominator:
    """The one scaler: integer rows over the least common denominator."""

    @settings(max_examples=300, deadline=None)
    @given(product_operands)
    def test_integral_minimal_and_products_unchanged(self, operands):
        a, b = operands
        bt = transpose(b)
        scaled = []
        for m in (a, bt):
            den, rows = over_common_denominator(m)
            assert type(den) is int and den >= 1
            if all_ints(x for row in m for x in row):
                assert den == 1 and rows == [list(row) for row in m]
            assert all_ints(y for row in rows for y in row)
            assert all(F(y, den) == x for r, row in zip(rows, m) for y, x in zip(r, row))
            # den is the least common denominator iff no prime divides it
            # and every scaled entry
            assert gcd(den, *(y for row in rows for y in row)) == 1
            scaled.append((den, rows))
        (da, ia), (db, ib) = scaled
        products = tuple(
            tuple(F(sum(x * y for x, y in zip(r, c)), da * db) for c in ib) for r in ia
        )
        integer_product = mat_mul(ia, transpose(ib))
        assert products == reference_mat_mul(a, b)
        assert tuple(tuple(F(x, da * db) for x in row) for row in integer_product) == products
        # a rational vector is scaled once, as the library's callers do
        v = bt[0] if bt else tuple(0 for _ in b)
        dv, (iv,) = over_common_denominator((v,))
        assert tuple(F(x, da * dv) for x in mat_vec(ia, iv)) == reference_mat_vec(a, v)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
@example(0, 7)
@example(-6, 4)
def test_format_rational_writes_what_fraction_writes(x, den):
    # reports write (den, integers) in integers; the text is the one a Fraction prints
    assert format_rational(x, den) == str(F(x, den))


class TestSublatticeDenominator:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.lists(st.fractions(-3, 3, max_denominator=12), min_size=n, max_size=n),
                    max_size=5,
                ),
            )
        )
    )
    def test_hermite_columns_share_no_factor_with_den(self, case):
        """A lattice from rational generators needs no gcd reduction: gcd(den, entries) == 1.

        den is 1 or the least common denominator D of the generators, and the
        Hermite columns span the same Z-module as the scaled generators D x.
        If a prime p divided D and every Hermite entry, it would divide every
        entry of every D x.  Take an entry x = a/b in lowest terms with
        v_p(b) = v_p(D) > 0: then D x = a (D/b) is prime to p, a contradiction.
        """
        n, vectors = case
        lat = from_rat_columns(n, vectors)
        assert gcd(lat.den, *(x for c in lat.cols for x in c)) == 1


def square_matrices(kind="int", bound=2):
    if kind == "int":
        return st.integers(0, 5).flatmap(lambda n: small_int_matrix(n, n, bound=bound))
    entry = st.builds(F, st.integers(-bound, bound), st.integers(1, 6))
    return st.integers(0, 5).flatmap(
        lambda n: st.lists(
            st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(lambda m: tuple(map(tuple, m)))
    )


class TestHermiteDecisions:
    """is_unimodular and is_singular read the Hermite form; Bareiss computes the determinant."""

    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    @example(())
    @example(((2, 1), (1, 1)))
    @example(((0, 1, 0), (0, 0, -1), (1, 0, 0)))
    @example(((2, 0), (0, 1)))
    @example(((1, 2), (2, 4)))
    def test_integer_matrices_against_bareiss(self, m):
        det = bareiss_det(m)
        assert is_unimodular(m) == (abs(det) == 1)
        assert is_singular(m) == (det == 0)

    @settings(max_examples=200, deadline=None)
    @given(square_matrices("fraction"))
    @example(((F(1, 2), F(1, 3)), (F(3, 2), F(1))))
    @example(((F(0), F(1, 2)), (F(-1, 2), F(0))))
    def test_rational_singularity_against_bareiss(self, m):
        # is_singular takes integer matrices: m over its common denominator;
        # scaling row i by the lcm of its own denominators keeps det == 0 or != 0
        _, scaled = over_common_denominator(m)
        assert is_singular(scaled) == (bareiss_det(row_scaled(m)) == 0)


def row_scaled(m):
    """m with each row scaled by the lcm of its own denominators: det stays 0 or != 0."""
    rows = []
    for row in m:
        d = lcm(*(F(x).denominator for x in row)) if row else 1
        rows.append(tuple(int(x * d) for x in row))
    return rows


def unimodular_matrices(max_n=5):
    """Products of random elementary integer row operations: add c * row j, swap, negate."""
    def build(case):
        n, ops = case
        u = [list(row) for row in identity(n)]
        for kind, i, j, c in ops:
            i, j = i % n, j % n
            if kind == 0 and i != j:
                u[i] = [x + c * y for x, y in zip(u[i], u[j])]
            elif kind == 1:
                u[i], u[j] = u[j], u[i]
            elif kind == 2:
                u[i] = [-x for x in u[i]]
        return tuple(map(tuple, u))

    op = st.tuples(st.integers(0, 2), st.integers(0, 4), st.integers(0, 4), st.integers(-3, 3))
    return st.tuples(st.integers(1, max_n), st.lists(op, max_size=12)).map(build)


class TestInverse:
    """The reference mat_inv is D v h^-1 off column_hermite(D m) = (h, v); checked by products."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.builds(F, st.integers(-3, 3), st.integers(1, 6)),
                         min_size=n, max_size=n),
                min_size=n, max_size=n,
            ).map(lambda m: tuple(map(tuple, m)))
        )
    )
    @example(((F(1, 2),),))
    @example(((F(0), F(1)), (F(1), F(0))))  # no pivot on the diagonal
    @example(((F(2), F(1)), (F(1), F(1))))  # unimodular: the inverse is integral
    def test_two_sided_inverse(self, m):
        if bareiss_det(row_scaled(m)) == 0:
            with pytest.raises(InvalidDatum, match="singular"):
                mat_inv(m)
            return
        inv = mat_inv(m)
        n = len(m)
        assert reference_mat_mul(m, inv) == identity(n) == reference_mat_mul(inv, m)
        assert all(type(x) is F for row in inv for x in row)

    @pytest.mark.parametrize(
        "m",
        [
            ((0, 0), (0, 0)),
            ((1, 2, 3), (0, 0, 0), (4, 5, 7)),
            ((F(1, 2), 3, 1), (1, 1, 1), (F(1, 2), 3, 1)),
        ],
        ids=["zero-matrix", "zero-row", "equal-rows"],
    )
    def test_singular_raises(self, m):
        with pytest.raises(InvalidDatum, match="singular"):
            mat_inv(m)

    def test_empty(self):
        assert mat_inv(()) == ()

    @settings(max_examples=100, deadline=None)
    @given(unimodular_matrices())
    @example(((0, 1), (1, 0)))
    @example(((-1,),))
    def test_row_form_of_unimodular_is_identity_and_inverse(self, u):
        # quotient_group reads the inverse of the Smith form's u this way
        n = len(u)
        h, u_inv = hermite_normal_form(u)
        assert h == list_rows(identity(n))
        assert reference_mat_mul(u_inv, u) == identity(n) == reference_mat_mul(u, u_inv)
        assert u_inv == list_rows(mat_inv(u))


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
    """sympy's forms for m, and the same forms for m's rows as lists."""
    h, u = hermite_normal_form(m)
    assert [row for row in h if any(row)] == list_rows(sympy_hermite_rows(m))
    assert hermite_normal_form(list_rows(m)) == (h, u)
    v, s = smith_normal_form(m)
    assert s == list_rows(sympy_smith(m))
    assert smith_normal_form(list_rows(m)) == (v, s)
    assert column_hermite(list_rows(m)) == column_hermite(m)


def minus_identity(m):
    return tuple(tuple(x - (i == j) for j, x in enumerate(row)) for i, row in enumerate(m))


class TestScaledHermite:
    """column_hermite(c m) = (c h, v) for column_hermite(m) = (h, v) and c >= 1.

    Euclid's steps on (c a, c b) are its steps on (a, b): the divisibility
    tests, the quotients floor(c a / c b) = floor(a / b), the signs and the
    reductions above each pivot all agree, so only h is scaled.  The group
    sum S = (|G|/D) D P0 reaches its form this way.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(st.integers(1, 6), st.integers(1, 6), st.sampled_from((1, 3, 9))).flatmap(
            lambda t: small_int_matrix(*t)
        ),
        st.integers(1, 24),
    )
    @example(((0, 0), (0, 0)), 4)
    @example(((2, 1), (4, 3)), 6)
    @example(((1, 1), (1, 1)), 2)  # 2 P0 for P0 = (1/2) [[1, 1], [1, 1]]: S of Z/2 swapping
    def test_scaling_commutes_with_column_hermite(self, m, c):
        h, v = column_hermite(m)
        scaled = tuple(tuple(c * x for x in row) for row in m)
        assert column_hermite(scaled) == (tuple(tuple(c * x for x in row) for row in h), v)
        assert column_hermite(list_rows(scaled)) == column_hermite(scaled)


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
        _, s = smith_normal_form(((2, 0), (0, 3)))
        assert (s[0][0], s[1][1]) == (1, 6)

    def test_identity(self):
        _, s = smith_normal_form(identity(3))
        assert s == list_rows(identity(3))

    def test_already_smith(self):
        _, s = smith_normal_form(((2, 0), (0, 2)))
        assert (s[0][0], s[1][1]) == (2, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
            lambda t: small_int_matrix(*t, bound=4)
        )
    )
    # a divisibility fix-up once left these two off the diagonal
    @example(((-2, -3, 4, 0, 1), (-1, 1, -2, -2, -1), (-2, -3, -2, 0, 1),
              (-1, -2, 2, 4, 3), (-4, -3, -2, 4, 4)))
    @example(((-4, 3, 2, -1), (2, -1, 4, 4), (-2, 4, 4, 2), (4, 0, -4, 0)))
    # diag(3, 2) after the first Hermite rounds: a fix-up that adds row t + 1
    # to row t, not column t + 1 to column t, cycles on these two
    @example(((-3, 0, -3, 3, 3), (3, 2, -1, -3, 3)))
    @example(((3, 0), (0, 2)))
    def test_random_against_minor_gcds(self, m):
        rows, cols = len(m), len(m[0])
        u, s = smith_normal_form(m)
        assert smith_normal_form(list_rows(m)) == (u, s)
        # u @ m @ v == s for some unimodular v iff the canonical column
        # Hermite forms of u @ m and s agree
        assert len(u) == rows and all(len(row) == rows for row in u)
        assert len(s) == rows and all(len(row) == cols for row in s)
        assert column_hermite(mat_mul(u, m))[0] == column_hermite(s)[0]
        assert abs(bareiss_det(u)) == 1
        diag = [s[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
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


def test_kernels_leave_no_dead_rank_20_rows():
    # CPython 3.11 keeps every freed tuple of size 20 on its freelist for
    # good, so a kernel that builds a rank-20 row it then drops leaks it;
    # each kernel, run once on a 20 x 20 unimodular matrix or a rank-20
    # lattice in a fresh interpreter, may leave only a handful
    run = subprocess.run([sys.executable, str(ROW_CHURN), "--kernels"],
                         capture_output=True, text=True, check=True)
    parked = json.loads(run.stdout)
    if None in parked.values():
        pytest.skip("sys._debugmallocstats() prints no count of free size-20 tuples")
    assert len(parked) == 8
    assert {name: n for name, n in parked.items() if n > 2} == {}


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
                    assert contains(sat, (F(x), F(y)))
        assert sat == Sublattice.standard(2)

    def test_enumeration_oracle_rank_one(self):
        # a genuinely non-saturated rank-1 case in the plane
        s = Sublattice.from_int_columns(2, [(2, 4)])
        sat = saturate(s)
        for x in range(-4, 5):
            for y in range(-4, 5):
                if in_span([(2, 4)], (x, y)):
                    assert contains(sat, (F(x), F(y)))
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
        assert kernel_lattice(identity(2)) == Sublattice(2, 1, ())

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
        big = from_rat_columns(
            4,
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
             (F(1, 2), F(1, 2), 0, 0)],
        )
        small = Sublattice.standard(4)
        g = quotient_group(big, small)
        assert g.invariant_factors == (2,)
        assert from_rat_columns(4, basis_vectors(small) + generator_vectors(g)) == big
        assert g.generators[0] == (2, (1, 1, 0, 0))

    def test_order_is_det_of_change_of_basis(self):
        big = Sublattice.standard(3)
        small = Sublattice.from_int_columns(3, [(2, 1, 0), (0, 3, 1), (0, 0, 2)])
        g = quotient_group(big, small)
        assert g.order == abs(bareiss_det(transpose(small.cols)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.fractions(-2, 2, max_denominator=6), min_size=n, max_size=n),
                    max_size=3,
                ),
                small_int_matrix(n, n, bound=4),
            )
        )
    )
    def test_random_big_over_small(self, case):
        # big = Z^n + the extra vectors; small has basis c @ (a basis of big),
        # so [big : small] = |det c|
        extra, c = case
        n = len(c)
        big = from_rat_columns(n, list(identity(n)) + extra)
        basis = basis_vectors(big)
        small_basis = [tuple(sum(x * b[t] for x, b in zip(row, basis)) for t in range(n))
                       for row in c]
        small = from_rat_columns(n, small_basis)
        if small.rank < n:
            with pytest.raises(InternalError, match="^quotient is infinite: ranks differ$"):
                quotient_group(big, small)
            return
        g = quotient_group(big, small)
        assert g.order == abs(bareiss_det(c))
        assert all(d > 1 for d in g.invariant_factors)
        assert all(b % a == 0 for a, b in zip(g.invariant_factors, g.invariant_factors[1:]))
        gens = generator_vectors(g)
        for d, gen in zip(g.invariant_factors, gens, strict=True):
            assert contains(big, gen)
            multiples = [contains(small, tuple(k * x for x in gen)) for k in range(1, d + 1)]
            assert multiples == [False] * (d - 1) + [True]
        assert from_rat_columns(n, basis_vectors(small) + gens) == big

    def test_errors(self):
        with pytest.raises(InternalError, match="^quotient is infinite: ranks differ$"):
            quotient_group(Sublattice.standard(2), Sublattice.from_int_columns(2, [(1, 0)]))
        with pytest.raises(InternalError, match="^small lattice is not contained in big lattice$"):
            quotient_group(
                Sublattice.from_int_columns(2, [(2, 0), (0, 2)]),
                Sublattice.from_int_columns(2, [(1, 0), (0, 3)]),
            )


class TestIntegerSolution:
    """The integer solve behind `helpers.h_by_solve`, the reference for H."""

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
        w = Sublattice(2, 1, ())
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
        # bounded enumeration oracle: z - t must lie in the span, that is, every
        # row y of its left kernel has y . z == y . t; the box is large enough
        # for these entry/denominator bounds (|B| <= 2, den <= 12)
        radius = 3
        kernel = left_kernel([tuple(c) for c in w.cols], 4)
        targets = [sum(y * ti for y, ti in zip(row, t)) for row in kernel]
        found = any(
            all(sum(map(mul, row, z)) == target for row, target in zip(kernel, targets))
            for z in itertools.product(range(-radius, radius + 1), repeat=4)
        )
        if found:
            assert got is True
        if not got:
            assert not found
