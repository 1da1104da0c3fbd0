"""Helpers only the tests use, kept out of the library.

Each was a library method or function that no library code called: lattice
saturation, lattice membership and basis matrices, the coset-meets-lattice
decision, the torsion model's orbit enumeration, the direct fixed-point loop,
the survey's "every count exhaustive" flag, the two-branch fixed-point survey,
the index of a torus lattice over the product lattice, the eigenvalue
check on every element, the Albanese projectors from the inverse of the
basis [Lambda_0 | Lambda_1], Lambda_0 from the generators' rows, the t0
table of every element, H by one integer solve per element, `integer_solution`,
the solve it calls, a fiber translation's coordinates by the rational left
inverse (B^T B)^-1 B^T of the fiber basis, factor alignment decided in
product coordinates, `compose`, the product of two
elements in `Fraction` arithmetic, which `close_group` no longer calls,
`reference_close_group`, the closure that formed every product M_e M_s as a
dense rank x rank matrix before `close_group` began to read each generator
by its nonzero columns, and
`element_keys` and `element_index`, which compare elements by key in place
of the equality `AffineAut` had, and `factor_key` and `torus_key`, which
compare factors and tori by the fields the library reads in place of the
equality `EllipticFactor` and `TorusDatum` had.  The coset decision, the
direct loop, the two-branch survey, the every-element eigenvalue loop, the
basis-inverse projectors, the generator rows, the t0 table, the per-element
solve, the rational left inverse, the product-coordinate alignment and
`compose` are the references the library's one Hermite form per element,
meet-in-the-middle count, one survey loop, eigenvalues by construction,
group average, kernel of I - P0, t0 on the generators, walk of the Cayley
tree, integer left inverse of the fiber basis, alignment in lattice
coordinates and integer closure are checked against.
`vec_mod1`, `frac_mod1` and `vec_denominator` reduce a translation mod 1 in
`Fraction` arithmetic, and `model_actions` reads the torsion model's N t as
int(t * N): they are the references for an element's integer `den` and
`shift` and for `build_model`'s (N // den) shift.  `members_of` gives
`rewrite_on_lattice` every element of a group.
`mat_inv`, the exact inverse of a rational matrix, and `fixed_projector`,
the group average P0 as a `Fraction` matrix, left the library when every
matrix it multiplies became an integer matrix: they are the references for
`TorusDatum.lam_basis_inv` and for the group sum S = |G| P0 that
`Decomposition` keeps.  `proj0` reads P0 = S/|G| off a decomposition,
`lam_basis` gives a torus lattice's basis as a `Fraction` matrix, and
`reference_mat_mul` and `reference_mat_vec` multiply matrices and vectors of
any entry type one entry at a time: the library's `mat_mul` and `mat_vec`
take integers only.  `translation` reads an element's translation t =
shift / den as a `Fraction` vector, which the library, reading the integers
over den, never forms.
`lattice_coords` is the rational reference for the integer product that
carries a builder translation into lattice coordinates, and `ring_block` the
reference for each entry of `torus.FACTOR_KINDS`: the block of
multiplication by a + b*tau in the ring of the factor's kind.
`block_eigenvalues` reads the units off a factor-torus linear part's blocks
in product coordinates, as `close_group` did in integers before a builder
generator began to carry the units it was made from: it is the reference
for those units and for the factorwise products every element carries.
`reference_hermite_coords`, `reference_coords_of`, `reference_reduce_mod`
and `reference_quotient_group` are the `Fraction` forms of the lattice
routines, which the library runs on (den, integers) vectors: the references
`tests/test_integer_lattices.py` checks them against.  `rational`,
`basis_vectors`, `generator_vectors` and `t0_vectors` read such vectors as
`Fraction` vectors, and `as_pair` and `basis_pairs` write them: the tests
hand the library a rational vector as `as_pair` writes it, and rational rows
(k generators, a form) as `over_common_denominator` writes them, since the
library's constructors take integers only, as a parsed document gives them.
`from_rat_columns`, the lattice of rational vectors, left the library with
its last library caller, when the parser began to hand `build_product_torus`
integer rows: it is the reference the tests build expected lattices with.
`scaled_mod1`, `vec_is_integral` and `vec_sub` left the library with their
last library readers.  `over_common_denominator`, which writes `Fraction`
rows as integers over their least common denominator, left it when the
parser began to read a document's rationals straight into integers.
`three_curve_document` writes the documents of the fiber-basis sweep,
`side_by_side` a builder document for copies of a variety side by side, and
`raw_document` a datum as a raw document that lists every element.
`conjugated` writes a datum in another lattice basis, one that `base_change`
gives: the tests' metamorphic family, and a fiber that is not aligned with
the factors for `tests/output_digest.py`.
`reference_classify_fiber` is the fiber's class read off the rewritten fiber
datum's own group, the reference for `classify_fiber`'s reading of H on G's
Cayley table.  `fiber_datum` builds a report's fiber datum as the recursion
would, since the pipeline builds it only where the recursion descends, and
`fiber_basis` is the basis that fiber is written in.  `pipeline_chain` walks
the recursion, and `chain_data` adds each level's fiber datum to it.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm
from operator import mul

from conftest import bareiss_det
from hyperelliptic.action import (
    DEFAULT_CLOSURE_CAP,
    ActionGroup,
    AffineAut,
    HyperellipticDatum,
    _check_eigenvalues,
    _eigenvalues_from_char_poly,
    affine_identity,
    close_group,
    quotient_by_translations,
    validate,
)
from hyperelliptic.albanese import (
    FiberClassification,
    _abelian_invariant_factors,
    compute_A0,
    compute_fiber,
    compute_K,
    fiber_eigenvalues,
    group_sum,
    run_pipeline,
)
from hyperelliptic.documents import format_vector
from hyperelliptic.errors import CapReached, InternalError, InvalidDatum
from hyperelliptic.exactlin import (
    FiniteAbelianGroup,
    Sublattice,
    column_hermite,
    column_lists,
    hermite_normal_form,
    identity,
    is_unimodular,
    kernel_lattice,
    list_product,
    mat_mul,
    mat_vec,
    reduced_mod1,
    smith_normal_form,
    transpose,
)
from hyperelliptic.oracle import (
    DEFAULT_POINT_CAP,
    FixedPointCheck,
    FixedPointSurvey,
    _split_grid_size,
    build_model,
    datum_denominator,
    element_level_bound,
    formula_level,
    oracle_fixed_points,
)
from hyperelliptic.torus import (
    AlternatingForm,
    TorusDatum,
    factor_block_eigenvalue,
    factor_plane_columns,
)

ORBIT_ENUMERATION_LIMIT = 500_000


def reference_mat_mul(a, b):
    """The plain product, one entry at a time: sum(x * y) over the operands' own types."""
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def reference_mat_vec(a, v):
    """The plain product of a matrix and a vector, one entry at a time, over their own types."""
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def rational(den: int, v) -> tuple[Fraction, ...]:
    """The vector v / den of a (den, integers) pair, as a `Fraction` vector."""
    return tuple(Fraction(x, den) for x in v)


def scaled_mod1(v) -> tuple[int, tuple[int, ...]]:
    """(D, D v mod D), D the least positive integer with D v integral: equal iff v is mod 1."""
    return reduced_mod1(*as_pair(v))


def over_common_denominator(rows):
    """(D, integer rows) with rows == integer rows / D for the least positive integer D.

    D is the lcm of the entry denominators (1 for int entries), so each
    integer entry is numerator * (D // denominator).
    """
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def as_pair(v) -> tuple[int, tuple[int, ...]]:
    """A rational vector as (den, integers), den the lcm of its entries' denominators."""
    den, (scaled,) = over_common_denominator((v,))
    return den, tuple(scaled)


def from_rat_columns(ambient_rank: int, vectors) -> Sublattice:
    """The lattice spanned by rational vectors: their integers over one den, in Hermite form."""
    for v in vectors:
        if len(v) != ambient_rank:
            raise InternalError("vector length does not match ambient rank")
    den, cols = over_common_denominator(vectors)
    return Sublattice.from_int_columns(ambient_rank, cols, den)


def basis_vectors(s: Sublattice) -> tuple[tuple[Fraction, ...], ...]:
    """A lattice's basis vectors, its columns over its den, as `Fraction` vectors."""
    return tuple(rational(s.den, c) for c in s.cols)


def basis_pairs(s: Sublattice) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """A lattice's basis vectors as (den, integers) pairs, the form group generators take."""
    return tuple((s.den, c) for c in s.cols)


def t0_vectors(t0) -> tuple[tuple[Fraction, ...], ...]:
    """`decompose_cocycle`'s (den, rows), one row per generator, as `Fraction` vectors."""
    den, rows = t0
    return tuple(rational(den, row) for row in rows)


def generator_vectors(group: FiniteAbelianGroup) -> tuple[tuple[Fraction, ...], ...]:
    """A finite abelian group's generators, (den, integers) pairs, as `Fraction` vectors."""
    return tuple(rational(den, v) for den, v in group.generators)


def vec_is_integral(v) -> bool:
    return all(Fraction(x).denominator == 1 for x in v)


def vec_sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def reference_hermite_coords(cols, target) -> list[Fraction] | None:
    """Rational y with sum_j y[j] * cols[j] == target, or None outside the columns' span.

    The `Fraction` back-substitution `exactlin.hermite_coords` replaced: the
    nonzero integer columns are in column-Hermite form, so y is read off one
    pivot at a time.
    """
    target = list(target)
    y = []
    for col in cols:
        pivot = next(i for i, x in enumerate(col) if x)
        c = Fraction(target[pivot], col[pivot])
        y.append(c)
        if c:
            for i, x in enumerate(col):
                target[i] -= c * x
    return None if any(target) else y


def reference_coords_of(s: Sublattice, v) -> tuple[Fraction, ...] | None:
    """Rational coordinates of the rational vector v in s's basis, or None outside the span."""
    if len(v) != s.ambient_rank:
        raise InternalError("vector length does not match ambient rank")
    coords = reference_hermite_coords(s.cols, [x * s.den for x in v])
    return None if coords is None else tuple(coords)


def reference_reduce_mod(s: Sublattice, v) -> tuple[Fraction, ...]:
    """Canonical representative of the rational vector v modulo s, in `Fraction` arithmetic."""
    coords = reference_coords_of(s, v)
    if coords is None:
        raise InternalError("vector is outside the lattice span")
    rep = tuple(map(Fraction, v))
    for c, b in zip(coords, basis_vectors(s)):
        whole = c.numerator // c.denominator
        if whole:
            rep = vec_sub(rep, [whole * x for x in b])
    return rep


def reference_quotient_group(big: Sublattice, small: Sublattice):
    """(invariant factors, generators as `Fraction` vectors) of big/small, as `quotient_group` was.

    small's basis in big's coordinates goes to the Smith form u x v = s, and
    generator i is the big-vector of column i of u^-1, reduced modulo small,
    for each invariant factor s[i][i] > 1.
    """
    if big.ambient_rank != small.ambient_rank:
        raise InternalError("ambient ranks differ")
    if big.rank != small.rank:
        raise InternalError("quotient is infinite: ranks differ")
    k = big.rank
    if k == 0:
        return (), ()
    coord_cols = []
    for b in basis_vectors(small):
        coords = reference_coords_of(big, b)
        if coords is None or not all(c.denominator == 1 for c in coords):
            raise InternalError("small lattice is not contained in big lattice")
        coord_cols.append(tuple(int(c) for c in coords))
    u, s = smith_normal_form(transpose(tuple(coord_cols)))
    u_inv = hermite_normal_form(u)[1]
    factors = []
    gens = []
    big_basis = basis_vectors(big)
    for i in range(k):
        d = s[i][i]
        if d == 0:
            raise InternalError("small lattice does not have finite index")
        if d == 1:
            continue
        coeffs = tuple(u_inv[r][i] for r in range(k))
        gen = tuple(
            sum(c * b[t] for c, b in zip(coeffs, big_basis)) for t in range(big.ambient_rank)
        )
        factors.append(int(d))
        gens.append(reference_reduce_mod(small, gen))
    return tuple(factors), tuple(gens)


def translation(e: AffineAut) -> tuple[Fraction, ...]:
    """An element's translation t = shift / den in [0, 1)^rank, as a `Fraction` vector."""
    return tuple(Fraction(x, e.den) for x in e.shift)


def lattice_coords(t, v) -> tuple[Fraction, ...]:
    """A product-coordinate vector in t's lattice coordinates, in `Fraction` arithmetic."""
    return reference_mat_vec(t.lam_basis_inv, tuple(map(Fraction, v)))


def ring_block(kind: str, a: int, b: int):
    """Multiplication by a + b*tau on the basis (1, tau) of a factor of the kind.

    A generic factor's ring is Z, so b is 0 there; tau = i on the Gauss curve
    and tau = zeta3, with zeta3^2 = -1 - zeta3, on the Eisenstein curve.
    """
    return {
        "generic": ((a, 0), (0, a)),
        "gauss": ((a, -b), (b, a)),
        "eisenstein": ((a, -b), (b, a - b)),
    }[kind]


def block_eigenvalues(torus, linear) -> tuple:
    """The unit of each diagonal 2x2 block of a factor-torus linear part M, in factor order.

    In product coordinates M is L M L^-1, for Lambda's basis L = C / den: an
    integer matrix, block-diagonal in units' table entries.
    """
    basis = lam_basis(torus)
    m = reference_mat_mul(reference_mat_mul(basis, linear), mat_inv(basis))
    assert all(x.denominator == 1 for row in m for x in row)
    assert all(m[i][j] == 0 for i in range(len(m)) for j in range(len(m)) if i // 2 != j // 2)
    return tuple(
        factor_block_eigenvalue(
            f, ((int(m[2 * k][2 * k]), int(m[2 * k][2 * k + 1])),
                (int(m[2 * k + 1][2 * k]), int(m[2 * k + 1][2 * k + 1])))
        )
        for k, f in enumerate(torus.factors)
    )


def mat_inv(m):
    """Exact inverse of a square rational matrix (InvalidDatum if singular).

    For m = a / D with a integral, column_hermite(a) = (h, v) has a v = h, so
    m^-1 = v (D h^-1), and column j of D h^-1 is read off h's pivots.
    """
    d, a = over_common_denominator(m)
    h, v = column_hermite(a)
    cols = transpose(h)
    if not all(map(any, cols)):
        raise InvalidDatum("matrix is singular")
    scaled = [reference_hermite_coords(cols, [d * x for x in e]) for e in identity(len(m))]
    return transpose([reference_mat_vec(v, y) for y in scaled])


def lam_basis(t):
    """A torus lattice's basis as a `Fraction` matrix: columns C / den, its Hermite columns."""
    return transpose(basis_vectors(t.lattice))


def fixed_projector(d):
    """P0 = (1/|G|) sum_g M_g as a `Fraction` matrix, the group average over the closed group."""
    order = d.group.order
    return tuple(
        tuple(Fraction(sum(column), order) for column in zip(*rows))
        for rows in zip(*(e.linear for e in d.group.elements))
    )


def proj0(d, dec):
    """P0 read off the decomposition: its group sum S over |G|, as a `Fraction` matrix."""
    return tuple(tuple(Fraction(x, d.group.order) for x in row) for row in dec.group_sum)


def vec_denominator(v) -> int:
    """The lcm of the entries' denominators; 1 for the empty vector."""
    return lcm(*(Fraction(x).denominator for x in v)) if v else 1


def frac_mod1(x: Fraction) -> Fraction:
    """Canonical representative of x in [0, 1)."""
    x = Fraction(x)
    return x - (x.numerator // x.denominator)


def vec_mod1(v) -> tuple[Fraction, ...]:
    return tuple(frac_mod1(x) for x in v)


def compose(a: AffineAut, b: AffineAut) -> AffineAut:
    """(M, t) . (M', t') = (M M', M t' + t), translation reduced mod Lambda; no eigenvalues."""
    t = vec_mod1(
        x + y for x, y in zip(reference_mat_vec(a.linear, translation(b)), translation(a))
    )
    den = vec_denominator(t)
    return AffineAut(mat_mul(a.linear, b.linear), den, tuple(int(x * den) for x in t), None)


def reference_close_group(gens, torus, cap=DEFAULT_CLOSURE_CAP, eigenvalue_table=None):
    """`close_group` with every product M_e M_s formed densely, as list rows by dot products."""
    gens = tuple(gens)
    rank = torus.rank
    table = dict(eigenvalue_table or {})
    if torus.factors is None:
        for g in gens:
            if not is_unimodular(g.linear):
                raise InvalidDatum("linear part is not unimodular")
            table.setdefault(g.linear, g.eigenvalues)
    den = lcm(*(g.den for g in gens))
    dt_gens = [[x * (den // g.den) for x in g.shift] for g in gens]  # D t_s
    gen_cols = [column_lists(g.linear) for g in gens]

    elements = [affine_identity(rank)]
    dt = [(0,) * rank]  # D t_e mod D
    index = {(tuple(itertools.chain.from_iterable(elements[0].linear)), dt[0]): 0}
    edges = []
    tree = [None]
    for i, e in enumerate(elements):  # the list grows while it is walked
        row = []
        for s, (g_cols, dt_s) in enumerate(zip(gen_cols, dt_gens)):
            rows = list_product(e.linear, g_cols)
            shift = tuple([(sum(map(mul, r, dt_s)) + y) % den for r, y in zip(e.linear, dt[i])])
            key = (tuple(itertools.chain.from_iterable(rows)), shift)
            j = index.get(key)
            if j is None:
                linear = tuple(map(tuple, rows))
                if torus.factors is not None:
                    eig = tuple(x * y for x, y in zip(e.eigenvalues, gens[s].eigenvalues))
                else:
                    eig = table.get(linear) or _eigenvalues_from_char_poly(linear)
                    table[linear] = eig
                if len(elements) >= cap:
                    raise CapReached(f"closure cap {cap}, the group has more elements")
                j = index[key] = len(elements)
                elements.append(AffineAut(linear, *reduced_mod1(den, shift), eig))
                dt.append(shift)
                tree.append((i, s))
            row.append(j)
        edges.append(tuple(row))
    return ActionGroup(tuple(elements), tuple(edges), tuple(tree))


def model_actions(d, level: int):
    """The torsion model's actions at level N, with N t read as int(t * N) from the translation."""
    return tuple(
        (e.linear, tuple(int(x * level) for x in translation(e))) for e in d.group.elements
    )


def members_of(group) -> list:
    """Every element of group as a ``rewrite_on_lattice`` member: (index, eigenvalues)."""
    return [(i, e.eigenvalues) for i, e in enumerate(group.elements)]


def element_keys(group) -> list:
    """The keys of group's elements, in element order."""
    return [e.key() for e in group.elements]


def element_index(group, a: AffineAut) -> int:
    """The index of the element of group whose key is a's."""
    return element_keys(group).index(a.key())


def factor_key(f) -> tuple[str, str]:
    """An elliptic factor's kind and label."""
    return f.kind, f.label


def torus_key(t) -> tuple:
    """A torus's rank, lattice and factor keys; its derived integer inverse is left out."""
    factors = None if t.factors is None else tuple(map(factor_key, t.factors))
    return t.rank, t.lattice, factors


def basis_matrix(s: Sublattice):
    """Integer matrix (ambient x rank) whose columns are den * basis."""
    return transpose(s.cols) if s.cols else tuple(() for _ in range(s.ambient_rank))


def contains(s: Sublattice, v) -> bool:
    """Whether v lies in the lattice s."""
    coords = reference_coords_of(s, v)
    return coords is not None and all(c.denominator == 1 for c in coords)


def coset_meets_lattice(w: Sublattice, t) -> bool:
    """Exact decision of (t + span_Q(w)) intersect Z^n != empty set."""
    t = tuple(map(Fraction, t))
    if len(t) != w.ambient_rank:
        raise InternalError("vector length does not match ambient rank")
    if w.rank == w.ambient_rank:
        return True
    if w.rank == 0:
        return vec_is_integral(t)
    # annihilator rows C with C @ w == 0; then t in Z^n + span(w) iff C t in C Z^n
    ann = kernel_lattice(transpose(basis_matrix(w)))
    c = transpose(basis_matrix(ann))  # (n - rank) x n
    image = Sublattice.from_int_columns(len(c), transpose(c))
    return contains(image, reference_mat_vec(c, t))


def projectors(lambda0: Sublattice, lambda1: Sublattice):
    """(P0, P1), the projections onto V0 along V1 and onto V1 along V0.

    Read off the inverse C of the basis B = [Lambda_0 | Lambda_1]: P0 = B0 C0
    and P1 = B1 C1 for the column blocks B0, B1 of B and the matching row
    blocks C0, C1 of C.
    """
    rank = lambda0.ambient_rank
    cols = basis_vectors(lambda0) + basis_vectors(lambda1)
    b = transpose(cols)  # rank x rank
    c = mat_inv(b)
    r0 = lambda0.rank
    if r0 == 0:
        zero = tuple(tuple(Fraction(0) for _ in range(rank)) for _ in range(rank))
        return zero, tuple(tuple(Fraction(int(i == j)) for j in range(rank)) for i in range(rank))
    if lambda1.rank == 0:
        zero = tuple(tuple(Fraction(0) for _ in range(rank)) for _ in range(rank))
        return tuple(tuple(Fraction(int(i == j)) for j in range(rank)) for i in range(rank)), zero
    b0 = transpose(basis_vectors(lambda0))
    b1 = transpose(basis_vectors(lambda1))
    c0 = c[:r0]
    c1 = c[r0:]
    return reference_mat_mul(b0, c0), reference_mat_mul(b1, c1)


def form_complement(d, lambda0: Sublattice) -> Sublattice:
    """Lambda intersect V0^perp, for the invariant form E: the saturated kernel of B0^T E.

    B0 is the basis of Lambda_0; with Lambda_0 = 0 the complement is all of Lambda.
    """
    if lambda0.rank == 0:
        return Sublattice.standard(d.rank)
    return kernel_lattice(mat_mul(lambda0.cols, d.form.matrix))


def decomposition(d):
    """The pipeline's Decomposition of a validated datum: S, Lambda_0, then Lambda_1 and K."""
    s = group_sum(d)
    return compute_K(d, compute_A0(s, d.group.order), s)


def generator_fixed_lattice(d) -> Sublattice:
    """Lambda_0 from the generators alone: the saturated kernel of the stacked M_g - I."""
    rank = d.rank
    rows = [
        tuple(g.linear[i][j] - (1 if i == j else 0) for j in range(rank))
        for g in (d.group.elements[k] for k in d.group.gens if k)
        for i in range(rank)
    ]
    return kernel_lattice(tuple(rows)) if rows else Sublattice.standard(rank)


def t0_table(d):
    """t0(g) = P0 tau(g) for every element, by index, with the reference P0."""
    p0 = fixed_projector(d)
    return tuple(reference_mat_vec(p0, translation(e)) for e in d.group.elements)


def integer_solution(hermite, b) -> tuple[int, ...] | None:
    """An integer x with m @ x == b, or None if there is none.

    ``hermite`` is ``column_hermite(m)``, so one Hermite form serves many
    right-hand sides: m @ v == h with v unimodular, so x = v @ y for the
    solution y of h @ y == b, which is integral iff x is.
    """
    h, v = hermite
    y = reference_hermite_coords([c for c in transpose(h) if any(c)], b)
    if y is None or any(c.denominator != 1 for c in y):
        return None
    return mat_vec(v, [int(c) for c in y] + [0] * (len(v) - len(y)))


def h_by_solve(d, table):
    """H and its fiber shifts by one integer solve of P0 w = t0(g) per element.

    ``table`` is ``t0_table(d)``; g is in H iff the solve succeeds, and its
    shift is tau(g) - w.  P0 is the reference ``fixed_projector``.
    """
    den, p0 = over_common_denominator(fixed_projector(d))
    hermite = column_hermite(p0)
    members = []
    shifts = {}
    for i, e in enumerate(d.group.elements):
        w = integer_solution(hermite, tuple(x * den for x in table[i]))
        if w is not None:
            members.append(i)
            shifts[i] = vec_sub(translation(e), w)
    return tuple(members), shifts


def fiber_translations_match(d, report, shifts) -> bool:
    """Whether each fiber element's (den, shift) is its member's V1 shift in the fiber basis.

    ``shifts`` maps each member of H, by its index in d, to a V1 shift of it
    (such as t1(h) - p1(k), or tau(h) - w); fiber element j belongs to the
    j-th member.  The shift's coordinates in the fiber basis B are read by the
    rational left inverse (B^T B)^-1 B^T: on span(B) every left inverse gives
    the B-coordinates, and this one needs neither integrality nor a saturated B.
    """
    cols = fiber_basis(d, report)
    left = reference_mat_mul(mat_inv(mat_mul(cols, transpose(cols))), cols)
    return all(
        (e.den, e.shift) == scaled_mod1(reference_mat_vec(left, shifts[i]))
        for i, e in zip(report.subgroup_h, fiber_datum(d, report).group.elements, strict=True)
    )


def fiber_basis(d, report):
    """The fiber basis B, columns in d's lattice coordinates, as ``compute_fiber`` chooses it."""
    indices = report.fiber_factor_indices
    if indices is None:
        return report.decomposition.lambda1.cols
    return factor_plane_columns(d.torus, indices)


def fiber_datum(d, report):
    """The fiber datum of d's Albanese report: the recursion's, else built as the recursion would.

    ``run_pipeline`` builds the fiber only where ``recurse`` descends into it.
    """
    if report.fiber is not None:
        return report.fiber
    indices = report.fiber_factor_indices
    members = fiber_eigenvalues(d, report.q, report.subgroup_h, indices)
    return quotient_by_translations(compute_fiber(d, report.decomposition, members, indices))


def pipeline_chain(d):
    """(datum, report) for the datum and each fiber the recursion descends into."""
    validate(d)
    report = run_pipeline(d, recurse=True)
    chain = [(d, report)]
    while report.fiber_report is not None:
        chain.append((report.fiber, report.fiber_report))
        report = report.fiber_report
    return chain


def chain_data(d):
    """A valid d and the fiber datum of each level of its recursion, the last one included."""
    return [d] + [fiber_datum(x, report) for x, report in pipeline_chain(d)]


def reference_classify_fiber(fiber) -> FiberClassification:
    """The fiber's class read off the fiber datum's own group, as before H was read in G.

    A fiber is faithful, so its group is its holonomy: abelian iff trivial.
    """
    group = fiber.group
    if group.order == 1:
        return FiberClassification("abelian", fiber.dim, 1, True, (), (1,))
    orders = tuple(sorted(group.orders))
    invariants = _abelian_invariant_factors(group.orders) if group.is_abelian() else None
    return FiberClassification(
        "hyperelliptic", fiber.dim, group.order, group.is_cyclic(), invariants, orders
    )


def coset_has_fixed_point(e) -> bool:
    """The exact fixed-point decision through coset_meets_lattice: t + colspace(M - I)."""
    n = len(e.linear)
    diff_cols = [
        tuple(e.linear[i][j] - (1 if i == j else 0) for i in range(n)) for j in range(n)
    ]
    span = Sublattice.from_int_columns(n, [c for c in diff_cols if any(c)])
    return coset_meets_lattice(span, translation(e))


def saturate(s: Sublattice) -> Sublattice:
    """Saturation (span_Q(s) intersected with Z^ambient) of an integer sublattice."""
    if s.den != 1:
        raise InvalidDatum("saturate expects an integer sublattice")
    if s.rank == 0:
        return s
    basis = basis_matrix(s)  # ambient x rank
    ann = kernel_lattice(transpose(basis))  # {y : y . col == 0 for all columns}
    if ann.rank == 0:
        return Sublattice.standard(s.ambient_rank)
    return kernel_lattice(transpose(basis_matrix(ann)))


def is_saturated(s: Sublattice) -> bool:
    if s.den != 1:
        raise InvalidDatum("saturation is only meaningful for integer lattices")
    return saturate(s) == s


def torsion_points(model):
    """Every point of the torsion model, as tuples mod its level."""
    return itertools.product(range(model.level), repeat=model.rank)


def apply(model, element_index: int, point):
    """The image of a point under one group element of the torsion model."""
    m, nt = model.actions[element_index]
    n = model.level
    return tuple(
        (sum(m[i][j] * point[j] for j in range(model.rank)) + nt[i]) % n
        for i in range(model.rank)
    )


def orbits(model) -> list[int]:
    """All orbit sizes of the torsion model (small models only)."""
    if model.point_count > ORBIT_ENUMERATION_LIMIT:
        raise CapReached("orbit enumeration is limited to small models")
    seen: set = set()
    sizes = []
    for p in torsion_points(model):
        if p in seen:
            continue
        orbit = {p}
        frontier = [p]
        while frontier:
            x = frontier.pop()
            for i in range(len(model.actions)):
                y = apply(model, i, x)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        sizes.append(len(orbit))
    return sizes


def direct_fixed_points(model, element_index: int) -> int:
    """Fixed points of one element of the torsion model, one point at a time."""
    m, nt = model.actions[element_index]
    n = model.level
    r = model.rank
    count = 0
    for p in itertools.product(range(n), repeat=r):
        if all(
            (sum(m[i][j] * p[j] for j in range(r)) - p[i] + nt[i]) % n == 0 for i in range(r)
        ):
            count += 1
    return count


def two_branch_survey(d, level=None, cap=DEFAULT_POINT_CAP) -> FixedPointSurvey:
    """The fixed-point survey with one branch per kind of level.

    One branch counts every element at the shared level, given or computed;
    the other, taken only when the computed level is over the cap, builds one
    model per element at its own bound or the bare denominator.  Bounds are
    computed while choosing the level and again per element, and the exact
    decision comes from coset_has_fixed_point.  The computed level is
    enlarged by every bound, which leaves formula_level unchanged, as each
    bound divides it (the oracle module's theorem).
    """
    downgraded = False
    if level is None:
        level = formula_level(d)
        for e in d.group.elements:
            level = lcm(level, element_level_bound(e))
        if _split_grid_size(level, d.rank) > cap:
            downgraded = True
    checks = []
    if not downgraded:  # a given level is never replaced: build_model rejects it or counts there
        model = build_model(d, level, cap, split_counting=True)
        for i, e in enumerate(d.group.elements):
            if i == 0:
                continue
            bound = lcm(element_level_bound(e), vec_denominator(translation(e)))
            checks.append(
                FixedPointCheck(
                    element_index=i,
                    level=level,
                    exhaustive=level % bound == 0,
                    count=oracle_fixed_points(model, i),
                    exact_has_fixed_point=coset_has_fixed_point(e),
                )
            )
    else:
        base = datum_denominator(d)
        for i, e in enumerate(d.group.elements):
            if i == 0:
                continue
            bound = lcm(element_level_bound(e), base)
            exhaustive = _split_grid_size(bound, d.rank) <= cap
            use = bound if exhaustive else base
            model = build_model(d, use, cap, split_counting=True)
            checks.append(
                FixedPointCheck(
                    element_index=i,
                    level=use,
                    exhaustive=exhaustive,
                    count=oracle_fixed_points(model, i),
                    exact_has_fixed_point=coset_has_fixed_point(e),
                )
            )
    return FixedPointSurvey(tuple(checks), downgraded)


def all_exhaustive(survey) -> bool:
    """Whether every fixed-point count of the survey is exhaustive evidence."""
    return all(c.exhaustive for c in survey.checks)


def index_over_product_lattice(torus) -> int:
    """[Lambda : Z^rank], the index of the torus lattice over the product lattice.

    Lambda has basis lam_basis, so the index is |det lam_basis^-1|, an integer determinant.
    """
    return abs(bareiss_det(torus.lam_basis_inv))


def every_element_eigenvalue_violations(d) -> tuple[str, ...]:
    """The eigenvalue check on every nonidentity element, in element order.

    `validate` runs it on raw data only; on a factor torus it is the
    reference for the eigenvalues that hold by construction.
    """
    checks = (_check_eigenvalues(e, i) for i, e in enumerate(d.group.elements) if i)
    return tuple(problem for problem in checks if problem)


def factor_subspace_in_product_coords(t, sub: Sublattice) -> tuple[int, ...] | None:
    """Factor indices whose coordinate planes exactly span sub, decided in product coordinates.

    sub is given in lattice coordinates.  Its basis is written in product
    coordinates, its support is the factors where that basis is nonzero, and
    the lattice it spans must equal the lattice of the unit vectors of the
    support's planes, after two rank checks.
    """
    if t.factors is None or sub.rank % 2 != 0:
        return None
    prod_vectors = [rational(*t.to_product_coords(sub.den, c)) for c in sub.cols]
    support = set()
    for v in prod_vectors:
        for i, x in enumerate(v):
            if x != 0:
                support.add(i // 2)
    indices = tuple(sorted(support))
    if 2 * len(indices) != sub.rank:
        return None
    expected_cols = []
    for i in indices:
        for j in (2 * i, 2 * i + 1):
            col = [Fraction(0)] * t.rank
            col[j] = Fraction(1)
            expected_cols.append(tuple(col))
    expected = from_rat_columns(t.rank, expected_cols)
    actual = from_rat_columns(t.rank, prod_vectors)
    return indices if actual == expected else None


def three_curve_document(k_gen, translation):
    """E x E' x E'' (generic) over Z^6 + Z k_gen, with g = (z0 + translation, -z1, z2)."""
    return {
        "mode": "builder",
        "factors": [{"kind": "generic"}] * 3,
        "k_gens": [list(k_gen)],
        "generators": [
            {"zetas": ["1", "-1", "1"], "translation": list(translation) + ["0"] * 4}
        ],
    }


def conjugated(d, u):
    """The same action written in the lattice basis given by the columns of u."""
    u_inv = tuple(tuple(int(x) for x in row) for row in mat_inv(u))

    def move(e):
        den, shift = scaled_mod1(reference_mat_vec(u_inv, translation(e)))
        return AffineAut(mat_mul(mat_mul(u_inv, e.linear), u), den, shift, e.eigenvalues)

    table = {move(e).linear: e.eigenvalues for e in d.group.elements}
    torus = TorusDatum.raw(d.rank)
    gens = [move(d.group.elements[i]) for i in d.group.gens]
    group = close_group(gens, torus, eigenvalue_table=table)
    form = AlternatingForm(mat_mul(mat_mul(transpose(u), d.form.matrix), u))
    return HyperellipticDatum(torus, group, form, j_stability_assumed=True)


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


def raw_document(d):
    """A raw document of d: its form, its generators and every element, with eigenvalues."""
    def spec(e):
        return {
            "matrix": [list(row) for row in e.linear],
            "translation": format_vector(e.den, e.shift),
            "eigenvalues": [f"zeta{z.order}^{z.k}" for z in e.eigenvalues],
        }

    return {
        "mode": "raw",
        "rank": d.rank,
        "form": [format_vector(1, row) for row in d.form.matrix],
        "generators": [spec(d.group.elements[i]) for i in d.group.gens],
        "elements": [spec(e) for e in d.group.elements],
    }


def side_by_side(doc, copies):
    """A builder document for copies of doc's variety, each group acting on its own copy."""
    f = len(doc["factors"])
    generators = [
        {
            "zetas": ["1"] * (f * c) + g["zetas"] + ["1"] * (f * (copies - c - 1)),
            "translation": ["0"] * (2 * f * c) + g["translation"]
            + ["0"] * (2 * f * (copies - c - 1)),
        }
        for c in range(copies)
        for g in doc["generators"]
    ]
    factors = [dict(x, label=f"{x['label']}.{c}") for c in range(copies) for x in doc["factors"]]
    return {"mode": "builder", "factors": factors, "k_gens": [], "generators": generators}
