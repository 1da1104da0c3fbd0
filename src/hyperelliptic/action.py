"""Finite groups of affine automorphisms and the hyperelliptic-datum checks.

Group elements are stored in lattice coordinates: the linear part is a
unimodular integer matrix acting on Lambda = Z^2n, and the translation t mod
Lambda is the integer vector den t mod den over its least denominator den, so
equality of elements is canonical.  ``close_group`` is the only place that
multiplies elements, in integers: a product's key is its linear part and
D t mod D, D the lcm of the generators' den.  It keeps the Cayley edges, and
a new element's eigenvalues follow one rule per kind of datum (see
close_group).  The group is its Cayley table: a generator is an element index
(``ActionGroup.gens``), every product is read off the edges, element orders
are walked once, on first use (``ActionGroup.orders``), and nothing looks an
element up by value.  A subgroup is read on its parent's table, and a derived
group (an Albanese fiber, built only on descent) reads its parent's edges.
Fixed-point existence is decided exactly by integer linear algebra: since
the linear part and the translation are rational, a real fixed point exists
iff a rational one does, so freeness results are certificates, not samples.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from .cyclotomic import RootOfUnity, cyclotomic_polynomial, euler_phi, poly_divmod_exact
from .exactlin import (
    column_lists,
    hermite_normal_form,
    identity,
    identity_rows,
    is_unimodular,
    list_product,
    mat_vec,
    reduced_mod1,
)
from .torus import AlternatingForm, InvalidAutomorphism, TorusDatum, factor_block_eigenvalue

DEFAULT_CLOSURE_CAP = 1024
# the largest closure cap and lattice rank a document may ask for: closure
# time grows with the cap, and every per-element check with a power of the rank
MAX_CLOSURE_CAP = 65536
MAX_RANK = 64


class LatticeNotPreserved(ValueError):
    """A linear part fails to map the period lattice to itself (or is not unimodular)."""


class NotClosedWithinCap(ValueError):
    """Group closure exceeded the configured cap."""


class MissingEigenvalueData(ValueError):
    """Closure produced an element whose complex eigenvalues cannot be derived.

    For non-real eigenvalues the characteristic polynomial only determines
    conjugate pairs, not which member acts holomorphically, so raw data must
    list every group element with its eigenvalues.
    """


class InconsistentEigenvalues(ValueError):
    """Declared eigenvalues contradict the characteristic polynomial."""


class GroupInvariantError(RuntimeError):
    """A theorem-backed check on a validated group failed; signals an internal bug."""


def char_poly(m) -> tuple[int, ...]:
    """Characteristic polynomial det(x*I - m), constant term first, exact.

    Division-free Berkowitz algorithm over the integers (Berkowitz, Inf. Proc.
    Letters 18, 1984; Cohen, GTM 138, 2.2).  Write the trailing principal
    block at row k as [[a, R], [S, A']]; its polynomial is the lower-triangular
    Toeplitz matrix with first column (1, -a, -R S, -R A' S, -R A'^2 S, ...)
    times the polynomial of A'.  Blocks are taken from the bottom right up.
    """
    n = len(m)
    poly = [1]  # highest degree first
    for k in range(n - 1, -1, -1):
        rest = range(k + 1, n)
        column = [1, -m[k][k]]
        v = [m[i][k] for i in rest]  # A'^j S, starting at j = 0
        for _ in rest:
            column.append(-sum(m[k][i] * x for i, x in zip(rest, v)))
            v = [sum(m[i][j] * x for j, x in zip(rest, v)) for i in rest]
        poly = [
            sum(column[i - j] * poly[j] for j in range(min(i + 1, len(poly))))
            for i in range(len(column))
        ]
    return tuple(reversed(poly))


def cyclotomic_multiplicities(poly: tuple[int, ...]) -> dict[int, int]:
    """Factor an integer polynomial as a product of cyclotomics Phi_N^(a_N).

    Raises InconsistentEigenvalues if any non-cyclotomic factor remains,
    which also certifies that the matrix has finite order.
    """
    deg = len(poly) - 1
    limit = 2 * deg * deg + 2
    mults: dict[int, int] = {}
    rem = poly
    for n in range(1, limit + 1):
        if euler_phi(n) > deg:
            continue
        phi = cyclotomic_polynomial(n)
        while len(rem) >= len(phi):
            q, r = poly_divmod_exact(rem, phi)
            if r != ():
                break
            mults[n] = mults.get(n, 0) + 1
            rem = q
        if rem == (1,):
            return mults
    raise InconsistentEigenvalues("characteristic polynomial is not a product of cyclotomics")


class AffineAut:
    """One affine automorphism x -> linear @ x + t of A = V/Lambda.

    The translation t mod Lambda is ``shift`` = den t mod den over ``den``,
    the least positive integer with den t integral; every reader takes t as
    these integers, so no rational vector is formed.  ``eigenvalues`` are the
    n complex-representation eigenvalues of the element; on a torus with
    elliptic factors they are in factor order, one per factor.  ``key()``,
    the linear part, den and shift, identifies the element.
    """

    __slots__ = ("linear", "den", "shift", "eigenvalues")

    def __init__(
        self,
        linear: tuple[tuple[int, ...], ...],
        den: int,
        shift: tuple[int, ...],
        eigenvalues: tuple[RootOfUnity, ...] | None,
    ):
        self.linear = linear
        self.den = den
        self.shift = shift
        self.eigenvalues = eigenvalues

    @property
    def rank(self) -> int:
        return len(self.linear)

    def is_translation(self) -> bool:
        return all(x == (i == j) for i, row in enumerate(self.linear) for j, x in enumerate(row))

    def key(self):
        return (self.linear, self.den, self.shift)


def affine_identity(rank: int) -> AffineAut:
    return AffineAut(identity(rank), 1, (0,) * rank, (RootOfUnity.one(),) * (rank // 2))


def _eigenvalues_from_char_poly(m) -> tuple[RootOfUnity, ...]:
    """Derive eigenvalues when the conjugate-pair split is forced (orders <= 2)."""
    mults = cyclotomic_multiplicities(char_poly(m))
    if any(n > 2 for n in mults):
        raise MissingEigenvalueData(
            "closure created an element with complex eigenvalues of order > 2; "
            "list all group elements with their eigenvalues in the input"
        )
    eig = []
    for n, a in sorted(mults.items()):
        if a % 2 != 0:
            raise InconsistentEigenvalues("odd multiplicity of a real eigenvalue")
        eig.extend([RootOfUnity.of(1 if n == 2 else 0, n)] * (a // 2))
    return tuple(eig)


class ActionGroup:
    """A finite closed group of affine automorphisms, identity first: its Cayley table.

    ``edges[i][s]`` is the index of elements[i] . g_s for the s-th generator
    g_s, so ``gens = edges[0]`` lists the generators' indices (with repeats,
    and 0 for an identity generator).  Element j > 0 was first reached along
    the edge ``tree[j] = (parent, s)``, parent < j.  The tree spells every
    element as a word in the generators: products are read off the edges, and
    a homomorphism is walked along it from the generators.  In a group from
    ``rewrite_on_lattice`` every word has length one.  ``orders[i]`` is the
    order of elements[i], walked once on first use: validation never pays.
    """

    __slots__ = ("elements", "edges", "tree", "_orders")

    def __init__(self, elements, edges, tree):
        self.elements = elements
        self.edges = edges
        self.tree = tree
        self._orders = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def orders(self) -> tuple[int, ...]:
        if self._orders is None:
            orders = []
            for i in range(self.order):
                order, j = 1, i
                while j:
                    j, order = self.compose_indices(j, i), order + 1
                orders.append(order)
            self._orders = tuple(orders)
        return self._orders

    @property
    def gens(self) -> tuple[int, ...]:
        return self.edges[0]

    def compose_indices(self, i: int, j: int) -> int:
        """Index of elements[i] . elements[j]: from i, follow the edges of j's word."""
        word = []
        while j:
            j, s = self.tree[j]
            word.append(s)
        for s in reversed(word):
            i = self.edges[i][s]
        return i

    def is_abelian(self) -> bool:
        """G is abelian iff its generators commute."""
        gens = self.gens
        return all(
            self.edges[a][t] == self.edges[b][s]
            for s, a in enumerate(gens)
            for t, b in enumerate(gens[:s])
        )

    def is_cyclic(self) -> bool:
        return self.order in self.orders


def close_group(
    gens,
    torus: TorusDatum,
    cap: int = DEFAULT_CLOSURE_CAP,
    eigenvalue_table=None,
) -> ActionGroup:
    """Close the generators under composition mod Lambda, keeping the Cayley edges.

    Walks the element list breadth-first while it grows, identity first, and
    records edges[i][s] = index of elements[i] . gens[s].  Linear parts are
    integral, so every translation lies in (1/D)Z^rank, D the lcm of the
    generators' den, and the integer pair (M_e M_s, (M_e D t_s + D t_e) mod D)
    is the product.  M_e M_s is formed as list rows and looked up by its
    entries in one flat tuple, so a product already in the table builds no
    row tuple; a new element alone gets its linear part as row tuples and
    becomes an AffineAut, its den and shift D and D t mod D over their gcd,
    and gets its eigenvalues once.  With elliptic factors a generator's are
    read off its blocks (``factor_eigenvalues``; declared ones must agree,
    else InconsistentEigenvalues), and each linear part is one unit of each
    factor's endomorphism ring, so an element's are the factorwise product
    of the parent's and the generator's, in factor order.  Raw data take them
    from ``eigenvalue_table`` (keyed by linear part) or else from the
    characteristic polynomial, which raises MissingEigenvalueData when it
    cannot split conjugate pairs.  Raises LatticeNotPreserved for
    non-unimodular or non-integral linear parts and NotClosedWithinCap past
    the cap.
    """
    gens = tuple(gens)
    rank = torus.rank
    table = dict(eigenvalue_table or {})
    gen_eig = []
    for g in gens:
        if len(g.linear) != rank:
            raise LatticeNotPreserved("generator rank mismatch")
        if not all(isinstance(x, int) for row in g.linear for x in row):
            raise LatticeNotPreserved("linear part must be integral on the lattice")
        eig = g.eigenvalues if torus.factors is None else factor_eigenvalues(torus, g.linear)
        if g.eigenvalues not in (None, eig):
            raise InconsistentEigenvalues(
                f"eigenvalues differ from the blocks' units ({', '.join(map(str, eig))})")
        if not is_unimodular(g.linear):
            raise LatticeNotPreserved("linear part is not unimodular")
        table.setdefault(g.linear, eig)
        gen_eig.append(eig)
    den = lcm(*(g.den for g in gens))
    dt_gens = [[x * (den // g.den) for x in g.shift] for g in gens]  # D t_s
    gen_cols = [column_lists(g.linear) for g in gens]

    elements = [affine_identity(rank)]
    dt = [(0,) * rank]  # D t_e mod D
    index = {(tuple(chain.from_iterable(elements[0].linear)), dt[0]): 0}
    edges = []
    tree = [None]
    for i, e in enumerate(elements):  # the list grows while it is walked
        row = []
        for s, (g_cols, dt_s) in enumerate(zip(gen_cols, dt_gens)):
            rows = list_product(e.linear, g_cols)
            shift = tuple([(sum(map(mul, r, dt_s)) + y) % den for r, y in zip(e.linear, dt[i])])
            key = (tuple(chain.from_iterable(rows)), shift)
            j = index.get(key)
            if j is None:
                linear = tuple(map(tuple, rows))
                if torus.factors is not None:
                    eig = tuple(x * y for x, y in zip(e.eigenvalues, gen_eig[s]))
                else:
                    eig = table.get(linear) or _eigenvalues_from_char_poly(linear)
                    table[linear] = eig
                if len(elements) >= cap:
                    raise NotClosedWithinCap(f"group closure exceeds cap {cap}")
                j = index[key] = len(elements)
                elements.append(AffineAut(linear, *reduced_mod1(den, shift), eig))
                dt.append(shift)
                tree.append((i, s))
            row.append(j)
        edges.append(tuple(row))
    return ActionGroup(tuple(elements), tuple(edges), tuple(tree))


def factor_eigenvalues(torus: TorusDatum, linear) -> tuple:
    """The units of a factor torus's linear part M, one per factor, read off its blocks.

    In product coordinates M is B = C M lam_basis_inv / den, for Lambda's
    columns C over den; B must be block-diagonal in units' table entries.
    """
    den = torus.lattice.den
    b = list_product(list_product(torus.basis_rows, column_lists(linear)), torus.inv_cols)
    if any(x % den or x and i // 2 != j // 2 for i, row in enumerate(b) for j, x in enumerate(row)):
        raise InvalidAutomorphism("linear part is not block-diagonal on the factors")
    blocks = (tuple(tuple(x // den for x in row[k:k + 2]) for row in b[k:k + 2])
              for k in range(0, len(b), 2))
    return tuple(factor_block_eigenvalue(f, block) for f, block in zip(torus.factors, blocks))


def affine_from_factor_action(torus: TorusDatum, blocks, translation) -> AffineAut:
    """Build a generator from per-factor 2x2 blocks and a product-coordinate translation.

    The block-diagonal B is rewritten in lattice coordinates as lam_basis_inv
    B C / den, for Lambda's columns C over den; if den does not divide it, B
    does not preserve Lambda, the action does not descend to A and
    LatticeNotPreserved is raised.  The generator declares no eigenvalues:
    ``close_group`` reads them off its blocks, so a block that is no unit's
    entry in its factor kind's table is refused there.
    The translation t = w / d in product coordinates is given as (d, w), the
    shape of an element's (den, shift): its lattice coordinates are
    lam_basis_inv w / d, reduced mod 1 to their least denominator.
    """
    if torus.factors is None:
        raise LatticeNotPreserved("factor actions need a torus with factor provenance")
    blocks = tuple(tuple(map(tuple, b)) for b in blocks)
    if len(blocks) != len(torus.factors):
        raise LatticeNotPreserved("one 2x2 block per factor is required")
    rank = torus.rank
    big = [[blocks[i // 2][i % 2][j % 2] if i // 2 == j // 2 else 0 for j in range(rank)]
           for i in range(rank)]
    den = torus.lattice.den
    scaled = list_product(list_product(torus.lam_basis_inv, column_lists(big)), torus.lattice.cols)
    if any(x % den for row in scaled for x in row):
        raise LatticeNotPreserved("linear part does not preserve the enlarged lattice")
    linear = tuple(tuple([x // den for x in row]) for row in scaled)
    d, w = translation
    lattice_w = [sum(map(mul, row, w)) for row in torus.lam_basis_inv]
    return AffineAut(linear, *reduced_mod1(d, lattice_w), None)


def affine_raw(linear, translation, eigenvalues) -> AffineAut:
    """Raw-mode generator: integer matrix, lattice-coordinate translation (d, w), eigenvalues.

    The matrix is taken as given: ``close_group`` refuses an entry that is not an integer.
    """
    return AffineAut(tuple(map(tuple, linear)), *reduced_mod1(*translation), tuple(eigenvalues))


def has_fixed_point(a: AffineAut) -> bool:
    """Exact decision: does g(x) = x have a solution on A = V/Lambda?

    g(x) = x iff (M - I)x = -t + lambda for some rational x and lattice vector
    lambda.  Take the Hermite form u (M - I) = h with u unimodular (Cohen, GTM
    138, 2.4) and multiply through by u: h x = -u t + u lambda, where u lambda
    runs over all of Z^rank.  The nonzero rows of h are independent, so they
    reach every rational value; on the zero rows the equation reads
    (u t)_i = (u lambda)_i.  So g has a fixed point iff u t is integral on the
    zero rows of h, that is iff u shift = 0 mod den there.
    """
    h, u = hermite_normal_form(
        [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(a.linear)])
    return all(sum(map(mul, row, a.shift)) % a.den == 0
               for row, h_row in zip(u, h) if not any(h_row))


class ValidationReport(NamedTuple):
    """Structured outcome of all hyperelliptic-datum checks."""

    group_order: int
    fixed_point_elements: tuple[int, ...]
    nonidentity_translations: tuple[int, ...]
    form_violations: tuple[int, ...]
    eigenvalue_violations: tuple[str, ...]

    @property
    def free(self) -> bool:
        return not self.fixed_point_elements

    @property
    def form_invariant(self) -> bool:
        return not self.form_violations

    @property
    def eigenvalues_consistent(self) -> bool:
        return not self.eigenvalue_violations

    @property
    def faithful(self) -> bool:
        return not self.nonidentity_translations

    @property
    def passed(self) -> bool:
        return self.free and self.faithful and self.form_invariant and self.eigenvalues_consistent

    @property
    def is_hyperelliptic(self) -> bool:
        return self.passed and self.group_order > 1

    def failures(self) -> tuple[str, ...]:
        out = []
        if self.fixed_point_elements:
            out.append(f"freeness fails at element indices {list(self.fixed_point_elements)}")
        if self.nonidentity_translations:
            out.append(
                f"nonidentity translations at element indices {list(self.nonidentity_translations)}"
            )
        if self.form_violations:
            out.append(f"form not invariant at element indices {list(self.form_violations)}")
        out.extend(self.eigenvalue_violations)
        if not self.faithful:
            out.append("complex representation is not faithful")
        return tuple(out)


class HyperellipticDatum:
    """A = V/Lambda together with a finite affine action and an invariant form.

    ``validate`` caches its report in ``_report``.
    """

    __slots__ = ("torus", "group", "form", "j_stability_assumed", "_report")

    def __init__(
        self,
        torus: TorusDatum,
        group: ActionGroup,
        form: AlternatingForm,
        j_stability_assumed: bool = False,
    ):
        self.torus = torus
        self.group = group
        self.form = form
        self.j_stability_assumed = j_stability_assumed
        self._report = None

    @property
    def builder_mode(self) -> bool:
        return self.torus.factors is not None

    @property
    def rank(self) -> int:
        return self.torus.rank

    @property
    def dim(self) -> int:
        return self.torus.dim


def _check_eigenvalues(e: AffineAut, index: int) -> str | None:
    n = e.rank // 2
    if len(e.eigenvalues) != n:
        return f"element {index}: expected {n} eigenvalues, got {len(e.eigenvalues)}"
    try:
        mults = cyclotomic_multiplicities(char_poly(e.linear))
    except InconsistentEigenvalues as exc:
        return f"element {index}: {exc}"
    counts: dict[RootOfUnity, int] = {}
    for z in e.eigenvalues:
        counts[z] = counts.get(z, 0) + 1
        conj = z.conjugate()
        counts[conj] = counts.get(conj, 0) + 1
    expected: dict[RootOfUnity, int] = {}
    for order, a in mults.items():
        for k in range(order):
            if gcd(k, order) == 1 or order == 1:
                expected[RootOfUnity.of(k, order)] = a
    if counts != expected:
        return (
            f"element {index}: eigenvalues {_spell(counts)} do not match "
            f"characteristic polynomial factors {_spell(expected)}"
        )
    return None


def _spell(counts) -> str:
    """Roots with their multiplicities in the document spelling, as {1: 2, i: 1}."""
    return "{" + ", ".join(f"{z}: {m}" for z, m in sorted(counts.items())) + "}"


def determinant(e: AffineAut) -> RootOfUnity:
    """det rho(e), the product of e's eigenvalues."""
    return prod(e.eigenvalues, start=RootOfUnity.one())


def validate(d: HyperellipticDatum) -> ValidationReport:
    """Run every hyperelliptic-variety check and cache the report on the datum.

    Freeness and translations are checked on every element.  The complex
    representation rho is faithful iff no nonidentity element is a
    translation: lin (x) C = rho + conj(rho), so ker rho = ker lin, and the
    kernel of g -> lin(g) is the translation subgroup.  On a torus with
    elliptic factors the form and the eigenvalues hold by construction:
    ``close_group`` accepts only generators whose blocks B = C M C^-1, for
    Lambda's basis C (over its den), are entries of their factor kind's unit
    table (``torus.FACTOR_KINDS``), hand-built generators included.  A unit
    has norm 1, so each table block b has det b = 1 and b^T J b = J (the
    tests check every entry), and M preserves ``standard_form``'s C^T J C.
    The table's units are a generator's eigenvalues and close_group
    multiplies them factorwise, so every element's are those of its linear
    part, and det rho is multiplicative.  A factor-aligned Albanese fiber is
    data of the same kind, built from the group's own elements; a form
    assembled by hand is taken as given.  Raw data are checked: M^T E M = E
    per generator, which implies it for every product, every element's
    eigenvalues against its characteristic polynomial, and det rho, their
    product, as a character (Serre, Linear Representations of Finite Groups,
    2): the first Cayley edge on which it is not multiplicative is reported.
    This needs no element orders.
    """
    elements = d.group.elements
    fixed = []
    translations = []
    for i in range(1, len(elements)):
        if has_fixed_point(elements[i]):
            fixed.append(i)
        if elements[i].is_translation():
            translations.append(i)
    form_bad, eig_bad = [], []
    if d.torus.factors is None:
        gens = sorted(set(d.group.gens))
        form_bad = [i for i in gens if not d.form.is_invariant_under(elements[i].linear)]
        eig_bad = [p for i in range(1, len(elements)) if (p := _check_eigenvalues(elements[i], i))]
        det, g = [determinant(e) for e in elements], d.group.gens
        edge = next((f"element {i} . generator {s} = element {j}"
                     for i, row in enumerate(d.group.edges)
                     for s, j in enumerate(row) if det[j] != det[i] * det[g[s]]), None)
        if edge:
            eig_bad.append(f"det rho is not a character: it is not multiplicative on {edge}")
    report = ValidationReport(
        group_order=d.group.order,
        fixed_point_elements=tuple(fixed),
        nonidentity_translations=tuple(translations),
        form_violations=tuple(form_bad),
        eigenvalue_violations=tuple(eig_bad),
    )
    d._report = report
    return report


def quotient_by_translations(d: HyperellipticDatum) -> HyperellipticDatum:
    """Certify that no nonidentity element of G is a translation, and return d.

    Every datum ``run_pipeline`` reaches is faithful: a top-level datum has
    passed ``validate``, and an Albanese fiber is faithful by theorem (see the
    ``albanese`` module docstring).  So no translation subgroup is left to
    quotient away, and a nonidentity translation raises GroupInvariantError.
    """
    for i, e in enumerate(d.group.elements[1:], 1):
        if e.is_translation():
            raise GroupInvariantError(f"element {i} is a translation of a faithful datum")
    return d


def rewrite_on_lattice(
    d: HyperellipticDatum, cols, torus: TorusDatum, members
) -> HyperellipticDatum:
    """The members of d, written on the G-stable lattice with basis ``cols``.

    ``cols`` are basis columns B in d's lattice coordinates, integral and
    spanning a saturated lattice, ``torus`` is the lattice they span with
    Z^len(cols) as its lattice coordinates, and ``members`` are (index in
    d.group, eigenvalues) pairs, identity first: the eigenvalues are the new
    datum's.  One row Hermite form u B = h of B (n x r) certifies the
    saturation, as h's top r rows are I exactly when B spans a saturated
    lattice (else GroupInvariantError).  Then L = u[:r] is an integer left
    inverse, L B = I, and R = u[r:] vanishes exactly on span(B).  A member
    (M, tau) preserves the lattice iff R M B = 0 (else GroupInvariantError)
    and reads (L M B, L tau mod 1) in the basis B, L tau being the integers
    L shift over the member's den; the form reads B^T E B.
    Two members with one image raise GroupInvariantError: the members act
    faithfully, so each keeps its own element.  Every nonidentity member is a
    generator.  The rewrite is a homomorphism, so a product is read off d's
    Cayley table; one outside the members raises GroupInvariantError.
    """
    r = len(cols)
    h, u = hermite_normal_form(column_lists(cols))  # B, n x r
    if h[:r] != identity_rows(r):
        raise GroupInvariantError("the fiber basis does not span a saturated lattice")
    left = u[:r]
    elements, label, owner = [], {}, {}
    for i, eigenvalues in members:
        e = d.group.elements[i]
        umb = list_product(u, column_lists(list_product(e.linear, cols)))  # L M B over R M B
        if any(map(any, umb[r:])):
            raise GroupInvariantError("an element does not preserve the lattice")
        linear = tuple(map(tuple, umb[:r]))
        g = AffineAut(linear, *reduced_mod1(e.den, mat_vec(left, e.shift)), eigenvalues)
        key = g.key()
        if key in owner:
            raise GroupInvariantError(f"elements {owner[key]} and {i} have one image")
        owner[key], label[i] = i, len(elements)
        elements.append(g)
    reps = tuple(label)
    try:
        edges = tuple(tuple(label[d.group.compose_indices(a, s)] for s in reps[1:]) for a in reps)
    except KeyError as exc:
        raise GroupInvariantError(f"members are not closed: element {exc} is missing") from None
    tree = (None,) + tuple((0, j) for j in range(len(reps) - 1))
    return HyperellipticDatum(
        torus,
        ActionGroup(tuple(elements), edges, tree),
        AlternatingForm(d.form.restricted_to(cols)),
        j_stability_assumed=d.j_stability_assumed,
    )
