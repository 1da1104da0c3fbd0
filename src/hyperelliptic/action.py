"""Finite groups of affine automorphisms and the hyperelliptic-datum checks.

Group elements are stored in lattice coordinates: the linear part is a
unimodular integer matrix acting on Lambda = Z^2n, and the translation is a
rational vector reduced into [0, 1)^2n so that equality of elements is
canonical.  ``close_group`` is the only place that multiplies elements; it
keeps the Cayley edges, ``ActionGroup`` reads every product off them, and a
new element's eigenvalues follow one rule per kind of datum (see close_group).
Fixed-point existence is decided exactly by rational linear algebra: since
the linear part and the translation are rational, a real fixed point exists
iff a rational one does, so freeness results are certificates, not samples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .cyclotomic import RootOfUnity, cyclotomic_polynomial, euler_phi, poly_divmod_exact
from .exactlin import (
    Sublattice,
    as_fractions,
    coset_meets_lattice,
    identity,
    mat_det,
    mat_inv,
    mat_mul,
    mat_vec,
    transpose,
    vec_add,
    vec_is_integral,
    vec_mod1,
)
from .torus import AlternatingForm, TorusDatum, factor_block_eigenvalue

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
    """One affine automorphism x -> linear @ x + translation of A = V/Lambda.

    ``eigenvalues`` are the n complex-representation eigenvalues of the
    element; on a torus with elliptic factors they are in factor order, one
    per factor.  Equality and hashing read only the linear part and the
    translation.
    """

    __slots__ = ("linear", "translation", "eigenvalues")

    def __init__(
        self,
        linear: tuple[tuple[int, ...], ...],
        translation: tuple[Fraction, ...],
        eigenvalues: tuple[RootOfUnity, ...] | None,
    ):
        self.linear = linear
        self.translation = translation
        self.eigenvalues = eigenvalues

    def __eq__(self, other):
        if not isinstance(other, AffineAut):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    @property
    def rank(self) -> int:
        return len(self.linear)

    def is_identity(self) -> bool:
        return self.linear == identity(self.rank) and not any(self.translation)

    def is_translation(self) -> bool:
        return self.linear == identity(self.rank)

    def key(self):
        return (self.linear, self.translation)


def affine_identity(rank: int) -> AffineAut:
    return AffineAut(
        identity(rank),
        tuple(Fraction(0) for _ in range(rank)),
        tuple(RootOfUnity.one() for _ in range(rank // 2)),
    )


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


def compose(a: AffineAut, b: AffineAut) -> AffineAut:
    """(M, t) . (M', t') = (M M', M t' + t), translation reduced mod Lambda.

    The eigenvalues are left None; close_group assigns them by the datum's rule.
    """
    linear = mat_mul(a.linear, b.linear)
    translation = vec_mod1(vec_add(mat_vec(a.linear, b.translation), a.translation))
    return AffineAut(linear, translation, None)


class ActionGroup:
    """A finite closed group of affine automorphisms, identity first.

    ``edges[i][s]`` is the index of elements[i] . generators[s], and element
    j > 0 was first reached along the edge ``tree[j] = (parent, s)``.  The
    tree spells every element as a word in the generators, so a product is
    read off the edges and no element is multiplied after the closure.
    """

    __slots__ = ("generators", "elements", "edges", "_tree", "_index")

    def __init__(self, generators, elements, edges, tree):
        self.generators = generators
        self.elements = elements
        self.edges = edges
        self._tree = tree
        self._index = {e.key(): i for i, e in enumerate(elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, a: AffineAut) -> int:
        return self._index[a.key()]

    def compose_indices(self, i: int, j: int) -> int:
        """Index of elements[i] . elements[j]: from i, follow the edges of j's word."""
        word = []
        while j:
            j, s = self._tree[j]
            word.append(s)
        for s in reversed(word):
            i = self.edges[i][s]
        return i

    def element_order(self, i: int) -> int:
        order = 1
        j = i
        while j != 0:
            j = self.compose_indices(j, i)
            order += 1
        return order

    def is_abelian(self) -> bool:
        """G is abelian iff its generators commute."""
        gens = [self.index_of(g) for g in self.generators]
        return all(
            self.edges[a][t] == self.edges[b][s]
            for s, a in enumerate(gens)
            for t, b in enumerate(gens[:s])
        )

    def is_cyclic(self) -> bool:
        return any(self.element_order(i) == self.order for i in range(self.order))


def close_group(
    gens,
    torus: TorusDatum,
    cap: int = DEFAULT_CLOSURE_CAP,
    eigenvalue_table=None,
) -> ActionGroup:
    """Close the generators under composition mod Lambda, keeping the Cayley edges.

    Walks the element list breadth-first while it grows, identity first, and
    records edges[i][s] = index of elements[i] . gens[s].  A new element gets
    its eigenvalues once.  With elliptic factors each linear part is one unit
    of each factor's endomorphism ring, so they are the factorwise product of
    the parent's and the generator's, in factor order.  Raw data take them
    from ``eigenvalue_table`` (keyed by linear part) or else from the
    characteristic polynomial, which raises MissingEigenvalueData when it
    cannot split conjugate pairs.  Raises LatticeNotPreserved for
    non-unimodular or non-integral linear parts and NotClosedWithinCap past
    the cap.
    """
    gens = tuple(gens)
    rank = torus.rank
    table = dict(eigenvalue_table or {})
    for g in gens:
        if len(g.linear) != rank:
            raise LatticeNotPreserved("generator rank mismatch")
        if not all(isinstance(x, int) for row in g.linear for x in row):
            raise LatticeNotPreserved("linear part must be integral on the lattice")
        if abs(mat_det(g.linear)) != 1:
            raise LatticeNotPreserved("linear part is not unimodular")
        table.setdefault(g.linear, g.eigenvalues)

    elements = [affine_identity(rank)]
    index = {elements[0].key(): 0}
    edges = []
    tree = [None]
    for i, e in enumerate(elements):  # the list grows while it is walked
        row = []
        for s, g in enumerate(gens):
            product = compose(e, g)
            key = product.key()
            if key not in index:
                if torus.factors is not None:
                    eig = tuple(x * y for x, y in zip(e.eigenvalues, g.eigenvalues))
                else:
                    eig = table.get(product.linear) or _eigenvalues_from_char_poly(product.linear)
                    table[product.linear] = eig
                if len(elements) >= cap:
                    raise NotClosedWithinCap(f"group closure exceeds cap {cap}")
                index[key] = len(elements)
                elements.append(AffineAut(product.linear, product.translation, eig))
                tree.append((i, s))
            row.append(index[key])
        edges.append(tuple(row))
    return ActionGroup(gens, tuple(elements), tuple(edges), tuple(tree))


def affine_from_factor_action(torus: TorusDatum, blocks, translation_product) -> AffineAut:
    """Build a generator from per-factor 2x2 blocks and a product-coordinate translation.

    The block-diagonal matrix is rewritten in lattice coordinates; if it does
    not preserve the enlarged lattice, the action does not descend to A and
    LatticeNotPreserved is raised.
    """
    if torus.factors is None:
        raise LatticeNotPreserved("factor actions need a torus with factor provenance")
    blocks = tuple(tuple(map(tuple, b)) for b in blocks)
    if len(blocks) != len(torus.factors):
        raise LatticeNotPreserved("one 2x2 block per factor is required")
    rank = torus.rank
    big = [[0] * rank for _ in range(rank)]
    for f, b in enumerate(blocks):
        for i in range(2):
            for j in range(2):
                big[2 * f + i][2 * f + j] = b[i][j]
    linear_rows = mat_mul(mat_mul(torus.lam_basis_inv, tuple(map(tuple, big))), torus.lam_basis)
    if not all(vec_is_integral(row) for row in linear_rows):
        raise LatticeNotPreserved("linear part does not preserve the enlarged lattice")
    linear = tuple(tuple(int(x) for x in row) for row in linear_rows)
    eig = tuple(factor_block_eigenvalue(f, b) for f, b in zip(torus.factors, blocks))
    translation = vec_mod1(torus.to_lattice_coords(as_fractions(translation_product)))
    return AffineAut(linear, translation, eig)


def affine_raw(linear, translation, eigenvalues) -> AffineAut:
    """Raw-mode generator: integer matrix, lattice-coordinate translation, declared eigenvalues."""
    linear = tuple(tuple(int(x) for x in row) for row in linear)
    return AffineAut(linear, vec_mod1(as_fractions(translation)), tuple(eigenvalues))


def has_fixed_point(a: AffineAut, torus: TorusDatum) -> bool:
    """Exact decision: does g(x) = x have a solution on A = V/Lambda?

    g(x) = x iff (M - I)x = -t + lambda for some lattice vector, i.e. iff the
    coset t + colspace(M - I) meets Z^rank.
    """
    n = a.rank
    diff_cols = [
        tuple(a.linear[i][j] - (1 if i == j else 0) for i in range(n)) for j in range(n)
    ]
    span = Sublattice.from_int_columns(n, [c for c in diff_cols if any(c)])
    return coset_meets_lattice(span, a.translation)


class ValidationReport(NamedTuple):
    """Structured outcome of all hyperelliptic-datum checks."""

    group_order: int
    fixed_point_elements: tuple[int, ...]
    nonidentity_translations: tuple[int, ...]
    form_violations: tuple[int, ...]
    eigenvalue_violations: tuple[str, ...]
    faithful: bool

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
    def passed(self) -> bool:
        return (
            self.free
            and not self.nonidentity_translations
            and self.form_invariant
            and self.eigenvalues_consistent
            and self.faithful
        )

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

    __slots__ = ("torus", "group", "form", "builder_mode", "j_stability_assumed", "_report")

    def __init__(
        self,
        torus: TorusDatum,
        group: ActionGroup,
        form: AlternatingForm,
        builder_mode: bool = True,
        j_stability_assumed: bool = False,
    ):
        self.torus = torus
        self.group = group
        self.form = form
        self.builder_mode = builder_mode
        self.j_stability_assumed = j_stability_assumed
        self._report = None

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
            f"element {index}: eigenvalues {sorted(counts.items())} do not match "
            f"characteristic polynomial factors {sorted(expected.items())}"
        )
    return None


def validate(d: HyperellipticDatum) -> ValidationReport:
    """Run every hyperelliptic-variety check and cache the report on the datum.

    Freeness, translations and eigenvalues are checked on every element.  The
    form is checked on the generators only: M^T E M = E for the generators
    implies it for every product of them, so on failure form_violations
    lists the failing generators' element indices.
    """
    fixed = []
    translations = []
    form_bad = sorted(
        {d.group.index_of(g) for g in d.group.generators if not d.form.is_invariant_under(g.linear)}
    )
    eig_bad = []
    linears = set()
    for i, e in enumerate(d.group.elements):
        if i == 0:
            linears.add(e.linear)
            continue
        if has_fixed_point(e, d.torus):
            fixed.append(i)
        if e.is_translation():
            translations.append(i)
        problem = _check_eigenvalues(e, i)
        if problem:
            eig_bad.append(problem)
        linears.add(e.linear)
    report = ValidationReport(
        group_order=d.group.order,
        fixed_point_elements=tuple(fixed),
        nonidentity_translations=tuple(translations),
        form_violations=tuple(form_bad),
        eigenvalue_violations=tuple(eig_bad),
        faithful=len(linears) == d.group.order,
    )
    d._report = report
    return report


def quotient_by_translations(d: HyperellipticDatum) -> HyperellipticDatum:
    """Normalize T/G to (T/H)/(G/H) where H is the translation subgroup.

    The translation subgroup is normal; its vectors enlarge the period
    lattice, and the group descends with the translations removed.  Data with
    no nonidentity translations are returned unchanged (idempotent).
    """
    translation_vectors = [
        e.translation for e in d.group.elements if e.is_translation() and not e.is_identity()
    ]
    if not translation_vectors:
        return d
    rank = d.rank
    enlarged = Sublattice.standard(rank).sum(
        Sublattice.from_rat_columns(rank, translation_vectors)
    )
    # columns of s: new lattice basis in old lattice coordinates
    s = transpose(tuple(tuple(Fraction(x, enlarged.den) for x in c) for c in enlarged.cols))
    s_inv = mat_inv(s)
    new_lam_basis = mat_mul(d.torus.lam_basis, s)
    new_torus = TorusDatum(
        rank,
        tuple(tuple(Fraction(x) for x in row) for row in new_lam_basis),
        d.torus.factors,
    )
    new_gens = []
    seen = set()
    for g in d.group.generators + d.group.elements:
        linear_rows = mat_mul(mat_mul(s_inv, g.linear), s)
        if not all(vec_is_integral(row) for row in linear_rows):
            raise LatticeNotPreserved("translation subgroup is not normal (internal error)")
        linear = tuple(tuple(int(x) for x in row) for row in linear_rows)
        translation = vec_mod1(mat_vec(s_inv, g.translation))
        image = AffineAut(linear, translation, g.eigenvalues)
        if not image.is_identity() and image.key() not in seen:
            seen.add(image.key())
            new_gens.append(image)
    new_group = close_group(tuple(new_gens), new_torus)
    expected_order = d.group.order // (len(translation_vectors) + 1)
    if new_group.order != expected_order:
        raise GroupInvariantError(
            f"translation quotient has order {new_group.order}, expected {expected_order}"
        )
    new_form = AlternatingForm(
        tuple(
            tuple(Fraction(x) for x in row)
            for row in mat_mul(mat_mul(transpose(s), d.form.matrix), s)
        )
    )
    return HyperellipticDatum(
        new_torus,
        new_group,
        new_form,
        builder_mode=d.builder_mode,
        j_stability_assumed=d.j_stability_assumed,
    )
