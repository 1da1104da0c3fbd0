"""The Albanese pipeline for a validated hyperelliptic datum.

Given X = A/G this computes, exactly and in lattice coordinates:

  * the fixed subtorus A0 and its invariant complement A1, the two
    saturated kernels of the group average,
  * the kernel K of the addition isogeny A0 x A1 -> A with its two
    isomorphic projections K0, K1,
  * the splitting of every translation part along V0 + V1,
  * the subgroup H of elements whose V0-translation lies in K0,
  * the Albanese lattice Lambda_B (so Alb(X) = V0/Lambda_B) with the
    invariant factors of Lambda_B/Lambda_0,
  * the Albanese fiber A1/H, classified from H's structure in G and, where
    the recursion descends into it, written as a new certified datum.

Every object is read through the group average of the linear parts,

  P0 = S/|G|,  S = sum_g M_g the integer group sum,

the symmetric idempotent of G: it is the projection onto V0 = V^G along
V1 = ker P0, the sum of the nontrivial isotypic components, and I - P0
projects onto V1 along V0.  V1 is also the form-orthogonal complement of
V0: for a G-invariant form E, E(v0, (g - 1) w) = E(g^-1 v0, w) - E(v0, w)
= 0 for v0 in V0, and the (g - 1) w span V1.  So the form restricted to V0
is nondegenerate whenever E is, and the pipeline never reads E.  Lambda_0
is the saturated kernel of |G| I - S.  S has one column Hermite form
(h, v): Lambda_1 = ker P0 is spanned by the columns of v over the zero
columns of h, whose nonzero columns are |G| times a basis of P0(Z^n), as
S = (|G|/D) D P0 for D the lcm of P0's denominators, and Euclid's steps on
(c a, c b) are its steps on (a, b): the form of c m is c times m's, with the
same transform.  K0 and K1 are the images of K under P0 and I - P0.  Every
vector is integers over a held denominator: t0(g) = P0 tau(g) is the row
S shift over |G| den, and Lambda_B = P0(Z^n) + <t0(g) : g a generator> is
one Hermite reduction of h's nonzero columns and the t0 rows over |G| D.

Everything is certified by construction.  G fixes V0 pointwise and keeps V1
stable, so P0 M_g = P0 for every g; that makes t0 a homomorphism from G onto
Lambda_B/P0(Z^n), with P0(Z^n) = Lambda_0 + K0, so t0 is known from the
generators and H, its kernel, is read off the Cayley tree.  The pipeline
checks the cheap certificates these theorems supply, not the consequences
element by element: S M_g = S per generator (which also certifies that
the average ran over a closed group), and the two index identities
|G| = |H| [G : H] and [G : H] |K| = [Lambda_B : Lambda_0], for [G : H] the
number of classes t0 takes modulo P0(Z^n); the second is
[G : H] = [Lambda_B : P0(Z^n)] as [P0(Z^n) : Lambda_0] = |K0|.  K0 and K1
need no certificate: an x in Z^n with P0 x in Lambda_0 has x - P0 x in
Z^n meet V1 = Lambda_1, so P0 is injective on K, and so is I - P0.  A failed
certificate raises PipelineInvariantError (NotASubgroup for H), which
signals a bug rather than bad input.

The fiber A1/H is H acting faithfully (below) on A1: its class is H's
structure, read on G's Cayley table (``classify_fiber``), and its canonical
order comes off each h's eigenvalues less q ones, which must be 1.  Its
datum, and the rewrite's certificates (saturation, lattice kept, distinct
images, closure), are made only where ``run_pipeline(recurse=True)`` descends,
never at q = 0; ``tests/test_certificates.py`` runs them and ``validate`` on
every level.  The datum on basis B is valid by theorem (h in H):
free: h has a w in Z^n with P0 w = t0(h), so tau(h) - w lies in V1 and is
  h's shift on A1 mod Lambda_1; a fixed point of h on A1 is one on A;
faithful: M_h = I on V1 and on V0 makes h a translation of G, so h = 1
  (``rewrite_on_lattice`` checks that distinct h have distinct images, and
  ``quotient_by_translations`` that no image but 1's is a translation);
form: M B = B L gives L^T (B^T E B) L = B^T E B;
eigenvalues: rho|V0 is trivial, and det rho|V1 = det rho is a character of G.
"""

from __future__ import annotations

from math import lcm, prod
from typing import NamedTuple

from .action import (
    ActionGroup,
    HyperellipticDatum,
    ValidationReport,
    quotient_by_translations,
    rewrite_on_lattice,
    validate,
)
from .cyclotomic import RootOfUnity
from .exactlin import (
    FiniteAbelianGroup,
    Sublattice,
    column_hermite,
    column_lists,
    common_denominator,
    hermite_coords,
    hermite_kernel,
    kernel_lattice,
    list_product,
    mat_vec,
    quotient_group,
)
from .torus import TorusDatum, factor_plane_columns, identify_factor_subspace

# only perfbench's compute_K size hook reads this; nothing enumerates K any more
K_ENUMERATION_CAP = 100_000


class OddRank(ValueError):
    """The fixed lattice has odd rank: the complex-structure data is inconsistent."""


class NotASubgroup(RuntimeError):
    """H failed its subgroup certificate; impossible for valid data, so a pipeline bug."""


class PipelineInvariantError(RuntimeError):
    """A theorem-backed consistency check failed; signals an internal bug."""


class Decomposition(NamedTuple):
    """A ~ (A0 x A1)/K in lattice coordinates: K's paired projections, S = |G| P0, S's form."""

    lambda0: Sublattice
    lambda1: Sublattice
    k: FiniteAbelianGroup
    k0: FiniteAbelianGroup
    k1: FiniteAbelianGroup
    group_sum: tuple[tuple[int, ...], ...]
    hermite: tuple  # column_hermite(S): |G|/D times D P0's, one transform (module docstring)

    @property
    def q(self) -> int:
        return self.lambda0.rank // 2


class FiberClassification(NamedTuple):
    kind: str  # "abelian" | "hyperelliptic"
    dim: int
    holonomy_order: int
    cyclic: bool
    holonomy_invariant_factors: tuple[int, ...] | None  # None for nonabelian holonomy
    element_orders: tuple[int, ...]


class AlbaneseReport(NamedTuple):
    q: int
    dim: int
    group_order: int
    decomposition: Decomposition
    albanese_lattice: Sublattice
    albanese_isogeny_factors: tuple[int, ...]
    subgroup_h: tuple[int, ...]
    fiber_class: FiberClassification
    fiber_canonical_order: int
    albanese_factor_indices: tuple[int, ...] | None
    fiber_factor_indices: tuple[int, ...] | None
    fiber: HyperellipticDatum | None = None  # set, with fiber_report, where recursion descends
    fiber_report: "AlbaneseReport | None" = None


def _require_validated(d: HyperellipticDatum) -> None:
    report = d._report or validate(d)  # a fiber's report is certified by compute_fiber
    if not report.passed:
        raise PipelineInvariantError(
            "pipeline requires a datum that passes validation: " + "; ".join(report.failures())
        )


def compute_A0(s, order: int) -> Sublattice:
    """Lambda_0 = Lambda intersect V0, the saturated kernel of |G| I - S (even rank)."""
    complement = [[order * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(s)]
    lam0 = kernel_lattice(complement)
    if lam0.rank % 2 != 0:
        raise OddRank(f"fixed lattice has odd rank {lam0.rank}")
    return lam0


def group_sum(d: HyperellipticDatum) -> tuple[tuple[int, ...], ...]:
    """S = sum_g M_g over the closed group: P0 = S/|G| projects onto V0 along V1."""
    return tuple(
        tuple(map(sum, zip(*rows))) for rows in zip(*(e.linear for e in d.group.elements))
    )


def compute_A1(hermite) -> Sublattice:
    """Lambda_1 = Lambda intersect V1, the saturated kernel of P0, off S's Hermite form."""
    return hermite_kernel(hermite)


def compute_K(d: HyperellipticDatum, lambda0: Sublattice, s) -> Decomposition:
    """K = Lambda/(Lambda_0 + Lambda_1) and its paired projections K0, K1.

    Lambda_1 is read off S's column Hermite form, made here.  I - P0 is
    the projection onto V1 along V0, so K0 is generated by the P0 g and K1
    by the g - P0 g, for g the generators of K, each reduced modulo its lattice.
    Both projections are injective on K (module docstring), so K0 and K1
    keep K's invariant factors.
    """
    rank = d.rank
    hermite = column_hermite(s)
    lambda1 = compute_A1(hermite)
    small = Sublattice.from_int_columns(rank, lambda0.cols + lambda1.cols)
    k = quotient_group(Sublattice.standard(rank), small)
    order = d.group.order
    k0_gens, k1_gens = [], []
    for den, gen in k.generators:  # P0 gen = S gen / (|G| den)
        p0 = mat_vec(s, gen)
        k0_gens.append(lambda0.reduce_mod(order * den, p0))
        k1_gens.append(lambda1.reduce_mod(order * den, [order * x - y for x, y in zip(gen, p0)]))
    k0 = FiniteAbelianGroup(k.invariant_factors, tuple(k0_gens))
    k1 = FiniteAbelianGroup(k.invariant_factors, tuple(k1_gens))
    return Decomposition(lambda0, lambda1, k, k0, k1, s, hermite)


def decompose_cocycle(d: HyperellipticDatum, dec: Decomposition):
    """The V0 parts t0(g) = P0 tau(g) of the generators' translations, over one denominator.

    The cocycle identity t0(gh) = t0(g) + t0(h) mod Lambda_0 + K0 follows from
    P0 M_g = P0, that is S M_g = S, because tau(gh) = M_g tau(h) + tau(g) -
    lambda and P0(Z^n) = Lambda_0 + K0; the identity for every element
    follows from the generators.  t0(g) is S shift / (|G| den): the result
    is (|G| D, rows), D the lcm of the den, with S shift (D / den) in row s.
    """
    gens = [d.group.elements[i] for i in d.group.gens]
    s = dec.group_sum
    s_rows = [list(row) for row in s]
    for g in gens:
        if list_product(s, column_lists(g.linear)) != s_rows:
            raise PipelineInvariantError("a generator moves V0 or does not keep V1 stable")
    den = lcm(*(g.den for g in gens))
    rows = tuple(mat_vec(s, [x * (den // g.den) for x in g.shift]) for g in gens)
    return d.group.order * den, rows


def compute_H(d: HyperellipticDatum, dec: Decomposition, t0):
    """Indices of H = {g : t0(g) in P0(Z^n)}, and [G : H], the number of classes.

    t0 is a homomorphism modulo P0(Z^n), so an element's class, the
    coordinates of |G| t0 against the nonzero columns of ``dec.hermite``
    (|G| times a basis of P0(Z^n)) mod 1, kept as integers mod their common
    denominator, is its tree parent's plus its edge generator's; H is the
    class 0; |G| t0 is t0's rows over D.  ``run_pipeline`` checks both
    counts against |G| and [Lambda_B : Lambda_0].
    """
    pivots = [c for c in column_lists(dec.hermite[0]) if any(c)]
    den, steps = common_denominator([hermite_coords(pivots, row) for row in t0[1]])
    den *= t0[0] // d.group.order  # the steps are |G| t0's coordinates times den
    classes = [(0,) * len(pivots)]
    for parent, s in d.group.tree[1:]:
        classes.append(tuple((a + b) % den for a, b in zip(classes[parent], steps[s])))
    members = tuple(i for i, c in enumerate(classes) if not any(c))
    return members, len(set(classes))


def compute_albanese(d: HyperellipticDatum, dec: Decomposition, t0):
    """Albanese lattice Lambda_B in V0 and the invariant factors of Lambda_B/Lambda_0.

    Lambda_B = P0(Z^n) + <t0(g) : g a generator of G>, reduced from the
    rank(Lambda_0) pivot columns of S's Hermite form, a basis of |G| P0(Z^n)
    = |G| (Lambda_0 + K0), and t0's rows, all over |G| D; t0 is a
    homomorphism modulo P0(Z^n).
    """
    den, rows = t0
    scale = den // d.group.order
    image = [[x * scale for x in c] for c in column_lists(dec.hermite[0]) if any(c)]
    lam_b = Sublattice.from_int_columns(d.rank, image + list(rows), den)
    if lam_b.rank != dec.lambda0.rank:
        raise PipelineInvariantError("Albanese lattice rank differs from rank Lambda_0")
    factors = quotient_group(lam_b, dec.lambda0).invariant_factors
    return lam_b, factors


def fiber_eigenvalues(d: HyperellipticDatum, q: int, h_indices, factor_indices):
    """Each h in H as (its index in G, its eigenvalues on A1), identity first.

    They are h's on Lambda_1's factors, if it has them (``factor_indices``, in
    factor order; h's must be 1 on the others), else all but its first q ones.
    """
    members = []
    for i in h_indices:
        eig = d.group.elements[i].eigenvalues
        kept = factor_indices  # factor order: the order of the fiber torus's factors
        if kept is None:  # drop the first q ones
            ones = [k for k, z in enumerate(eig) if z.is_one()][:q]
            kept = [k for k in range(len(eig)) if k not in ones]
        dropped = [eig[k] for k in range(len(eig)) if k not in kept]
        if len(dropped) != q or not all(z.is_one() for z in dropped):
            raise PipelineInvariantError("element lacks eigenvalue 1 on the q Albanese directions")
        members.append((i, tuple(eig[k] for k in kept)))
    return tuple(members)


def compute_fiber(d: HyperellipticDatum, dec: Decomposition, members, factor_indices):
    """The fiber datum over the origin, A1 with H's action; built only on descent.

    ``members`` are ``fiber_eigenvalues``'s pairs.  B, the basis of Lambda_1 =
    Lambda meet V1, is the product coordinates of its factors (``factor_indices``,
    columns of lam_basis_inv) if it has them, else its Hermite basis.  h acts
    by (L M_h B, L tau(h) mod 1), for L the integer left inverse of B that
    ``rewrite_on_lattice`` reads off one Hermite form, so h's V1 shift
    tau(h) - w is never formed; products are read off G's table.  The group
    has order |H|, and its cached report is the one the module docstring proves.
    """
    if factor_indices is None:
        cols, factors = dec.lambda1.cols, None
    else:
        cols = factor_plane_columns(d.torus, factor_indices)
        factors = tuple(d.torus.factors[i] for i in factor_indices)
    torus = TorusDatum(Sublattice.standard(len(cols)), factors)
    fiber = rewrite_on_lattice(d, cols, torus, members)
    fiber._report = ValidationReport(fiber.group.order, (), (), (), ())
    return fiber


def _abelian_invariant_factors(orders) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group from its element orders, one per element.

    For each prime p, #{x : x^(p^k) = 1} = p^(s_k), and s_k - s_(k-1) counts
    the cyclic p-parts of order at least p^k.
    """
    n = len(orders)
    factors = []  # largest first; entry j collects the j-th largest p-part of each p
    m = n
    p = 2
    while m > 1:
        if m % p:
            p += 1
            continue
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        at_least = []  # at_least[k - 1]: cyclic p-parts of order at least p^k
        prev = 0
        for k in range(1, e + 1):
            count = sum(1 for o in orders if p**k % o == 0)
            s = 0
            while count % p == 0:
                count //= p
                s += 1
            if count != 1:
                raise PipelineInvariantError(f"the {p}^{k}-torsion count is not a power of {p}")
            at_least.append(s - prev)
            prev = s
        for j in range(at_least[0]):
            if j == len(factors):
                factors.append(1)
            factors[j] *= p ** sum(1 for c in at_least if c > j)
    if prod(factors) != n:
        raise PipelineInvariantError("no abelian structure matches the element orders")
    return tuple(reversed(factors))


def classify_fiber(group: ActionGroup, h_indices, dim: int) -> FiberClassification:
    """A1/H of dimension dim from H's structure, read on G's Cayley table.

    A fiber is faithful, so its holonomy is H: abelian iff H is trivial.  H's
    element orders are G's at its members; H is cyclic iff |H| is among them,
    and abelian iff G is, or else iff its members commute in G.
    """
    if len(h_indices) == 1:
        return FiberClassification("abelian", dim, 1, True, (), (1,))
    orders = tuple(sorted(group.orders[i] for i in h_indices))
    cyclic = len(h_indices) in orders
    pairs = ((a, b) for a in h_indices for b in h_indices if a < b)
    abelian = group.is_abelian() or all(
        group.compose_indices(a, b) == group.compose_indices(b, a) for a, b in pairs)
    invariants = _abelian_invariant_factors(orders) if abelian else None
    return FiberClassification("hyperelliptic", dim, len(h_indices), cyclic, invariants, orders)


def run_pipeline(d: HyperellipticDatum, recurse: bool = False) -> AlbaneseReport:
    """Full Albanese computation; optionally recurses into hyperelliptic fibers."""
    _require_validated(d)
    n = d.dim
    s = group_sum(d)
    lambda0 = compute_A0(s, d.group.order)
    dec = compute_K(d, lambda0, s)
    t0 = decompose_cocycle(d, dec)
    h_indices, h_index = compute_H(d, dec, t0)
    lam_b, factors = compute_albanese(d, dec, t0)
    if d.group.order != len(h_indices) * h_index or h_index * dec.k.order != prod(factors):
        raise NotASubgroup(
            f"|G| != |H| [G : H] or [G : H] |K| != [Lambda_B : Lambda_0] with"
            f" |H| = {len(h_indices)}, [G : H] = {h_index}"
        )
    fiber_factor_indices = identify_factor_subspace(d.torus, dec.lambda1)
    members = fiber_eigenvalues(d, dec.q, h_indices, fiber_factor_indices)
    fiber_class = classify_fiber(d.group, h_indices, n - dec.q)
    if dec.q == n - 1 and d.group.order > 1 and not d.group.is_cyclic():
        raise PipelineInvariantError("irregularity n - 1 forces a cyclic group")
    if d.group.is_cyclic() and fiber_class.kind == "hyperelliptic" and not fiber_class.cyclic:
        raise PipelineInvariantError("cyclic groups must give abelian or cyclic fibers")
    report = AlbaneseReport(
        q=dec.q,
        dim=n,
        group_order=d.group.order,
        decomposition=dec,
        albanese_lattice=lam_b,
        albanese_isogeny_factors=factors,
        subgroup_h=h_indices,
        fiber_class=fiber_class,
        fiber_canonical_order=lcm(*(prod(e, start=RootOfUnity.one()).order for _, e in members)),
        albanese_factor_indices=identify_factor_subspace(d.torus, lambda0) or None,
        fiber_factor_indices=fiber_factor_indices,
    )
    if recurse and fiber_class.kind == "hyperelliptic" and fiber_class.dim < n:
        fiber = quotient_by_translations(compute_fiber(d, dec, members, fiber_factor_indices))
        report = report._replace(fiber=fiber, fiber_report=run_pipeline(fiber, recurse=True))
    return report
