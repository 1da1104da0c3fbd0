"""The Albanese pipeline for a validated hyperelliptic datum.

Given X = A/G this computes, exactly and in lattice coordinates:

  * the fixed subtorus A0 (saturated kernel lattice of the generators),
  * its invariant complement A1 cut out by the invariant alternating form,
  * the kernel K of the addition isogeny A0 x A1 -> A with its two
    isomorphic projections K0, K1,
  * the splitting of every translation part along V0 + V1,
  * the subgroup H of elements whose V0-translation lies in K0,
  * the Albanese lattice Lambda_B (so Alb(X) = V0/Lambda_B) with the
    invariant factors of Lambda_B/Lambda_0,
  * the Albanese fiber A1/H as a new datum, normalized and classified.

Everything is certified by construction.  G fixes V0 pointwise and keeps V1
stable, so P0 M_g = P0 for every g, where P0 is the projection onto V0 along
V1; that makes t0 a homomorphism modulo Lambda_0 + K0 = P0(Z^n) and H its
kernel.  The pipeline checks the cheap certificates these theorems supply,
not the consequences element by element: P0 M_g = P0 per generator, H
membership by one integer solve of P0 w = t0(g) per element, |K0| = |K1| =
|K| from the orders of two lattice quotients, and |H| dividing |G|.  A failed
certificate raises PipelineInvariantError (NotASubgroup for H), which signals
a bug rather than bad input.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .action import (
    ActionGroup,
    AffineAut,
    HyperellipticDatum,
    close_group,
    quotient_by_translations,
    validate,
)
from .exactlin import (
    FiniteAbelianGroup,
    Sublattice,
    column_hermite,
    integer_solution,
    kernel_lattice,
    mat_det,
    mat_inv,
    mat_mul,
    mat_vec,
    quotient_group,
    transpose,
    vec_denominator,
    vec_mod1,
    vec_sub,
)
from .torus import AlternatingForm, TorusDatum, identify_factor_subspace

# only perfbench's compute_K size hook reads this; nothing enumerates K any more
K_ENUMERATION_CAP = 100_000


class OddRank(ValueError):
    """The fixed lattice has odd rank: the complex-structure data is inconsistent."""


class DegenerateRestriction(ValueError):
    """The invariant form restricted to V0 is singular (rejected raw input)."""


class NotASubgroup(RuntimeError):
    """H failed its subgroup certificate; impossible for valid data, so a pipeline bug."""


class PipelineInvariantError(RuntimeError):
    """A theorem-backed consistency check failed; signals an internal bug."""


class Decomposition(NamedTuple):
    """A ~ (A0 x A1)/K in lattice coordinates, with the K projections paired."""

    lambda0: Sublattice
    lambda1: Sublattice
    k: FiniteAbelianGroup
    k0: FiniteAbelianGroup
    k1: FiniteAbelianGroup
    proj0: tuple[tuple[Fraction, ...], ...]
    proj1: tuple[tuple[Fraction, ...], ...]

    @property
    def q(self) -> int:
        return self.lambda0.rank // 2


class CocycleTable(NamedTuple):
    """V0 part of each element's translation lift (indexed like the group)."""

    t0: tuple[tuple[Fraction, ...], ...]


class FiberClassification(NamedTuple):
    kind: str  # "abelian" | "hyperelliptic"
    dim: int
    holonomy_order: int
    cyclic: bool
    holonomy_invariant_factors: tuple[int, ...] | None  # None for nonabelian holonomy
    element_orders: tuple[int, ...]

    def describe(self) -> str:
        if self.kind == "abelian":
            return f"abelian of dimension {self.dim}"
        if self.holonomy_invariant_factors is not None:
            structure = " x ".join(f"Z/{d}" for d in self.holonomy_invariant_factors)
        else:
            structure = f"nonabelian of order {self.holonomy_order}"
        return f"hyperelliptic of dimension {self.dim} with holonomy {structure}"


class AlbaneseReport(NamedTuple):
    q: int
    dim: int
    group_order: int
    decomposition: Decomposition
    cocycle: CocycleTable
    albanese_lattice: Sublattice
    albanese_isogeny_factors: tuple[int, ...]
    subgroup_h: tuple[int, ...]
    fiber: HyperellipticDatum
    fiber_class: FiberClassification
    albanese_factor_indices: tuple[int, ...] | None
    fiber_factor_indices: tuple[int, ...] | None
    fiber_report: "AlbaneseReport | None" = None


def _require_validated(d: HyperellipticDatum) -> None:
    if d._report is None:
        validate(d)
    if not d._report.passed:
        raise PipelineInvariantError(
            "pipeline requires a datum that passes validation: "
            + "; ".join(d._report.failures())
        )


def compute_A0(d: HyperellipticDatum) -> Sublattice:
    """Saturated fixed lattice of the generators (Lambda_0, even rank)."""
    rank = d.rank
    rows = []
    for g in d.group.generators:
        if g.is_identity():
            continue
        for i in range(rank):
            row = tuple(g.linear[i][j] - (1 if i == j else 0) for j in range(rank))
            rows.append(row)
    if not rows:
        return Sublattice.standard(rank)
    lam0 = kernel_lattice(tuple(rows))
    if lam0.rank % 2 != 0:
        raise OddRank(f"fixed lattice has odd rank {lam0.rank}")
    return lam0


def compute_A1(d: HyperellipticDatum, lambda0: Sublattice) -> Sublattice:
    """Lambda_1 = Lambda intersect V1, the form-orthogonal complement of V0."""
    rank = d.rank
    if lambda0.rank == 0:
        return Sublattice.standard(rank)
    b0 = transpose(lambda0.cols)  # rank x r0, integer
    gram = mat_mul(mat_mul(transpose(b0), d.form.matrix), b0)
    if mat_det(gram) == 0:
        raise DegenerateRestriction("form restricted to V0 is singular")
    # rows of the constraint: E(b, .) = 0 for each Lambda_0 basis vector b
    constraint = mat_mul(transpose(b0), d.form.matrix)  # r0 x rank, rational
    den = 1
    for row in constraint:
        for x in row:
            den = lcm(den, Fraction(x).denominator)
    int_rows = tuple(tuple(int(x * den) for x in row) for row in constraint)
    lam1 = kernel_lattice(int_rows)
    if lambda0.rank + lam1.rank != rank:
        raise DegenerateRestriction("V0 and its complement do not span V")
    b1 = lam1.basis_vectors()
    for g in d.group.generators:
        for col in b1:
            image = mat_vec(g.linear, col)
            if lam1.coords_of(image) is None:
                raise PipelineInvariantError("V1 is not stable under the group action")
    return lam1


def _projectors(lambda0: Sublattice, lambda1: Sublattice):
    rank = lambda0.ambient_rank
    cols = lambda0.basis_vectors() + lambda1.basis_vectors()
    b = transpose(cols)  # rank x rank
    c = mat_inv(b)
    r0 = lambda0.rank
    if r0 == 0:
        zero = tuple(tuple(Fraction(0) for _ in range(rank)) for _ in range(rank))
        return zero, tuple(tuple(Fraction(int(i == j)) for j in range(rank)) for i in range(rank))
    if lambda1.rank == 0:
        zero = tuple(tuple(Fraction(0) for _ in range(rank)) for _ in range(rank))
        return tuple(tuple(Fraction(int(i == j)) for j in range(rank)) for i in range(rank)), zero
    b0 = transpose(lambda0.basis_vectors())
    b1 = transpose(lambda1.basis_vectors())
    c0 = c[:r0]
    c1 = c[r0:]
    return mat_mul(b0, c0), mat_mul(b1, c1)


def compute_K(
    d: HyperellipticDatum, lambda0: Sublattice, lambda1: Sublattice
) -> Decomposition:
    """K = Lambda/(Lambda_0 + Lambda_1) and its paired projections K0, K1."""
    rank = d.rank
    small = Sublattice.from_int_columns(rank, lambda0.cols + lambda1.cols)
    big = Sublattice.standard(rank)
    k = quotient_group(big, small)
    proj0, proj1 = _projectors(lambda0, lambda1)

    k0_gens = []
    k1_gens = []
    for gen in k.generators:
        p0, p1 = mat_vec(proj0, gen), mat_vec(proj1, gen)
        k0_gens.append(lambda0.reduce_mod(p0) if lambda0.rank else p0)
        k1_gens.append(lambda1.reduce_mod(p1) if lambda1.rank else p1)
    k0 = FiniteAbelianGroup(k.invariant_factors, tuple(k0_gens))
    k1 = FiniteAbelianGroup(k.invariant_factors, tuple(k1_gens))
    # both projections are injective on K: each image Ki has order |K|
    if k.generators:
        for lam, ki in ((lambda0, k0), (lambda1, k1)):
            span = lam.sum(Sublattice.from_rat_columns(rank, ki.generators))
            if quotient_group(span, lam).order != k.order:
                raise PipelineInvariantError("K projections are not injective")
    return Decomposition(lambda0, lambda1, k, k0, k1, proj0, proj1)


def _scaled_proj0(dec: Decomposition) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(den, den * P0) with den the least common denominator of P0's entries."""
    den = lcm(*map(vec_denominator, dec.proj0))
    return den, tuple(tuple(int(x * den) for x in row) for row in dec.proj0)


def decompose_cocycle(d: HyperellipticDatum, dec: Decomposition) -> CocycleTable:
    """The V0 part t0(g) = P0 tau(g) of each element's canonical translation lift.

    The cocycle identity t0(gh) = t0(g) + t0(h) mod Lambda_0 + K0 follows from
    P0 M_g = P0, because tau(gh) = M_g tau(h) + tau(g) - lambda and P0(Z^n) =
    Lambda_0 + K0; the identity for every element follows from the generators.
    """
    _, p0 = _scaled_proj0(dec)
    for g in d.group.generators:
        if mat_mul(p0, g.linear) != p0:
            raise PipelineInvariantError("a generator moves V0 or does not keep V1 stable")
    return CocycleTable(tuple(mat_vec(dec.proj0, e.translation) for e in d.group.elements))


def compute_H(d: HyperellipticDatum, dec: Decomposition, table: CocycleTable):
    """Indices of H = {g : t0(g) in P0(Z^n)}, with each member's fiber shift.

    g is in H iff P0 w = t0(g) has an integer solution w; then tau(g) - w lies
    in V1 and is the fiber translation of g, congruent modulo Lambda_1 to
    t1(g) minus the V1 part of the K element paired with t0(g).  H is the
    kernel of t0 modulo P0(Z^n), so it is a subgroup; the identity being in
    H and |H| dividing |G| are checked as its certificate.
    """
    den, p0 = _scaled_proj0(dec)
    hermite = column_hermite(p0)
    members = []
    shifts = {}
    for i, e in enumerate(d.group.elements):
        w = integer_solution(hermite, tuple(x * den for x in table.t0[i]))
        if w is not None:
            members.append(i)
            shifts[i] = vec_sub(e.translation, w)
    if not members or members[0] != 0 or d.group.order % len(members) != 0:
        raise NotASubgroup(f"H has {len(members)} elements and must contain the identity "
                           f"and divide |G| = {d.group.order}")
    return tuple(members), shifts


def compute_albanese(d: HyperellipticDatum, dec: Decomposition, table: CocycleTable):
    """Albanese lattice Lambda_B in V0 and the invariant factors of Lambda_B/Lambda_0."""
    rank = d.rank
    vectors = list(dec.lambda0.basis_vectors())
    vectors.extend(dec.k0.generators)
    for g in d.group.generators:
        vectors.append(table.t0[d.group.index_of(g)])
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return Sublattice.zero(rank), ()
    lam_b = Sublattice.from_rat_columns(rank, vectors)
    if lam_b.rank != dec.lambda0.rank:
        raise PipelineInvariantError("Albanese lattice rank differs from rank Lambda_0")
    factors = quotient_group(lam_b, dec.lambda0).invariant_factors
    return lam_b, factors


def _fiber_basis(d: HyperellipticDatum, lambda1: Sublattice):
    """Basis columns for the fiber's coordinates, factor-aligned when possible."""
    indices = identify_factor_subspace(d.torus, lambda1)
    if indices is not None:
        aligned = []
        for i in indices:
            for j in (2 * i, 2 * i + 1):
                col = [Fraction(0)] * d.rank
                col[j] = Fraction(1)
                aligned.append(tuple(d.torus.to_lattice_coords(col)))
        if all(all(x.denominator == 1 for x in col) for col in aligned):
            return tuple(aligned), indices
    return lambda1.basis_vectors(), None


def compute_fiber(
    d: HyperellipticDatum,
    dec: Decomposition,
    h_indices,
    shifts,
) -> tuple[HyperellipticDatum, tuple[int, ...] | None]:
    """The fiber datum over the origin: A1 with the induced H-action.

    Each h acts by a1 -> rho(h)|V1 a1 + shift(h), with the V1 shift from
    compute_H; the datum is then normalized via quotient_by_translations by
    the caller before classification.  On a factor-aligned fiber h keeps its
    eigenvalues on the fiber's factors, in factor order, and must have
    eigenvalue 1 on the others; otherwise it drops the first q ones.
    """
    basis_cols, factor_indices = _fiber_basis(d, dec.lambda1)
    r1 = len(basis_cols)
    fiber_lattice = Sublattice.from_rat_columns(d.rank, basis_cols)
    q = dec.q
    elements = []
    for i in h_indices:
        e = d.group.elements[i]
        image_cols = []
        for col in basis_cols:
            image = mat_vec(e.linear, col)
            coords = fiber_lattice.coords_of(image)
            if coords is None or not all(c.denominator == 1 for c in coords):
                raise PipelineInvariantError("H does not preserve the fiber lattice")
            image_cols.append(tuple(int(c) for c in coords))
        linear = transpose(tuple(image_cols))
        coords = fiber_lattice.coords_of(shifts[i])
        if coords is None:
            raise PipelineInvariantError("fiber translation is outside V1")
        translation = vec_mod1(coords)
        eig = e.eigenvalues
        kept = factor_indices  # factor order: the fiber's closure multiplies factor by factor
        if kept is None:  # drop the first q ones
            ones = [k for k, z in enumerate(eig) if z.is_one()][:q]
            kept = [k for k in range(len(eig)) if k not in ones]
        dropped = [eig[k] for k in range(len(eig)) if k not in kept]
        if len(dropped) != q or not all(z.is_one() for z in dropped):
            raise PipelineInvariantError("element lacks eigenvalue 1 on the q Albanese directions")
        elements.append(AffineAut(linear, translation, tuple(eig[k] for k in kept)))
    factors = None
    if factor_indices is not None:
        factors = tuple(d.torus.factors[i] for i in factor_indices)
    fiber_torus = TorusDatum(
        r1,
        tuple(tuple(Fraction(int(i == j)) for j in range(r1)) for i in range(r1)),
        factors,
    )
    gram = AlternatingForm(
        tuple(tuple(Fraction(x) for x in row) for row in d.form.restricted_to(basis_cols))
    )
    group = close_group(tuple(e for e in elements if not e.is_identity()), fiber_torus)
    if group.order != len(h_indices):
        raise PipelineInvariantError("fiber action has the wrong order")
    fiber = HyperellipticDatum(
        fiber_torus,
        group,
        gram,
        builder_mode=factors is not None,
        j_stability_assumed=d.j_stability_assumed,
    )
    return fiber, factor_indices


def _abelian_invariant_factors(group: ActionGroup) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group from its element orders.

    For each prime p, #{x : x^(p^k) = 1} = p^(s_k), and s_k - s_(k-1) counts
    the cyclic p-parts of order at least p^k.
    """
    n = group.order
    orders = [group.element_order(i) for i in range(n)]
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
    product = 1
    for f in factors:
        product *= f
    if product != n:
        raise PipelineInvariantError("no abelian structure matches the element orders")
    return tuple(reversed(factors))


def classify_fiber(fiber: HyperellipticDatum) -> FiberClassification:
    """Abelian iff nothing but translations remain; otherwise the holonomy structure."""
    normalized = quotient_by_translations(fiber)
    group = normalized.group
    dim = fiber.dim
    if group.order == 1:
        return FiberClassification("abelian", dim, 1, True, (), (1,))
    orders = tuple(sorted(group.element_order(i) for i in range(group.order)))
    cyclic = group.is_cyclic()
    invariants = _abelian_invariant_factors(group) if group.is_abelian() else None
    return FiberClassification("hyperelliptic", dim, group.order, cyclic, invariants, orders)


def run_pipeline(d: HyperellipticDatum, recurse: bool = False) -> AlbaneseReport:
    """Full Albanese computation; optionally recurses into hyperelliptic fibers."""
    _require_validated(d)
    n = d.dim
    lambda0 = compute_A0(d)
    q = lambda0.rank // 2
    if d.group.order > 1 and not (q < n):
        raise PipelineInvariantError("irregularity must be strictly below the dimension")
    lambda1 = compute_A1(d, lambda0)
    dec = compute_K(d, lambda0, lambda1)
    table = decompose_cocycle(d, dec)
    h_indices, shifts = compute_H(d, dec, table)
    lam_b, factors = compute_albanese(d, dec, table)
    fiber, fiber_factor_indices = compute_fiber(d, dec, h_indices, shifts)
    fiber = quotient_by_translations(fiber)
    fiber_report_check = validate(fiber)
    if not fiber_report_check.passed:
        raise PipelineInvariantError(
            "fiber datum fails validation: " + "; ".join(fiber_report_check.failures())
        )
    fiber_class = classify_fiber(fiber)
    if q + fiber_class.dim != n:
        raise PipelineInvariantError("dim Alb + dim fiber must equal dim X")
    if q == n - 1 and d.group.order > 1 and not d.group.is_cyclic():
        raise PipelineInvariantError("irregularity n - 1 forces a cyclic group")
    if d.group.is_cyclic() and fiber_class.kind == "hyperelliptic" and not fiber_class.cyclic:
        raise PipelineInvariantError("cyclic groups must give abelian or cyclic fibers")
    alb_indices = identify_factor_subspace(d.torus, lambda0) if lambda0.rank else ()
    report = AlbaneseReport(
        q=q,
        dim=n,
        group_order=d.group.order,
        decomposition=dec,
        cocycle=table,
        albanese_lattice=lam_b,
        albanese_isogeny_factors=factors,
        subgroup_h=h_indices,
        fiber=fiber,
        fiber_class=fiber_class,
        albanese_factor_indices=alb_indices if alb_indices else None,
        fiber_factor_indices=fiber_factor_indices,
    )
    if recurse and fiber_class.kind == "hyperelliptic" and fiber.dim < n:
        report = report._replace(fiber_report=run_pipeline(fiber, recurse=True))
    return report
