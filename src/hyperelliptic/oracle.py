"""Independent brute-force verification at torsion level.

The model is the finite G-set (1/N)Lambda/Lambda, i.e. tuples mod N in the
lattice basis.  Fixed-point counts here are pure enumeration (no normal-form
shortcuts), so they cross-check the exact pipeline.  ``build_model`` admits
exactly the multiples N of D, the lcm of the translation denominators, and
two theorems say what a count at such an N proves.

Fixed points.  An element e = (M, t) is counted exhaustively when N is a
multiple of its bound lcm(s * den(t), D), s the largest Smith divisor of
M - I (``element_level_bound``); the verdict records whether it was.  Every
bound divides D * lcm(orders) (``formula_level``), because s divides
m = ord(M), which divides ord(e), and den(t) divides D.  Proof that s | m:
s is the exponent of the torsion of Z^n/(M - I)Z^n.  If k x lies in
(M - I)Z^n, then S x = 0 for S = sum_{i<m} M^i, as S (M - I) = M^m - I = 0
and Z^n has no torsion; so m x = S x + sum_{i<m} (I - M^i) x lies in
(M - I)Z^n, each I - M^i being (M - I) times an integer matrix.

Fibers.  At every multiple N of D, each nonempty fiber of the model over
V0/Lambda_B holds [G : H] * N^rank(Lambda_1) points, so the fiber count
needs no level of its own.  The map p -> P0 p mod Lambda_B is a
homomorphism, so its nonempty fibers have the order of its kernel Q/Z^n,
Q = P0^-1(Lambda_B) meet (1/N)Z^n.  Lambda_B is spanned by P0(Z^n) and the
t0(g) = P0 tau(g) with D tau(g) integral, so it lies in P0((1/N)Z^n) and P0
maps Q onto it, with kernel (1/N)Lambda_1, as it maps Z^n onto P0(Z^n) with
kernel Lambda_1.  So [Q : Z^n] = N^rank(Lambda_1) [Lambda_B : P0(Z^n)], and
``run_pipeline`` certifies |G| = |H| [Lambda_B : P0(Z^n)].
"""

from __future__ import annotations

import itertools
from math import lcm, prod
from typing import NamedTuple

from .action import AffineAut, HyperellipticDatum, validate
from .albanese import AlbaneseReport
from .errors import CapReached, InternalError, InvalidDatum
from .exactlin import (
    column_lists,
    common_denominator,
    reduced_mod1,
    smith_normal_form,
    transpose,
)

DEFAULT_POINT_CAP = 10_000_000


class TorsionModel(NamedTuple):
    """The G-set (1/N)Lambda/Lambda: N^rank tuples, with the action mod N."""

    level: int
    rank: int
    # per element: (M, N t as integers in [0, N)); action p -> M p + N t mod N
    actions: tuple[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]], ...]

    @property
    def point_count(self) -> int:
        return self.level**self.rank


def datum_denominator(d: HyperellipticDatum) -> int:
    """lcm of all translation denominators: the minimum usable level, and close_group's D.

    It is read off the generators: t_{es} = M_e t_s + t_e mod 1 with M_e
    integral, so every element's denominator divides the generators' lcm.
    """
    return lcm(*(d.group.elements[i].den for i in d.group.gens))


def element_level_bound(e: AffineAut) -> int:
    """Level divisibility bound that makes the fixed-point count exhaustive.

    If (M - I)x = -t + lambda is solvable over Q, a solution exists with
    denominator dividing lcm(nonzero Smith divisors of M - I) * den(t), so a
    zero count at any multiple of this bound certifies freeness of e.  Each
    divisor divides the next, so their lcm is the largest of them.
    """
    _, s = smith_normal_form(
        [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(e.linear)])
    return max(1, *(row[i] for i, row in enumerate(s))) * e.den


def formula_level(d: HyperellipticDatum) -> int:
    """lcm(denominators) * lcm(element orders), the headline exhaustive level."""
    return datum_denominator(d) * lcm(*d.group.orders)


def _split_grid_size(level: int, rank: int) -> int:
    # meet-in-the-middle materializes only the two half-coordinate grids
    return 2 * level ** (rank - rank // 2)


def build_model(
    d: HyperellipticDatum,
    level: int,
    cap: int = DEFAULT_POINT_CAP,
    split_counting: bool = False,
) -> TorsionModel:
    """The torsion model at the given level.

    With split_counting the cap applies to the meet-in-the-middle half grids
    instead of the full point set; such a model supports fixed-point counting
    but not fiber counting, which enumerates N^|active| points, the active
    coordinates being those its fiber key reads, and caps its table at N^rank
    keys (``oracle_fiber_count``).  N t is (N // den) shift.
    """
    rank = d.rank
    if level < 1 or level % datum_denominator(d) != 0:
        raise InvalidDatum(f"level {level} is not divisible by all datum denominators")
    size = _split_grid_size(level, rank) if split_counting else level**rank
    if size > cap:
        grid = " in its split grid" if split_counting else ""
        raise CapReached(f"oracle point cap {cap}, level {level} needs {size} points{grid}")
    actions = tuple(
        (e.linear, tuple(level // e.den * x for x in e.shift)) for e in d.group.elements
    )
    return TorsionModel(level, rank, actions)


def oracle_fixed_points(model: TorsionModel, element_index: int) -> int:
    """Exact count of fixed points of the element at this torsion level.

    Counts solutions of (M - I)p + N t == 0 mod N by enumeration.  Coordinates
    the system never touches are free (they multiply the count by N), all-zero
    rows are direct congruence checks, and the remaining coordinates are split
    meet-in-the-middle: one half's column sums are counted in a hash map, and
    each point of the other half looks up the sum that completes it.
    """
    n = model.level
    r = model.rank
    m, nt = model.actions[element_index]
    a = [[(x - (i == j)) % n for j, x in enumerate(row)] for i, row in enumerate(m)]
    b = [(-x) % n for x in nt]
    active_rows = [i for i in range(r) if any(a[i])]
    for i in range(r):
        if i not in active_rows and b[i] != 0:
            return 0
    active_cols = [j for j in range(r) if any(a[i][j] for i in range(r))]
    free = n ** (r - len(active_cols))
    rows = [tuple(a[i][j] for j in active_cols) for i in active_rows]
    target = tuple(b[i] for i in active_rows)
    k = len(active_cols)
    half = k // 2
    partial: dict = {}
    for p2 in itertools.product(range(n), repeat=k - half):
        key = tuple(
            sum(row[half + j] * p2[j] for j in range(k - half)) % n for row in rows
        )
        partial[key] = partial.get(key, 0) + 1
    count = 0
    for p1 in itertools.product(range(n), repeat=half):
        key = tuple(
            (t - sum(row[j] * p1[j] for j in range(half))) % n
            for row, t in zip(rows, target)
        )
        count += partial.get(key, 0)
    return count * free


class FixedPointCheck(NamedTuple):
    element_index: int
    level: int
    exhaustive: bool
    count: int
    exact_has_fixed_point: bool

    @property
    def agrees(self) -> bool:
        if self.count > 0:
            return self.exact_has_fixed_point
        return (not self.exhaustive) or (not self.exact_has_fixed_point)


class FixedPointSurvey(NamedTuple):
    checks: tuple[FixedPointCheck, ...]
    downgraded: bool  # True when the formula level was over the cap

    @property
    def passed(self) -> bool:
        return all(c.agrees for c in self.checks)


def fixed_point_survey(
    d: HyperellipticDatum, level: int | None = None, cap: int = DEFAULT_POINT_CAP
) -> FixedPointSurvey:
    """Compare enumeration counts with the exact freeness decision, element by element.

    The exact decision is the one ``validate`` made: the survey reads the
    report cached on the datum (validating first if nothing is cached).  Each
    element's count is exhaustive when its level is a multiple of its bound,
    lcm(element_level_bound, datum denominator).  A given level is built
    first, so a level that is not a multiple of every denominator raises
    InvalidDatum and one whose split grid is over the cap raises CapReached;
    every element is counted there.  With no level given, the shared level is
    ``formula_level``, lcm(denominators) * lcm(orders), a multiple of every
    bound by the module's theorem (the largest Smith divisor of M - I divides
    ord(M)).  When split counting at it fits the cap, every element is
    counted there, exhaustively; otherwise the survey is downgraded, and each
    element falls back to its own bound if that fits, or else to the bare
    denominator level (one-sided).
    """
    report = d._report or validate(d)
    base = datum_denominator(d)
    bounds = [lcm(element_level_bound(e), base) for e in d.group.elements[1:]]
    downgraded = False
    if level is None:
        level = formula_level(d)
        downgraded = _split_grid_size(level, d.rank) > cap
    models = {} if downgraded else {level: build_model(d, level, cap, split_counting=True)}
    checks = []
    for i, bound in enumerate(bounds, start=1):
        if not downgraded:
            use = level
        elif _split_grid_size(bound, d.rank) <= cap:
            use = bound
        else:
            use = base
        if use not in models:
            models[use] = build_model(d, use, cap, split_counting=True)
        checks.append(
            FixedPointCheck(
                element_index=i,
                level=use,
                exhaustive=use % bound == 0,
                count=oracle_fixed_points(models[use], i),
                exact_has_fixed_point=i in report.fixed_point_elements,
            )
        )
    return FixedPointSurvey(tuple(checks), downgraded)


class FiberCountVerdict(NamedTuple):
    level: int
    passed: bool
    predicted_points_per_fiber: int
    fiber_count: int
    witness: tuple | None  # (fiber key, offending count) on failure


def _albanese_projection_matrix(report: AlbaneseReport):
    """(den, integer rows L) with key(v) = frac(L v / den): P0 v = S v / |G| in Lambda_B's basis.

    The coordinates of S's columns in Lambda_B's basis, over their common
    denominator D, are L / D, so den is D |G|.
    """
    lam_b = report.albanese_lattice
    if lam_b.rank == 0:
        return 1, ()
    columns = []
    for w in column_lists(report.decomposition.group_sum):
        coords = lam_b.coords_of(1, w)
        if coords is None:
            raise InternalError("projection leaves the Albanese lattice span")
        columns.append(coords)
    den, scaled = common_denominator(columns)
    return den * report.group_order, transpose(scaled)


def oracle_fiber_count(model: TorsionModel, report: AlbaneseReport) -> FiberCountVerdict:
    """Check that every nonempty Albanese fiber has the predicted point count.

    Points of the model in one fiber of (A mod G) -> V0 mod Lambda_B come in
    G-orbits of full size (the action is free), and each fiber holds
    |A1-model points| / |H| orbits, i.e. [G : H] * N^rank(Lambda_1) points.
    Coordinates the fiber key does not depend on each contribute a uniform
    factor N to every bucket, so only the active subgrid is enumerated and the
    counts are compared after scaling back.

    A fiber key is the tuple of residues key_i mod D_i, one per row of the
    projection; it is packed into one int in mixed radix over the D_i, first
    row most significant, so int order is tuple order.  Rows with D_i = 1 are
    always 0 and are left out of the packing; each packed row sums only the
    active coordinates whose coefficient is nonzero mod D_i.  A failing
    verdict names the smallest failing key, unpacked back to its tuple.

    The packed key is a mixed-radix index below the product of the packed
    D_i, so the counts live in a dense list of that size rather than a hash
    map: the fiber count is the number of nonzero slots, and the first
    nonzero slot whose scaled count is off is the smallest failing key.  A
    table with more slots than the model has points (N^rank, the count that
    build_model caps) raises CapReached, so a malformed report cannot
    allocate past that cap.
    """
    n = model.level
    rank = model.rank
    r1 = report.decomposition.lambda1.rank
    h_order = len(report.subgroup_h)
    predicted = (report.group_order // h_order) * n**r1
    den, lmat = _albanese_projection_matrix(report)
    # key_i = (sum_j c[i][j] p_j) mod D_i encodes frac(L p / (den N)): row i of
    # L over den N, mod 1 over its least denominator D_i, is c[i] over D_i
    dens = []
    coeffs = []
    for row in lmat:
        d, c = reduced_mod1(den * n, row)
        dens.append(d)
        coeffs.append(c)
    active = [j for j in range(rank) if any(c[j] for c in coeffs)]
    scale = n ** (rank - len(active))
    # per packed row: its modulus and (index into the active point, coefficient) terms
    packed = [
        (d, [(k, row[j]) for k, j in enumerate(active) if row[j]])
        for row, d in zip(coeffs, dens)
        if d > 1
    ]
    size = prod(d for d, _ in packed)
    if size > model.point_count:
        raise CapReached(
            f"fiber table cap {model.point_count} (the model's points), the table needs {size} keys"
        )
    counts = [0] * size
    for p in itertools.product(range(n), repeat=len(active)):
        key = 0
        for d, terms in packed:
            key = key * d + sum(c * p[j] for j, c in terms) % d
        counts[key] += 1
    fiber_count = size - counts.count(0)
    for key, count in enumerate(counts):
        if count and count * scale != predicted:
            witness = (_unpack_fiber_key(key, dens), count * scale)
            return FiberCountVerdict(n, False, predicted, fiber_count, witness)
    return FiberCountVerdict(n, True, predicted, fiber_count, None)


def _unpack_fiber_key(key: int, dens) -> tuple[int, ...]:
    """The residue tuple of a packed fiber key; rows with D_i = 1 read 0."""
    out = []
    for d in reversed(dens):
        key, digit = divmod(key, d)
        out.append(digit)
    return tuple(reversed(out))
