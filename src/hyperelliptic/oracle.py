"""Independent brute-force verification at torsion level.

The model is the finite G-set (1/N)Lambda/Lambda, i.e. tuples mod N in the
lattice basis.  Fixed-point counts here are pure enumeration (no normal-form
shortcuts), so they cross-check the exact pipeline; a count is *exhaustive*
evidence exactly when the level is divisible by the element's solution
denominator bound, which is computed from the Smith divisors of (M - I) and
recorded in the verdict rather than assumed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm, prod
from typing import NamedTuple

from .action import AffineAut, HyperellipticDatum
from .albanese import AlbaneseReport
from .exactlin import (
    mat_vec,
    smith_normal_form,
    transpose,
    vec_denominator,
)

DEFAULT_POINT_CAP = 10_000_000
_DIRECT_LOOP_LIMIT = 200_000


class CapExceeded(ValueError):
    """The model would enumerate more points than the configured cap."""


class BadLevel(ValueError):
    """The level is not divisible by some denominator appearing in the datum."""


class TorsionModel(NamedTuple):
    """The G-set (1/N)Lambda/Lambda: N^rank tuples, with the action mod N."""

    level: int
    rank: int
    # per element: (M mod nothing, N*t as integers); action p -> M p + N t mod N
    actions: tuple[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]], ...]

    @property
    def point_count(self) -> int:
        return self.level**self.rank


def datum_denominator(d: HyperellipticDatum) -> int:
    """lcm of all translation denominators (the minimum usable level)."""
    den = 1
    for e in d.group.elements:
        den = lcm(den, vec_denominator(e.translation))
    return den


def element_level_bound(e: AffineAut) -> int:
    """Level divisibility bound that makes the fixed-point count exhaustive.

    If (M - I)x = -t + lambda is solvable over Q, a solution exists with
    denominator dividing lcm(nonzero Smith divisors of M - I) * den(t), so a
    zero count at any multiple of this bound certifies freeness of e.
    """
    n = e.rank
    diff = tuple(
        tuple(e.linear[i][j] - (1 if i == j else 0) for j in range(n)) for i in range(n)
    )
    _, s, _ = smith_normal_form(diff)
    divisor_lcm = 1
    for i in range(n):
        if s[i][i]:
            divisor_lcm = lcm(divisor_lcm, s[i][i])
    return lcm(divisor_lcm * vec_denominator(e.translation), vec_denominator(e.translation))


def formula_level(d: HyperellipticDatum) -> int:
    """lcm(denominators) * lcm(element orders), the headline exhaustive level."""
    orders = 1
    for i in range(d.group.order):
        orders = lcm(orders, d.group.element_order(i))
    return datum_denominator(d) * orders


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
    but not fiber counting, which traverses every point.
    """
    rank = d.rank
    if level < 1 or level % datum_denominator(d) != 0:
        raise BadLevel(f"level {level} is not divisible by all datum denominators")
    size = _split_grid_size(level, rank) if split_counting else level**rank
    if size > cap:
        raise CapExceeded(f"level {level} needs {size} enumerated points, over the cap {cap}")
    actions = []
    for e in d.group.elements:
        nt = tuple(int(x * level) for x in e.translation)
        actions.append((e.linear, nt))
    return TorsionModel(level, rank, tuple(actions))


def oracle_fixed_points(model: TorsionModel, element_index: int) -> int:
    """Exact count of fixed points of the element at this torsion level.

    Counts solutions of (M - I)p + N t == 0 mod N by enumeration.  Coordinates
    the system never touches are free (they multiply the count by N), all-zero
    rows are direct congruence checks, and above the direct-loop limit the
    remaining coordinates are split meet-in-the-middle, which enumerates the
    same solution set by hashing partial column sums.
    """
    n = model.level
    r = model.rank
    m, nt = model.actions[element_index]
    a = tuple(
        tuple((m[i][j] - (1 if i == j else 0)) % n for j in range(r)) for i in range(r)
    )
    b = tuple((-x) % n for x in nt)
    active_rows = [i for i in range(r) if any(a[i])]
    for i in range(r):
        if i not in active_rows and b[i] != 0:
            return 0
    active_cols = [j for j in range(r) if any(a[i][j] for i in range(r))]
    free = n ** (r - len(active_cols))
    if not active_cols:
        return free
    rows = [tuple(a[i][j] for j in active_cols) for i in active_rows]
    target = tuple(b[i] for i in active_rows)
    k = len(active_cols)
    if n**k <= _DIRECT_LOOP_LIMIT:
        count = 0
        for p in itertools.product(range(n), repeat=k):
            if all(
                sum(row[j] * p[j] for j in range(k)) % n == t
                for row, t in zip(rows, target)
            ):
                count += 1
        return count * free
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

    With no level given, uses lcm(denominators) * lcm(orders), enlarged to
    contain every element's certificate bound; if even split counting at that
    level is over the cap, each element falls back to its own bound (or the
    bare denominator level, then one-sided), recorded as a downgrade.
    """
    from .action import has_fixed_point

    downgraded = False
    if level is None:
        level = formula_level(d)
        # keep every per-element certificate bound inside the chosen level
        for e in d.group.elements:
            level = lcm(level, element_level_bound(e))
        if _split_grid_size(level, d.rank) > cap:
            downgraded = True
    checks = []
    if not downgraded and _split_grid_size(level, d.rank) <= cap:
        model = build_model(d, level, cap, split_counting=True)
        for i, e in enumerate(d.group.elements):
            if i == 0:
                continue
            bound = lcm(element_level_bound(e), vec_denominator(e.translation))
            checks.append(
                FixedPointCheck(
                    element_index=i,
                    level=level,
                    exhaustive=level % bound == 0,
                    count=oracle_fixed_points(model, i),
                    exact_has_fixed_point=has_fixed_point(e, d.torus),
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
                    exact_has_fixed_point=has_fixed_point(e, d.torus),
                )
            )
    return FixedPointSurvey(tuple(checks), downgraded)


class FiberCountVerdict(NamedTuple):
    level: int
    passed: bool
    predicted_points_per_fiber: int
    fiber_count: int
    witness: tuple | None  # (fiber key, offending count) on failure

    def describe(self) -> str:
        if self.passed:
            return (
                f"pass: {self.fiber_count} fibers of {self.predicted_points_per_fiber} "
                f"points each at level {self.level}"
            )
        return f"fail at level {self.level}: fiber {self.witness[0]} has {self.witness[1]} points"


def _albanese_projection_matrix(report: AlbaneseReport, rank: int):
    """Row matrix L with key(v) = frac(L v): coordinates of proj_V0(v) in Lambda_B."""
    lam_b = report.albanese_lattice
    if lam_b.rank == 0:
        return ()
    rows = []
    columns = []
    for j in range(rank):
        e_j = tuple(Fraction(int(i == j)) for i in range(rank))
        w = mat_vec(report.decomposition.proj0, e_j)
        coords = lam_b.coords_of(w)
        if coords is None:
            raise BadLevel("projection leaves the Albanese lattice span (internal)")
        columns.append(coords)
    return transpose(columns)


def fiber_count_level(d: HyperellipticDatum, report: AlbaneseReport) -> int:
    """Smallest level divisible by every denominator the fiber map uses.

    The V0 and V1 parts of any K element differ from integer combinations of
    the K0 and K1 generators by vectors of Lambda_0 and Lambda_1, which are
    integral, so the generators carry every denominator of K.
    """
    dec = report.decomposition
    den = datum_denominator(d)
    for v in report.albanese_lattice.basis_vectors() + dec.k0.generators + dec.k1.generators:
        den = lcm(den, vec_denominator(v))
    return den


def oracle_fiber_count(
    model: TorsionModel,
    report: AlbaneseReport,
    group_order: int,
) -> FiberCountVerdict:
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
    build_model caps) raises CapExceeded, so a malformed report cannot
    allocate past that cap.
    """
    n = model.level
    rank = model.rank
    r1 = report.decomposition.lambda1.rank
    h_order = len(report.subgroup_h)
    predicted = (group_order // h_order) * n**r1
    lmat = _albanese_projection_matrix(report, rank)
    # integerize: key_i = (sum_j c[i][j] p_j) mod D_i encodes frac(L p / N)
    dens = []
    coeffs = []
    for row in lmat:
        d = 1
        for x in row:
            d = lcm(d, Fraction(x, n).denominator)
        dens.append(d)
        coeffs.append(tuple(int(Fraction(x, n) * d) for x in row))
    active = [
        j
        for j in range(rank)
        if any(coeffs[i][j] % dens[i] for i in range(len(coeffs)))
    ]
    scale = n ** (rank - len(active))
    # per packed row: its modulus and (index into the active point, coefficient) terms
    packed = [
        (d, [(k, row[j] % d) for k, j in enumerate(active) if row[j] % d])
        for row, d in zip(coeffs, dens)
        if d > 1
    ]
    size = prod(d for d, _ in packed)
    if size > model.point_count:
        raise CapExceeded(
            f"fiber table of {size} keys exceeds the {model.point_count} model points"
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
