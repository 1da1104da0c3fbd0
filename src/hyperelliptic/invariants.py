"""Numerical invariants from the complex-representation eigenvalue data.

Hodge numbers of a free quotient X = A/G are dimensions of G-invariants in
the exterior algebra of the (co)tangent space, so they are character averages
over G.  They are computed exactly in Q(zeta_N) for N the lcm of all
eigenvalue orders and certified to be nonnegative integers; the canonical
order of omega_X is the order of the determinant character, on which
translations act trivially.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .action import HyperellipticDatum
from .albanese import AlbaneseReport, compute_A0
from .cyclotomic import CycloNumber, RootOfUnity, elementary_symmetric, embed

__all__ = [
    "HodgeDiamond",
    "InvariantsReport",
    "PullbackDiagnostic",
    "Inconsistent",
    "DivisibilityViolation",
    "irregularity",
    "hodge_diamond",
    "canonical_order",
    "invariants_report",
    "canonical_report",
]


class Inconsistent(ValueError):
    """Character-average and lattice computations of an invariant disagree."""


class DivisibilityViolation(RuntimeError):
    """Fiber canonical order fails to divide the total space's; a pipeline bug."""


class HodgeDiamond(NamedTuple):
    n: int
    h: tuple[tuple[int, ...], ...]  # h[p][q]

    def row(self, k: int) -> tuple[int, ...]:
        """Hodge numbers of total degree k, ordered h^{k,0}, h^{k-1,1}, ..., h^{0,k}."""
        return tuple(self.h[p][k - p] for p in range(min(k, self.n), max(k - self.n, 0) - 1, -1))

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.row(k) for k in range(2 * self.n + 1))

    def pretty(self) -> str:
        rows = self.rows()
        width = max(len(str(x)) for row in rows for x in row) + 2
        total = (2 * self.n + 1) * width
        lines = []
        for row in rows:
            text = "".join(str(x).center(width) for x in row)
            lines.append(text.center(total).rstrip())
        return "\n".join(lines)


class InvariantsReport(NamedTuple):
    dim: int
    q: int
    diamond: HodgeDiamond
    canonical_order: int
    euler_char_structure_sheaf: int
    group_order: int
    cyclic: bool


class PullbackDiagnostic(NamedTuple):
    """Whether omega_X is pulled back from the Albanese (iff the fiber is Calabi-Yau)."""

    x_canonical_order: int
    fiber_canonical_order: int
    pulled_back_from_albanese: bool


def _conductor(d: HyperellipticDatum) -> int:
    n = 1
    for e in d.group.elements:
        for z in e.eigenvalues:
            n = lcm(n, z.order)
    return n


def _certified_integer(value: CycloNumber, what: str) -> int:
    rational = value.rational_part()  # NonRational propagates
    if rational.denominator != 1 or rational < 0:
        raise Inconsistent(f"{what} is not a nonnegative integer: {rational}")
    return int(rational)


def irregularity(d: HyperellipticDatum) -> int:
    """q = multiplicity of the trivial character in the complex representation.

    Cross-checked against the lattice side: q must equal rank(Lambda_0)/2.
    """
    conductor = _conductor(d)
    total = CycloNumber.zero(conductor)
    for e in d.group.elements:
        for z in e.eigenvalues:
            total = total + embed(z, conductor)
    average = total * Fraction(1, d.group.order)
    q = _certified_integer(average, "irregularity")
    lattice_q = compute_A0(d).rank // 2
    if q != lattice_q:
        raise Inconsistent(
            f"character irregularity {q} != lattice irregularity {lattice_q}"
        )
    return q


def hodge_diamond(d: HyperellipticDatum) -> HodgeDiamond:
    """h^{p,q} = average over G of e_p(eigenvalues) * conj(e_q(eigenvalues))."""
    n = d.dim
    conductor = _conductor(d)
    per_element = []
    for e in d.group.elements:
        values = [embed(z, conductor) for z in e.eigenvalues]
        es = [elementary_symmetric(values, p) for p in range(n + 1)]
        per_element.append((es, [v.conjugate() for v in es]))
    grid = []
    weight = Fraction(1, d.group.order)
    for p in range(n + 1):
        row = []
        for q in range(n + 1):
            total = CycloNumber.zero(conductor)
            for es, es_conj in per_element:
                total = total + es[p] * es_conj[q]
            row.append(_certified_integer(total * weight, f"h^{{{p},{q}}}"))
        grid.append(tuple(row))
    diamond = HodgeDiamond(n, tuple(grid))
    for p in range(n + 1):
        for q in range(n + 1):
            if diamond.h[p][q] != diamond.h[q][p]:
                raise Inconsistent("Hodge symmetry h^{p,q} = h^{q,p} fails")
            if diamond.h[p][q] != diamond.h[n - p][n - q]:
                raise Inconsistent("Serre symmetry h^{p,q} = h^{n-p,n-q} fails")
    return diamond


def canonical_order(d: HyperellipticDatum) -> int:
    """Order of the determinant character g -> prod of eigenvalues; 1 iff omega_X is trivial."""
    order = 1
    for e in d.group.elements:
        det = RootOfUnity.one()
        for z in e.eigenvalues:
            det = det * z
        order = lcm(order, det.order)
    return order


def invariants_report(d: HyperellipticDatum) -> InvariantsReport:
    q = irregularity(d)
    diamond = hodge_diamond(d)
    if diamond.h[1][0] != q:
        raise Inconsistent("h^{1,0} differs from the irregularity")
    euler = sum((-1) ** k * diamond.h[0][k] for k in range(d.dim + 1))
    order = canonical_order(d)
    if (diamond.h[d.dim][0] == 1) != (order == 1):
        raise Inconsistent("h^{n,0} = 1 must hold exactly when the canonical order is 1")
    if d.group.order > 1 and euler != 0:
        raise Inconsistent("chi(O_X) must vanish for a nontrivial free quotient")
    return InvariantsReport(
        dim=d.dim,
        q=q,
        diamond=diamond,
        canonical_order=order,
        euler_char_structure_sheaf=euler,
        group_order=d.group.order,
        cyclic=d.group.is_cyclic(),
    )


def canonical_report(
    report: AlbaneseReport, inv_x: InvariantsReport, inv_fiber: InvariantsReport
) -> PullbackDiagnostic:
    """Divisibility of canonical orders along the Albanese fibration.

    The fiber order always divides the total order; omega_X is pulled back
    from Alb(X) exactly when the fiber is Calabi-Yau (order 1).
    """
    if inv_x.canonical_order % inv_fiber.canonical_order != 0:
        raise DivisibilityViolation(
            f"fiber canonical order {inv_fiber.canonical_order} does not divide "
            f"{inv_x.canonical_order}"
        )
    return PullbackDiagnostic(
        x_canonical_order=inv_x.canonical_order,
        fiber_canonical_order=inv_fiber.canonical_order,
        pulled_back_from_albanese=inv_fiber.canonical_order == 1,
    )
