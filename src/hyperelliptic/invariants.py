"""Numerical invariants from the complex-representation eigenvalue data.

Hodge numbers of a free quotient X = A/G are dimensions of G-invariants in
the exterior algebra of the (co)tangent space, so they are character averages
over G: h^{p,q} = (1/|G|) * sum_g e_p(g) * conj(e_q(g)), where e_p(g) is the
p-th elementary symmetric function of g's eigenvalues.

With N the lcm of all eigenvalue orders, an eigenvalue exp(2*pi*i * k/order)
is zeta_N^a with exponent a = k * N/order.  The elements are grouped into
classes by their sorted exponents, since e_p depends on nothing else.  For
each class, e_0 .. e_n are expanded in one pass of prod (1 + x * zeta_N^a) as
lists of N integer counts in the group ring Z[Z/N], and each (p, q) cell
accumulates count * (e_p convolved with conj(e_q)), conjugation being the
index map t -> -t.  Each cell is reduced mod Phi_N once; the remainder must
be a constant that is nonnegative and divisible by |G|, else InvalidDatum.
The canonical order of omega_X is the order of the determinant character, on
which translations act trivially.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .action import HyperellipticDatum, determinant
from .cyclotomic import cyclotomic_polynomial, poly_divmod_exact
from .errors import InternalError, InvalidDatum
from .exactlin import format_rational


class HodgeDiamond(NamedTuple):
    n: int
    h: tuple[tuple[int, ...], ...]  # h[p][q]

    def row(self, k: int) -> tuple[int, ...]:
        """Hodge numbers of total degree k, ordered h^{k,0}, h^{k-1,1}, ..., h^{0,k}."""
        return tuple(self.h[p][k - p] for p in range(min(k, self.n), max(k - self.n, 0) - 1, -1))

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.row(k) for k in range(2 * self.n + 1))


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


def _exponent_classes(d: HyperellipticDatum) -> tuple[int, dict[tuple[int, ...], int]]:
    """The conductor N and the number of elements with each sorted exponent tuple."""
    conductor = 1
    for e in d.group.elements:
        for z in e.eigenvalues:
            conductor = lcm(conductor, z.order)
    classes: dict[tuple[int, ...], int] = {}
    for e in d.group.elements:
        key = tuple(sorted(z.k * (conductor // z.order) for z in e.eigenvalues))
        classes[key] = classes.get(key, 0) + 1
    return conductor, classes


def _elementary_symmetric(exponents, conductor: int) -> list[list[int]]:
    """e_0 .. e_n of the roots zeta_N^a, one list of N counts in Z[Z/N] each."""
    es = [[0] * conductor for _ in range(len(exponents) + 1)]
    es[0][0] = 1
    for done, a in enumerate(exponents, start=1):
        for p in range(done, 0, -1):
            lower, upper = es[p - 1], es[p]
            for t, c in enumerate(lower):
                if c:
                    upper[(t + a) % conductor] += c
    return es


def _add_class(cells, exponents, count: int, conductor: int) -> None:
    """Add count * e_p * conj(e_q) of one class to each cell (p, q), in Z[Z/N]."""
    # each e_p as its nonzero (exponent, count) terms
    terms = [
        [(t, c) for t, c in enumerate(e) if c]
        for e in _elementary_symmetric(exponents, conductor)
    ]
    for p, row in enumerate(cells):
        for q, cell in enumerate(row):
            for s, c in terms[p]:
                c *= count
                for t, c2 in terms[q]:
                    cell[(s - t) % conductor] += c * c2


def _certified_integer(cell, conductor: int, order: int, what: str) -> int:
    """(1/|G|) * sum_t cell[t] * zeta_N^t, certified to be a nonnegative integer."""
    _, rem = poly_divmod_exact(cell, cyclotomic_polynomial(conductor))
    if len(rem) > 1:
        raise InvalidDatum(f"{what} is not rational: remainder {rem} mod Phi_{conductor}")
    total = rem[0] if rem else 0
    if total < 0 or total % order:
        raise InvalidDatum(f"{what} is not a nonnegative integer: {format_rational(total, order)}")
    return total // order


def irregularity(d: HyperellipticDatum, diamond: HodgeDiamond) -> int:
    """q = h^{1,0}, the multiplicity of the trivial character in the complex representation.

    Cross-checked against the lattice side: 2q must equal dim V^G, the trace
    (1/|G|) sum_g tr M_g of the group average of the linear parts.  A point has q = 0.
    """
    q = diamond.h[1][0] if d.dim else 0
    traces = sum(e.linear[i][i] for e in d.group.elements for i in range(d.rank))
    if traces != 2 * q * d.group.order:
        raise InvalidDatum(
            f"character irregularity {q} != lattice irregularity "
            f"{format_rational(traces, 2 * d.group.order)}"
        )
    return q


def hodge_diamond(d: HyperellipticDatum) -> HodgeDiamond:
    """h^{p,q} = average over G of e_p(eigenvalues) * conj(e_q(eigenvalues))."""
    n = d.dim
    conductor, classes = _exponent_classes(d)
    cells = [[[0] * conductor for _ in range(n + 1)] for _ in range(n + 1)]
    for exponents, count in classes.items():
        _add_class(cells, exponents, count, conductor)
    grid = tuple(
        tuple(
            _certified_integer(cells[p][q], conductor, d.group.order, f"h^{{{p},{q}}}")
            for q in range(n + 1)
        )
        for p in range(n + 1)
    )
    diamond = HodgeDiamond(n, grid)
    for p in range(n + 1):
        for q in range(n + 1):
            if diamond.h[p][q] != diamond.h[q][p]:
                raise InvalidDatum("Hodge symmetry h^{p,q} = h^{q,p} fails")
            if diamond.h[p][q] != diamond.h[n - p][n - q]:
                raise InvalidDatum("Serre symmetry h^{p,q} = h^{n-p,n-q} fails")
    return diamond


def canonical_order(d: HyperellipticDatum) -> int:
    """Order of the determinant character g -> prod of eigenvalues; 1 iff omega_X is trivial."""
    return lcm(*(determinant(e).order for e in d.group.elements))


def invariants_report(d: HyperellipticDatum) -> InvariantsReport:
    diamond = hodge_diamond(d)
    q = irregularity(d, diamond)
    euler = sum((-1) ** k * diamond.h[0][k] for k in range(d.dim + 1))
    order = canonical_order(d)
    if (diamond.h[d.dim][0] == 1) != (order == 1):
        raise InvalidDatum("h^{n,0} = 1 must hold exactly when the canonical order is 1")
    if d.group.order > 1 and euler != 0:
        raise InvalidDatum("chi(O_X) must vanish for a nontrivial free quotient")
    return InvariantsReport(
        dim=d.dim,
        q=q,
        diamond=diamond,
        canonical_order=order,
        euler_char_structure_sheaf=euler,
        group_order=d.group.order,
        cyclic=d.group.is_cyclic(),
    )


def canonical_report(x_order: int, fiber_order: int) -> PullbackDiagnostic:
    """Divisibility of canonical orders along the Albanese fibration.

    The fiber order always divides the total order; omega_X is pulled back
    from Alb(X) exactly when the fiber is Calabi-Yau (order 1).
    """
    if x_order % fiber_order != 0:
        raise InternalError(
            f"fiber canonical order {fiber_order} does not divide {x_order}"
        )
    return PullbackDiagnostic(
        x_canonical_order=x_order,
        fiber_canonical_order=fiber_order,
        pulled_back_from_albanese=fiber_order == 1,
    )
