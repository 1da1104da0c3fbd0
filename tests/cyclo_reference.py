"""The Hodge diamond and irregularity the long way, in Q(zeta_N).

This is the reference the library's group-ring computation is tested
against.  `CycloNumber` is an element of Q(zeta_N) in the power basis
1, x, ..., x^(phi(N)-1) mod Phi_N with `Fraction` coefficients; every
eigenvalue is embedded, e_p is expanded per group element, and each h^{p,q}
is the average over G of e_p * conj(e_q), multiplied out and reduced after
every product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from helpers import generator_fixed_lattice
from hyperelliptic.cyclotomic import (
    RootOfUnity,
    cyclotomic_polynomial,
    euler_phi,
)
from hyperelliptic.errors import InternalError, InvalidDatum
from hyperelliptic.invariants import HodgeDiamond


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


class CycloNumber:
    """Element of Q(zeta_N) in the power basis 1, x, ..., x^(phi(N)-1) mod Phi_N."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: tuple[Fraction, ...]):
        if len(coeffs) != euler_phi(conductor):
            raise InternalError(
                f"Q(zeta_{conductor}) needs {euler_phi(conductor)} coefficients, "
                f"got {len(coeffs)}"
            )
        self.conductor = conductor
        self.coeffs = coeffs

    def __eq__(self, other):
        if not isinstance(other, CycloNumber):
            return NotImplemented
        return (self.conductor, self.coeffs) == (other.conductor, other.coeffs)

    def __hash__(self):
        return hash((self.conductor, self.coeffs))

    @staticmethod
    def zero(conductor: int) -> "CycloNumber":
        return CycloNumber(conductor, (Fraction(0),) * euler_phi(conductor))

    @staticmethod
    def from_rational(value, conductor: int) -> "CycloNumber":
        coeffs = [Fraction(0)] * euler_phi(conductor)
        coeffs[0] = Fraction(value)
        return CycloNumber(conductor, tuple(coeffs))

    @staticmethod
    def one(conductor: int) -> "CycloNumber":
        return CycloNumber.from_rational(1, conductor)

    def _monomial(self, power: int) -> tuple[Fraction, ...]:
        # x^power reduced mod Phi_conductor
        n = self.conductor
        raw = [Fraction(0)] * (power % n + 1)
        raw[power % n] = Fraction(1)
        return _reduce_mod_phi(tuple(raw), n)

    def __add__(self, other):
        other = _coerce(other, self.conductor)
        return CycloNumber(
            self.conductor, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other, self.conductor)
        return CycloNumber(
            self.conductor, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return CycloNumber(self.conductor, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloNumber(self.conductor, tuple(a * other for a in self.coeffs))
        other = _coerce(other, self.conductor)
        prod = poly_mul(self.coeffs, other.coeffs)
        return CycloNumber(self.conductor, _reduce_mod_phi(prod, self.conductor))

    __rmul__ = __mul__

    def conjugate(self) -> "CycloNumber":
        """Complex conjugation: the field automorphism x -> x^(N-1)."""
        n = self.conductor
        out = CycloNumber.zero(n)
        for power, c in enumerate(self.coeffs):
            if c:
                mono = CycloNumber(n, self._monomial((n - power) % n))
                out = out + mono * c
        return out

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def rational_part(self) -> Fraction:
        """The value as a rational; InvalidDatum if any higher coefficient is nonzero."""
        if any(self.coeffs[1:]):
            raise InvalidDatum(f"not a rational constant: {self.coeffs}")
        return self.coeffs[0]


def _coerce(value, conductor: int) -> CycloNumber:
    if isinstance(value, CycloNumber):
        if value.conductor != conductor:
            raise ValueError("conductor mismatch")
        return value
    if isinstance(value, (int, Fraction)):
        return CycloNumber.from_rational(value, conductor)
    raise TypeError(type(value))


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple[tuple[Fraction, ...], ...]:
    # x^(deg+j) mod Phi_n for j = 0 .. n, as coefficient tuples of length deg
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = []
    current = [Fraction(0)] * deg
    # x^deg = -(phi minus leading term)
    base = [-Fraction(c) for c in phi[:-1]]
    current = base[:]
    rows.append(tuple(current))
    for _ in range(n):
        shifted = [Fraction(0)] + current[:-1]
        overflow = current[-1]
        if overflow:
            shifted = [a + overflow * b for a, b in zip(shifted, base)]
        current = shifted
        rows.append(tuple(current))
    return tuple(rows)


def _reduce_mod_phi(coeffs, n: int) -> tuple[Fraction, ...]:
    deg = euler_phi(n)
    out = [Fraction(c) for c in coeffs[:deg]]
    out += [Fraction(0)] * (deg - len(out))
    tails = _phi_tail(n)
    for j, c in enumerate(coeffs[deg:]):
        if c:
            tail = tails[j]
            out = [a + c * b for a, b in zip(out, tail)]
    return tuple(out)


def embed(z: RootOfUnity, conductor: int) -> CycloNumber:
    """The exact image of z in Q(zeta_conductor); errors if order does not divide."""
    if conductor % z.order != 0:
        raise ValueError(f"order {z.order} does not divide conductor {conductor}")
    power = z.k * (conductor // z.order)
    raw = [Fraction(0)] * (power % conductor + 1)
    raw[power % conductor] = Fraction(1)
    return CycloNumber(conductor, _reduce_mod_phi(tuple(raw), conductor))


def elementary_symmetric(values: list[CycloNumber], p: int) -> CycloNumber:
    """e_p of the values; e_0 = 1. All values must share a conductor."""
    if not 0 <= p <= len(values):
        raise ValueError("p out of range")
    if values:
        conductor = values[0].conductor
    else:
        conductor = 1
    # one pass of the generating-polynomial recurrence prod (1 + t*v)
    e = [CycloNumber.zero(conductor) for _ in range(p + 1)]
    e[0] = CycloNumber.one(conductor)
    for v in values:
        for j in range(min(p, len(values)), 0, -1):
            e[j] = e[j] + e[j - 1] * v
    return e[p]


def rational_part(z: CycloNumber) -> Fraction:
    return z.rational_part()


# ---------------------------------------------------------------------------
# the character averages

def _conductor(d) -> int:
    n = 1
    for e in d.group.elements:
        for z in e.eigenvalues:
            n = lcm(n, z.order)
    return n


def _certified_integer(value: CycloNumber, what: str) -> int:
    rational = value.rational_part()  # InvalidDatum propagates
    if rational.denominator != 1 or rational < 0:
        raise InvalidDatum(f"{what} is not a nonnegative integer: {rational}")
    return int(rational)


def irregularity(d) -> int:
    """q = multiplicity of the trivial character, checked against rank(Lambda_0)/2."""
    conductor = _conductor(d)
    total = CycloNumber.zero(conductor)
    for e in d.group.elements:
        for z in e.eigenvalues:
            total = total + embed(z, conductor)
    average = total * Fraction(1, d.group.order)
    q = _certified_integer(average, "irregularity")
    lattice_q = generator_fixed_lattice(d).rank // 2
    if q != lattice_q:
        raise InvalidDatum(
            f"character irregularity {q} != lattice irregularity {lattice_q}"
        )
    return q


def hodge_diamond(d) -> HodgeDiamond:
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
                raise InvalidDatum("Hodge symmetry h^{p,q} = h^{q,p} fails")
            if diamond.h[p][q] != diamond.h[n - p][n - q]:
                raise InvalidDatum("Serre symmetry h^{p,q} = h^{n-p,n-q} fails")
    return diamond
