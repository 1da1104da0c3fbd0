"""Exact arithmetic with roots of unity and cyclotomic fields Q(zeta_N).

Character averages (irregularity, Hodge numbers, canonical orders) are
evaluated here in the power basis of Q[x]/Phi_N(x), so the resulting
dimensions are certified integers rather than rounded floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple


class NonRational(ValueError):
    """A cyclotomic number expected to be rational has nonzero higher coefficients."""


class CyclotomicInvariantError(RuntimeError):
    """An internal precondition of the cyclotomic arithmetic failed; signals a bug."""


# ---------------------------------------------------------------------------
# dense integer polynomials (coefficient tuples, constant term first)

def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def poly_divmod_exact(num, den):
    """Quotient and remainder of integer polynomials; den must be monic."""
    num = list(num)
    d = len(den) - 1
    if den[-1] != 1:
        raise CyclotomicInvariantError("divisor must be monic")
    q = [0] * max(len(num) - d, 0)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            q[i - d] = c
            for j, y in enumerate(den):
                num[i - d + j] -= c * y
    while num and num[-1] == 0:
        num.pop()
    return tuple(q), tuple(num)


def euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Phi_n as a coefficient tuple, by dividing x^n - 1 by Phi_d for d | n, d < n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    num = tuple([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = poly_divmod_exact(num, cyclotomic_polynomial(d))
            if rem != ():
                raise CyclotomicInvariantError(f"Phi_{d} does not divide x^{n} - 1")
    return num


# ---------------------------------------------------------------------------
# roots of unity

class RootOfUnity(NamedTuple):
    """exp(2*pi*i * k / order), stored gcd-reduced so order is the actual order.

    Roots compare and sort as the pair (k, order).
    """

    k: int
    order: int

    @staticmethod
    def of(k: int, order: int) -> "RootOfUnity":
        if order < 1:
            raise ValueError("order must be >= 1")
        k %= order
        g = gcd(k, order)
        return RootOfUnity(k // g, order // g)

    @staticmethod
    def one() -> "RootOfUnity":
        return RootOfUnity(0, 1)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        n = lcm(self.order, other.order)
        return RootOfUnity.of(self.k * (n // self.order) + other.k * (n // other.order), n)

    def __pow__(self, exponent: int) -> "RootOfUnity":
        return RootOfUnity.of(self.k * exponent, self.order)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity.of(-self.k, self.order)

    def conjugate(self) -> "RootOfUnity":
        return self.inverse()

    def is_one(self) -> bool:
        return self.order == 1


# ---------------------------------------------------------------------------
# cyclotomic numbers

class CycloNumber:
    """Element of Q(zeta_N) in the power basis 1, x, ..., x^(phi(N)-1) mod Phi_N."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: tuple[Fraction, ...]):
        if len(coeffs) != euler_phi(conductor):
            raise CyclotomicInvariantError(
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
        """The value as a rational; NonRational if any higher coefficient is nonzero."""
        if any(self.coeffs[1:]):
            raise NonRational(f"not a rational constant: {self.coeffs}")
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
