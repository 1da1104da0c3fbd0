"""Roots of unity and integer cyclotomic polynomials.

`RootOfUnity` is the exact eigenvalue type.  `cyclotomic_polynomial` and
`poly_divmod_exact` factor characteristic polynomials into cyclotomics (in
`action`) and reduce group-ring sums mod Phi_N to certify that a character
average is rational (in `invariants`).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .errors import InternalError


# ---------------------------------------------------------------------------
# dense integer polynomials (coefficient tuples, constant term first)

def poly_divmod_exact(num, den):
    """Quotient and remainder of integer polynomials; den must be monic."""
    num = list(num)
    d = len(den) - 1
    if den[-1] != 1:
        raise InternalError("divisor must be monic")
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
        raise InternalError("n must be >= 1")
    num = tuple([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = poly_divmod_exact(num, cyclotomic_polynomial(d))
            if rem != ():
                raise InternalError(f"Phi_{d} does not divide x^{n} - 1")
    return num


# ---------------------------------------------------------------------------
# roots of unity

# the roots with a name in documents, as (k, order); any other is zeta<order>^<k>
ROOT_SHORTHAND = {"1": (0, 1), "-1": (1, 2), "i": (1, 4), "-i": (3, 4)}


class RootOfUnity(NamedTuple):
    """exp(2*pi*i * k / order), stored gcd-reduced so order is the actual order.

    Roots compare and sort as the pair (k, order).  ``str`` gives the
    document spelling that ``documents.parse_root_label`` reads.
    """

    k: int
    order: int

    @staticmethod
    def of(k: int, order: int) -> "RootOfUnity":
        k %= order
        g = gcd(k, order)
        return RootOfUnity(k // g, order // g)

    @staticmethod
    def one() -> "RootOfUnity":
        return RootOfUnity(0, 1)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        n = lcm(self.order, other.order)
        return RootOfUnity.of(self.k * (n // self.order) + other.k * (n // other.order), n)

    def conjugate(self) -> "RootOfUnity":
        return RootOfUnity.of(-self.k, self.order)

    def is_one(self) -> bool:
        return self.order == 1

    def __str__(self) -> str:
        name = next((label for label, z in ROOT_SHORTHAND.items() if z == self), None)
        return name or f"zeta{self.order}" + (f"^{self.k}" if self.k != 1 else "")
