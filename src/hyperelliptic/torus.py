"""Abelian varieties presented as rational lattice quotients.

The standard presentation is a product of elliptic curves modulo a finite
subgroup: each factor E = C/(Z + tau*Z) contributes a coordinate pair
(coefficient of 1, coefficient of tau).  Internally every datum works in
"lattice coordinates", the basis of the full period lattice Lambda, where
Lambda is exactly Z^2n; the torus remembers the change of basis back to the
product coordinates for reporting and for building the standard form.

Generic periods tau are formal: only +-1 acts on a generic factor, so all
arithmetic stays rational while covering arbitrary tau in the upper
half-plane.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cyclotomic import RootOfUnity
from .exactlin import (
    LatticeError,
    Sublattice,
    as_fractions,
    identity,
    mat_det,
    mat_inv,
    mat_mul,
    mat_vec,
    transpose,
    vec_denominator,
    vec_is_integral,
)


class InvalidAutomorphism(ValueError):
    """The requested root of unity is not a lattice automorphism of the factor."""


class NoProvenance(ValueError):
    """Operation needs product-of-elliptic-curves provenance that the torus lacks."""


class DegenerateForm(ValueError):
    """An alternating form required to be nondegenerate is singular."""


GENERIC, GAUSS, EISENSTEIN = "generic", "gauss", "eisenstein"

# units of the endomorphism rings, as (a, b) with zeta = a + b*tau -> RootOfUnity
_GAUSS_UNITS = {
    (1, 0): RootOfUnity.of(0, 1),
    (-1, 0): RootOfUnity.of(1, 2),
    (0, 1): RootOfUnity.of(1, 4),
    (0, -1): RootOfUnity.of(3, 4),
}
_EISENSTEIN_UNITS = {
    (1, 0): RootOfUnity.of(0, 1),
    (-1, 0): RootOfUnity.of(1, 2),
    (0, 1): RootOfUnity.of(1, 3),      # zeta3 = tau
    (-1, -1): RootOfUnity.of(2, 3),    # zeta3^2 = -1 - zeta3
    (1, 1): RootOfUnity.of(1, 6),      # zeta6 = 1 + zeta3
    (0, -1): RootOfUnity.of(5, 6),     # zeta6^5 = -zeta3
}
_GENERIC_UNITS = {
    (1, 0): RootOfUnity.of(0, 1),
    (-1, 0): RootOfUnity.of(1, 2),
}


class EllipticFactor:
    """One elliptic factor E = C/(Z + tau*Z) with basis (1, tau)."""

    __slots__ = ("kind", "label")

    def __init__(self, kind: str, label: str = ""):
        if kind not in (GENERIC, GAUSS, EISENSTEIN):
            raise ValueError(f"unknown factor kind {kind!r}")
        self.kind = kind
        self.label = label

    def __eq__(self, other):
        if not isinstance(other, EllipticFactor):
            return NotImplemented
        return (self.kind, self.label) == (other.kind, other.label)

    def __hash__(self):
        return hash((self.kind, self.label))

    @property
    def units(self) -> dict[tuple[int, int], RootOfUnity]:
        return {GENERIC: _GENERIC_UNITS, GAUSS: _GAUSS_UNITS, EISENSTEIN: _EISENSTEIN_UNITS}[
            self.kind
        ]

    def display_label(self) -> str:
        if self.label:
            return self.label
        return {GENERIC: "E_tau", GAUSS: "E_i", EISENSTEIN: "E_zeta3"}[self.kind]


def factor_automorphism_matrix(f: EllipticFactor, zeta: RootOfUnity):
    """2x2 integer matrix of multiplication by zeta on the basis (1, tau)."""
    for (a, b), unit in f.units.items():
        if unit == zeta:
            if f.kind == GENERIC:
                return ((a, 0), (0, a))
            if f.kind == GAUSS:
                # mult by a + b*i on basis (1, i)
                return ((a, -b), (b, a))
            # mult by a + b*zeta3 on basis (1, zeta3); zeta3^2 = -1 - zeta3
            return ((a, -b), (b, a - b))
    raise InvalidAutomorphism(f"{zeta} is not an automorphism of a {f.kind} factor")


def factor_block_eigenvalue(f: EllipticFactor, block) -> RootOfUnity:
    """The complex multiplier of an integer 2x2 block acting on the factor."""
    a, b = block[0][0], block[1][0]
    unit = f.units.get((a, b))
    if unit is None or factor_automorphism_matrix(f, unit) != tuple(map(tuple, block)):
        raise InvalidAutomorphism(f"block {block} is not an automorphism of a {f.kind} factor")
    return unit


class AlternatingForm:
    """Nondegenerate antisymmetric rational form, as a Gram matrix in lattice coordinates."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: tuple[tuple[Fraction, ...], ...]):
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise DegenerateForm("form matrix must be square")
        if any(matrix[i][j] != -matrix[j][i] for i in range(n) for j in range(n)):
            raise DegenerateForm("form matrix must be antisymmetric")
        if mat_det(matrix) == 0:
            raise DegenerateForm("form matrix is singular")
        self.matrix = matrix

    def __eq__(self, other):
        if not isinstance(other, AlternatingForm):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def restricted_to(self, basis_columns) -> tuple[tuple[Fraction, ...], ...]:
        """Gram matrix B^T E B for the given (rational) basis columns."""
        b = transpose(tuple(as_fractions(c) for c in basis_columns))
        return mat_mul(mat_mul(transpose(b), self.matrix), b)

    def is_invariant_under(self, m) -> bool:
        return mat_mul(mat_mul(transpose(m), self.matrix), m) == self.matrix


class TorusDatum:
    """A = V/Lambda with Lambda presented against the product coordinates.

    ``lam_basis`` columns are a basis of Lambda written in product coordinates;
    in lattice coordinates Lambda is Z^rank.  Raw data use the identity basis
    and carry no factors.  Equality compares rank, ``lam_basis`` and factors;
    the integer matrices derived from ``lam_basis`` are left out.
    """

    __slots__ = ("rank", "lam_basis", "factors", "lam_basis_inv", "_lam_den", "_lam_int")

    def __init__(
        self,
        rank: int,
        lam_basis: tuple[tuple[Fraction, ...], ...],
        factors: tuple[EllipticFactor, ...] | None = None,
    ):
        if factors is not None and 2 * len(factors) != rank:
            raise ValueError("factor count does not match rank")
        inv = mat_inv(lam_basis)
        if not all(vec_is_integral(row) for row in inv):
            raise LatticeError("lattice must contain the product lattice Z^rank")
        self.rank = rank
        self.lam_basis = lam_basis
        self.factors = factors
        # lam_basis^-1 is an integer matrix; lam_basis is _lam_int / _lam_den
        self.lam_basis_inv = tuple(tuple(map(int, row)) for row in inv)
        den = lcm(*map(vec_denominator, lam_basis))
        self._lam_den = den
        self._lam_int = tuple(tuple(int(x * den) for x in row) for row in lam_basis)

    def __eq__(self, other):
        if not isinstance(other, TorusDatum):
            return NotImplemented
        return (self.rank, self.lam_basis, self.factors) == (
            other.rank, other.lam_basis, other.factors
        )

    def __hash__(self):
        return hash((self.rank, self.lam_basis, self.factors))

    @property
    def dim(self) -> int:
        return self.rank // 2

    def to_lattice_coords(self, v_product):
        return mat_vec(self.lam_basis_inv, as_fractions(v_product))

    def to_product_coords(self, v_lattice):
        return tuple(x / self._lam_den for x in mat_vec(self._lam_int, as_fractions(v_lattice)))

    @staticmethod
    def raw(rank: int) -> "TorusDatum":
        return TorusDatum(rank, tuple(tuple(map(Fraction, row)) for row in identity(rank)))


def build_product_torus(factors, k_gens=()) -> TorusDatum:
    """Lambda = Z^2n + Z*k_gens over the product of the given elliptic factors."""
    factors = tuple(factors)
    rank = 2 * len(factors)
    gens = [as_fractions(g) for g in k_gens]
    for g in gens:
        if len(g) != rank:
            raise ValueError("k generator length must be 2 * number of factors")
    lam = Sublattice.standard(rank)
    if gens:
        lam = lam.sum(Sublattice.from_rat_columns(rank, gens))
    basis = transpose(tuple(tuple(Fraction(x, lam.den) for x in c) for c in lam.cols))
    return TorusDatum(rank, basis, factors)


def standard_form(t: TorusDatum) -> AlternatingForm:
    """Product symplectic form, expressed in lattice coordinates.

    On each factor's basis (1, tau) the form is [[0, 1], [-1, 0]]; it is
    integral on the product lattice and rational on Lambda.
    """
    if t.factors is None:
        raise NoProvenance("raw lattices must supply an alternating form explicitly")
    n2 = t.rank
    e = [[Fraction(0)] * n2 for _ in range(n2)]
    for i in range(0, n2, 2):
        e[i][i + 1] = Fraction(1)
        e[i + 1][i] = Fraction(-1)
    gram = mat_mul(mat_mul(transpose(t.lam_basis), tuple(map(tuple, e))), t.lam_basis)
    return AlternatingForm(tuple(tuple(Fraction(x) for x in row) for row in gram))


def identify_factor_subspace(t: TorusDatum, sub: Sublattice) -> tuple[int, ...] | None:
    """Factor indices whose coordinate planes exactly span the sublattice, if any.

    The sublattice is given in lattice coordinates; the test is equality of
    the rational lattice with the product sublattice of those factors, which
    is how entries like "A_1 = E_tau x E_i" are recognized.
    """
    if t.factors is None or sub.rank % 2 != 0:
        return None
    prod_vectors = [t.to_product_coords(b) for b in sub.basis_vectors()]
    support = set()
    for v in prod_vectors:
        for i, x in enumerate(v):
            if x != 0:
                support.add(i // 2)
    indices = tuple(sorted(support))
    if 2 * len(indices) != sub.rank:
        return None
    expected_cols = []
    for i in indices:
        for j in (2 * i, 2 * i + 1):
            col = [Fraction(0)] * t.rank
            col[j] = Fraction(1)
            expected_cols.append(tuple(col))
    expected = Sublattice.from_rat_columns(t.rank, expected_cols)
    actual = Sublattice.from_rat_columns(t.rank, prod_vectors)
    return indices if actual == expected else None
