from fractions import Fraction
from math import prod

import pytest

from cyclo_reference import CycloNumber, elementary_symmetric, embed, poly_mul, rational_part
from hyperelliptic.cyclotomic import (
    RootOfUnity,
    cyclotomic_polynomial,
    euler_phi,
    poly_divmod_exact,
)
from hyperelliptic.errors import InternalError, InvalidDatum

F = Fraction


class TestCyclotomicPolynomial:
    def test_first(self):
        assert cyclotomic_polynomial(1) == (-1, 1)

    def test_fourth(self):
        assert cyclotomic_polynomial(4) == (1, 0, 1)

    def test_sixth(self):
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    @pytest.mark.parametrize("n", range(1, 61))
    def test_product_identity(self, n):
        prod = (1,)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, cyclotomic_polynomial(d))
        expected = tuple([-1] + [0] * (n - 1) + [1])
        assert prod == expected

    def test_degrees(self):
        for n in range(1, 30):
            assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


class TestRootOfUnity:
    def test_reduction(self):
        assert RootOfUnity.of(2, 6) == RootOfUnity(1, 3)
        assert RootOfUnity.of(6, 6) == RootOfUnity(0, 1)

    def test_multiplication(self):
        i = RootOfUnity.of(1, 4)
        assert i * i == RootOfUnity.of(1, 2)
        assert (i * i.conjugate()).is_one()

    def test_pow(self):
        # a power is a repeated product
        z6 = RootOfUnity.of(1, 6)
        assert z6 * z6 == RootOfUnity.of(1, 3)
        assert z6 * z6 * z6 == RootOfUnity.of(1, 2)
        assert prod([z6] * 6, start=RootOfUnity.one()).is_one()


class TestEmbed:
    def test_minus_one_in_conductor_4(self):
        z = embed(RootOfUnity.of(1, 2), 4)
        assert z.coeffs == (F(-1), F(0))

    def test_i_in_conductor_4(self):
        z = embed(RootOfUnity.of(1, 4), 4)
        assert z.coeffs == (F(0), F(1))

    def test_zeta6(self):
        z = embed(RootOfUnity.of(1, 6), 6)
        assert z.coeffs == (F(0), F(1))

    def test_bad_conductor(self):
        with pytest.raises(ValueError):
            embed(RootOfUnity.of(1, 4), 6)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12])
    def test_root_sums_vanish(self, n):
        total = CycloNumber.zero(n)
        for k in range(n):
            total = total + embed(RootOfUnity.of(k, n), n)
        assert total.is_zero()

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 12])
    def test_conjugation_is_automorphism(self, n):
        a = embed(RootOfUnity.of(1, n), n) + CycloNumber.from_rational(F(2, 3), n)
        b = embed(RootOfUnity.of(n - 1, n), n) * 3 - CycloNumber.one(n)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.conjugate().conjugate() == a


class TestElementarySymmetric:
    def test_e0(self):
        assert elementary_symmetric([embed(RootOfUnity.of(1, 4), 4)], 0) == CycloNumber.one(4)

    def test_e2_of_i_minus_i(self):
        values = [embed(RootOfUnity.of(1, 4), 4), embed(RootOfUnity.of(3, 4), 4)]
        assert elementary_symmetric(values, 2).rational_part() == 1

    def test_e1_primitive_cube_roots(self):
        values = [embed(RootOfUnity.of(1, 3), 3), embed(RootOfUnity.of(2, 3), 3)]
        assert elementary_symmetric(values, 1).rational_part() == -1

    def test_matches_subset_expansion(self):
        import itertools

        values = [embed(RootOfUnity.of(k, 12), 12) for k in (1, 5, 8, 3)]
        for p in range(5):
            direct = CycloNumber.zero(12)
            for subset in itertools.combinations(values, p):
                term = CycloNumber.one(12)
                for v in subset:
                    term = term * v
                direct = direct + term
            assert elementary_symmetric(values, p) == direct


class TestRationalPart:
    def test_constant(self):
        assert rational_part(CycloNumber.from_rational(3, 4)) == 3

    def test_nonrational(self):
        message = r"^not a rational constant: \(Fraction\(0, 1\), Fraction\(1, 1\)\)$"
        with pytest.raises(InvalidDatum, match=message):
            rational_part(embed(RootOfUnity.of(1, 4), 4))

    def test_average_of_conjugates(self):
        half = F(1, 2)
        z = (embed(RootOfUnity.of(1, 2), 4) + embed(RootOfUnity.one(), 4)) * half
        assert rational_part(z) == 0


class TestInternalChecks:
    def test_non_monic_divisor(self):
        with pytest.raises(InternalError, match="^divisor must be monic$"):
            poly_divmod_exact((1, 0, 1), (1, 2))

    def test_wrong_coefficient_count(self):
        with pytest.raises(InternalError, match=r"^Q\(zeta_4\) needs 2 coefficients, got 1$"):
            CycloNumber(4, (F(1),))
