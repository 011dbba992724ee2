import time
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from slopeforge.exactnum import (Cyclotomic, cyclotomic_polynomial,
                                 euler_phi, is_prime, lift_coeffs,
                                 padic_valuation, rational_from_str,
                                 rational_to_str)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=40)
small_conductors = st.sampled_from([1, 3, 4, 5, 8, 12])


@st.composite
def cyclotomics(draw):
    n = draw(small_conductors)
    nums = [draw(st.integers(-54, 54)) for _ in range(euler_phi(n))]
    return Cyclotomic(n, nums, draw(st.integers(1, 6)))


class TestPadicValuation:
    def test_three_quarters_at_two(self):
        assert padic_valuation(F(3, 4), 2) == -2

    def test_zero_is_refused(self):
        with pytest.raises(ValueError, match="valuation of 0"):
            padic_valuation(F(0), 5)

    def test_nine_fifths_at_three(self):
        assert padic_valuation(F(9, 5), 3) == 2

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            padic_valuation(F(1), 4)

    @given(rationals, rationals, st.sampled_from([2, 3, 5, 7]))
    def test_multiplicative(self, a, b, p):
        if a == 0 or b == 0:
            return
        assert padic_valuation(a * b, p) == padic_valuation(a, p) + padic_valuation(b, p)


class TestCyclotomicBasics:
    def test_zeta3_sum_is_minus_one(self):
        z = Cyclotomic.zeta(3)
        assert z + z**2 == Cyclotomic.rational(-1)
        assert (z + z**2).conductor == 1

    def test_zeta4_square(self):
        z = Cyclotomic.zeta(4)
        assert z * z == -1

    def test_additive_identity(self):
        x = Cyclotomic.zeta(8) + F(1, 2)
        assert x + 0 == x

    def test_cross_conductor_equality(self):
        assert Cyclotomic.zeta(12, 4) == Cyclotomic.zeta(3)
        assert Cyclotomic.zeta(30, 6) == Cyclotomic.zeta(5)

    def test_rational_roundtrip(self):
        # the full sum of 5th roots of unity is rational and reports conductor 1
        total = Cyclotomic.rational(0)
        for k in range(5):
            total = total + Cyclotomic.zeta(5, k)
        assert total == 0 and total.conductor == 1

    def test_numerators_over_one_denominator(self):
        x = Cyclotomic(3, [2, -4, 6], 4)  # (2 - 4z + 6z^2) / 4 = (-4 - 10z) / 4
        assert (x.conductor, x.nums, x.den) == (3, (-2, -5), 2)
        assert x.rational_coefficients() == [F(-1), F(-5, 2)]
        assert repr(x) == "Cyclotomic(z3; [-1, -5/2])"
        zero = Cyclotomic(5, [3, 3, 3, 3], 7) - Cyclotomic(5, [3, 3, 3, 3], 7)
        assert (zero.conductor, zero.nums, zero.den) == (1, (0,), 1)
        half = Cyclotomic.rational(F(-3, 6))
        assert (half.nums, half.den, repr(half)) == ((-1,), 2, "Cyclotomic(-1/2)")
        with pytest.raises(ValueError):
            Cyclotomic(3, [1, 1], 0)

    def test_cross_conductor_sum_over_different_denominators(self):
        x = Cyclotomic.zeta(3) * F(1, 2) + Cyclotomic.zeta(4) * F(1, 3)
        assert x.conductor == 12 and x.den == 6
        assert x - Cyclotomic.zeta(4) * F(1, 3) == Cyclotomic.zeta(3) * F(1, 2)

    def test_negative_power_is_refused(self):
        z = Cyclotomic.zeta(5)
        assert z**5 == 1 and z**0 == 1
        with pytest.raises(ValueError):
            z ** -1

    def test_cyclotomic_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_immutability(self):
        z = Cyclotomic.zeta(3)
        with pytest.raises(AttributeError):
            z.conductor = 6


def galois(x, a):
    """sigma_a(x), zeta_n -> zeta_n^a, on the power basis of Q(zeta_n)."""
    n = x.conductor
    raw = [0] * n
    for j, c in enumerate(x.nums):
        raw[a * j % n] += c
    return Cyclotomic(n, raw, x.den)


@st.composite
def stored_past_their_field(draw):
    """A rational combination of roots of unity zeta_d^k, d | n, stored at
    conductor n."""
    n = draw(st.integers(2, 40))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    x = Cyclotomic.rational(0)
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.sampled_from(divisors))
        x = x + Cyclotomic.zeta(d, draw(st.integers(0, d - 1))) * draw(rationals)
    return Cyclotomic(n, lift_coeffs(list(x.nums), x.conductor, n), x.den)


class TestLeastConductor:
    @settings(max_examples=150, deadline=None)
    @given(stored_past_their_field())
    def test_matches_the_fixed_field_of_the_galois_group(self, x):
        # x is in Q(zeta_d), d | n, exactly when every sigma_a with a = 1
        # mod d fixes it; those d are closed under gcd, so the least is the
        # one to find
        n = x.conductor
        units = [a for a in range(1, n + 1) if gcd(a, n) == 1]
        least = next(d for d in range(1, n + 1) if n % d == 0 and all(
            galois(x, a) == x for a in units if a % d == 1 % d))
        y = x.at_least_conductor()
        assert y == x and y.conductor == least

    def test_zeta_3_at_conductor_9(self):
        x = Cyclotomic(9, [0, 0, 0, 1])
        assert x.conductor == 9
        y = x.at_least_conductor()
        assert (y.conductor, y.nums, y.den) == (3, (0, 1), 1)
        assert Cyclotomic(12, [0, 0, 0, 0, 1]).at_least_conductor().conductor == 3
        assert Cyclotomic.zeta(10).at_least_conductor().conductor == 5


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(cyclotomics(), cyclotomics(), cyclotomics())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(rationals, rationals, rationals)
    def test_rational_field(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        if a:
            assert a * (1 / a) == 1


class TestSerialization:
    @given(cyclotomics())
    def test_coefficient_strings_are_the_rational_strings(self, x):
        assert x.coefficient_strs() == [rational_to_str(q)
                                        for q in x.rational_coefficients()]

    def test_rational_strings(self):
        assert rational_to_str(F(3, 4)) == "3/4"
        assert rational_to_str(F(5)) == "5"
        assert rational_from_str("3/4") == F(3, 4)
        assert rational_from_str("-7") == F(-7)
        with pytest.raises(ValueError):
            rational_from_str("2.5x")
        assert rational_from_str(" +3/4\n") == F(3, 4)

    @pytest.mark.parametrize("text", ["1e4000", "1e10000000", "1E5", "1_0",
                                      "0.5", ".5", "1/2e3", "1/0", "- 1", "--1",
                                      "", "1/", "/2", "7" * 5000])
    def test_only_sign_digits_and_slash(self, text):
        # Fraction reads exponents, "_" and decimals; "1e10000000" took 13 s
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^not a rational: "):
            rational_from_str(text)
        assert time.perf_counter() - start < 1

    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
