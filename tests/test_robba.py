from fractions import Fraction as F

import pytest

from slopeforge.robba import (RankOneOperator, character_order, is_tame,
                              kummer_pullback, p_power_reduce, reduce, residue,
                              slope, tensor)


def op(p, *coeffs):
    return RankOneOperator.make(p, coeffs)


def brute_force_p_power(operator, cap=40):
    current = operator
    for k in range(cap):
        if is_tame(current):
            return k
        scaled = current
        for _ in range(operator.p - 1):
            scaled = tensor(scaled, current)
        current = scaled
    raise AssertionError("cap exceeded")


class TestValidation:
    def test_negative_valuation_rejected(self):
        with pytest.raises(ValueError):
            op(3, F(1, 3))

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            op(4, F(1))

    def test_trailing_zeros_allowed(self):
        assert op(3, 1, 0, 0).pole_order == 1


class TestReduce:
    def test_removable_top_term(self):
        # v_3(9 / (1-2)) = 2 > 1/2: the z^-2 term is gauged away
        assert reduce(op(3, 0, 9)) == op(3)

    def test_sticky_top_term(self):
        assert reduce(op(3, 0, 1)) == op(3, 0, 1)

    def test_tame_unchanged(self):
        assert reduce(op(5, 2)) == op(5, 2)

    def test_idempotent(self):
        for o in (op(3, F(1, 2), 9), op(2, 0, 1), op(5, 0, 0, 25)):
            assert reduce(reduce(o)) == reduce(o)

    def test_cascading_removal(self):
        # both of the higher terms are removable for p = 3
        assert reduce(op(3, F(1, 2), 9, 27)) == op(3, F(1, 2))


class TestSlope:
    def test_tame_is_zero(self):
        assert slope(op(7, F(3, 2))) == 0

    def test_pole_order_minus_one(self):
        assert slope(op(2, 0, 0, 1)) == 2

    def test_reduction_first(self):
        assert slope(op(3, F(1, 2), 9)) == 0


class TestResidue:
    def test_fractional(self):
        assert residue(op(2, F(1, 3))) == F(1, 3)
        assert residue(op(3, F(5, 7))) == F(5, 7)

    def test_integer_is_trivial(self):
        assert residue(op(2, 5)) == 0

    def test_negative_wraps(self):
        assert residue(op(3, F(-1, 2))) == F(1, 2)

    def test_is_tame(self):
        assert is_tame(op(3, F(1, 2)))
        assert is_tame(op(3, 0, 9))
        assert not is_tame(op(3, 0, 1))


class TestTensor:
    def test_trivial_identity(self):
        o = op(3, F(1, 2), 1)
        assert tensor(o, op(3)) == o

    def test_residues_add(self):
        a, b = op(5, F(2, 3)), op(5, F(2, 3))
        assert residue(tensor(a, b)) == (residue(a) + residue(b)) % 1

    def test_slope_max_when_distinct(self):
        a, b = op(3, 0, 0, 1), op(3, 0, 1)
        assert slope(tensor(a, b)) == 2

    def test_prime_mismatch(self):
        with pytest.raises(ValueError):
            tensor(op(2, 1), op(3, 1))

    def test_tame_group_structure(self):
        # residue classifies reduced tame operators: sums realize any class
        targets = [F(1, 2), F(2, 3), F(5, 6)]
        for t in targets:
            assert residue(op(5, t)) == t
        a, b = op(5, F(1, 2)), op(5, F(1, 3))
        assert residue(tensor(a, b)) == F(5, 6)


class TestPPowerReduce:
    def test_tame_needs_nothing(self):
        assert p_power_reduce(op(3, F(1, 2)))[0] == 0

    def test_p3_example(self):
        n, res = p_power_reduce(op(3, F(1, 2), 1))
        assert n == 1 and res == F(1, 2)

    def test_p2_threshold(self):
        # 1/(p-1) = 1 at p = 2: need strictly more, so N = 2
        n, res = p_power_reduce(op(2, 0, 1))
        assert n == 2 and res == 0

    @pytest.mark.parametrize("o", [
        op(2, 0, 1), op(3, F(1, 2), 1), op(5, F(1, 2), F(7, 3), 4),
        op(3, 0, 9), op(2, F(1, 3), 0, 5), op(5, 0, 0, 0, 2),
    ])
    def test_matches_brute_force(self, o):
        assert p_power_reduce(o)[0] == brute_force_p_power(o)


class TestCharacterOrder:
    def test_third(self):
        assert character_order(op(2, F(1, 3))) == 3

    def test_integral_is_one(self):
        assert character_order(op(3, 7)) == 1

    def test_five_sixths(self):
        assert character_order(op(7, F(5, 6))) == 6

    def test_rejects_wild(self):
        with pytest.raises(ValueError):
            character_order(op(3, 0, 1))

    def test_after_reduction(self):
        assert character_order(op(3, F(1, 2), 9)) == 2


class TestKummerPullback:
    def test_identity(self):
        o = op(3, F(1, 2), 1)
        assert kummer_pullback(o, 1) == o

    def test_pole_order_and_slope(self):
        pulled = kummer_pullback(op(2, 0, 1), 2)
        assert pulled.pole_order == 3
        assert slope(pulled) == 2

    def test_residue_multiplies(self):
        pulled = kummer_pullback(op(2, F(1, 3)), 3)
        assert residue(pulled) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_slope_scaling(self, n):
        for o in (op(3, F(1, 2), 1), op(2, 0, 1), op(5, 1), op(3, 0, 9)):
            assert slope(kummer_pullback(o, n)) == n * slope(o)
