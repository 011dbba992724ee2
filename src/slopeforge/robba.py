"""Rank-one p-adic differential operators d/dz + a1/z + ... + an/z^n.

Coefficients are rationals with v_p(a_i) >= 0.  A term a_i z^(-i) with i >= 2
can be gauged away by exp(a_i z^(1-i) / (1-i)) precisely when that exponential
converges towards the boundary annulus, i.e. when
v_p(a_i / (1-i)) > 1/(p-1); this is the removal criterion used throughout.
Only sufficiency of the criterion is relied upon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import is_prime, padic_valuation, shown

_removal_threshold = lambda p: Fraction(1, p - 1)


@dataclass(frozen=True)
class RankOneOperator:
    """d/dz + coeffs[0]/z + coeffs[1]/z^2 + ...; all v_p(coeffs) >= 0."""

    p: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {shown(self.p)} is not prime")
        for i, a in enumerate(self.coeffs, start=1):
            if not isinstance(a, Fraction):
                raise ValueError("coefficients must be Fractions")
            if a != 0 and padic_valuation(a, self.p) < 0:
                raise ValueError(
                    f"coefficient a_{i} = {shown(a)} has negative valuation")

    @staticmethod
    def make(p: int, coeffs) -> RankOneOperator:
        return RankOneOperator(p, tuple(Fraction(c) for c in coeffs))

    @property
    def pole_order(self) -> int:
        """Largest i with a_i != 0 (zero for the operator d/dz)."""
        for i in range(len(self.coeffs), 0, -1):
            if self.coeffs[i - 1] != 0:
                return i
        return 0

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i - 1] if 1 <= i <= len(self.coeffs) else Fraction(0)


def _removable(a: Fraction, i: int, p: int) -> bool:
    # gauge exp(a z^(1-i)/(1-i)) converges iff v_p(a/(1-i)) > 1/(p-1)
    return a == 0 or padic_valuation(a / (1 - i), p) > _removal_threshold(p)


def reduce(op: RankOneOperator) -> RankOneOperator:
    """Strip removable top terms until the top term sticks; idempotent."""
    coeffs = list(op.coeffs)
    while len(coeffs) >= 2 and (coeffs[-1] == 0 or _removable(coeffs[-1], len(coeffs), op.p)):
        coeffs.pop()
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return RankOneOperator(op.p, tuple(coeffs))


def slope(op: RankOneOperator) -> Fraction:
    """max(0, pole order of the reduced operator - 1)."""
    return Fraction(max(0, reduce(op).pole_order - 1))


def is_tame(op: RankOneOperator) -> bool:
    return reduce(op).pole_order <= 1


def residue(op: RankOneOperator) -> Fraction:
    """a1 mod Z, represented in [0, 1)."""
    a1 = op.coefficient(1)
    return a1 - (a1.numerator // a1.denominator)


def tensor(op1: RankOneOperator, op2: RankOneOperator) -> RankOneOperator:
    """Tensor of rank-one operators: connection forms add coefficient-wise."""
    if op1.p != op2.p:
        raise ValueError("operators live over different primes")
    n = max(len(op1.coeffs), len(op2.coeffs))
    coeffs = tuple(op1.coefficient(i) + op2.coefficient(i) for i in range(1, n + 1))
    return RankOneOperator(op1.p, coeffs)


def p_power_reduce(op: RankOneOperator) -> tuple[int, Fraction]:
    """Minimal N with every p^N * a_i (i >= 2) removable, and p^N * a1 mod Z.

    Scaling all coefficients by p^N is the N-fold p-power tensor; once every
    higher term is removable the operator is tame with residue p^N a1.
    """
    p = op.p
    threshold = _removal_threshold(p)
    n_min = 0
    for i in range(2, op.pole_order + 1):
        a = op.coefficient(i)
        if a == 0:
            continue
        v = padic_valuation(a / (1 - i), p)
        # need N + v > threshold
        need = threshold - v
        if need >= 0:
            n_min = max(n_min, need.numerator // need.denominator + 1)
    a1 = op.coefficient(1) * p**n_min
    return n_min, a1 - (a1.numerator // a1.denominator)


def character_order(op: RankOneOperator) -> int:
    """Least m >= 1 with m * a1 integral; requires the operator to be tame."""
    red = reduce(op)
    if red.pole_order > 1:
        raise ValueError("character order is defined only for tame operators")
    return red.coefficient(1).denominator


def kummer_pullback(op: RankOneOperator, n: int) -> RankOneOperator:
    """Pull back along z = t^n: coefficient n*a_i moves to pole order n(i-1)+1."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("pullback degree must be a positive integer")
    if n == 1:
        return op
    top = op.pole_order
    if top == 0:
        return RankOneOperator(op.p, ())
    coeffs = [Fraction(0)] * (n * (top - 1) + 1)
    for i in range(1, top + 1):
        a = op.coefficient(i)
        if a:
            coeffs[n * (i - 1)] = n * a
    return RankOneOperator(op.p, tuple(coeffs))
