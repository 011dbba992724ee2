"""Exact scalar arithmetic: rationals, cyclotomic numbers, p-adic valuations.

Every quantity in this library is a :class:`fractions.Fraction` or a
:class:`Cyclotomic`; there is no floating point anywhere and all comparisons
are exact.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (inputs here are small)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs a positive integer")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def padic_valuation(q: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if not is_prime(p):
        raise ValueError(f"p = {shown(p)} is not prime")
    q = Fraction(q)
    if q == 0:
        raise ValueError("the valuation of 0 is not an integer")

    def _vint(n: int) -> int:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    return _vint(abs(q.numerator)) - _vint(q.denominator)


# -- integer polynomial helpers for cyclotomic polynomials -------------------


def _poly_divmod_int(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (den monic, division exact)."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        out[i - dn] = c
        if c:
            for j, d in enumerate(den):
                num[i - dn + j] -= c * d
    if any(num[:dn]):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divmod_int(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def reduce_mod_cyclotomic(coeffs: list[int], n: int) -> list[int]:
    """Remainder mod the n-th cyclotomic polynomial: at most phi(n) leading
    coefficients, the caller pads.  Phi_n is monic over Z, so an integer
    vector stays an integer vector."""
    d = euler_phi(n)
    work = list(coeffs)
    if len(work) > d:
        phi = cyclotomic_polynomial(n)
        for i in range(len(work) - 1, d - 1, -1):
            c = work[i]
            if c:
                for j in range(d):
                    if phi[j]:
                        work[i - d + j] -= c * phi[j]
    return work[:d]


def lift_coeffs(coeffs: list[int], m: int, n: int) -> list[int]:
    """Integer coefficients over Q(zeta_m) rewritten over Q(zeta_n), n a
    multiple of m, with zeta_m = zeta_n^(n/m): length phi(n)."""
    if n % m:
        raise ValueError("can only lift to a multiple of the conductor")
    step = n // m
    raw = [0] * ((len(coeffs) - 1) * step + 1)
    for j, c in enumerate(coeffs):
        raw[j * step] = c
    out = reduce_mod_cyclotomic(raw, n)
    return out + [0] * (euler_phi(n) - len(out))


class Cyclotomic:
    """An element of the cyclotomic field Q(zeta_n), stored reduced mod Phi_n
    as integer numerators over one denominator.

    `nums` holds phi(n) ints over the power basis 1, zeta_n, ...,
    zeta_n^(phi(n)-1), `den` is a positive int and gcd(den, *nums) == 1, so
    zero is all-zero `nums` over 1.  A value that is rational is always
    stored with conductor 1.  Instances are immutable.
    """

    __slots__ = ("conductor", "nums", "den")
    __hash__ = None  # cross-conductor equality makes hashing a trap

    def __init__(self, conductor: int, nums, den: int = 1, _reduced: bool = False):
        if den < 1:
            raise ValueError("a cyclotomic denominator must be positive")
        if not _reduced:
            nums = reduce_mod_cyclotomic(nums, conductor)
        d = euler_phi(conductor)
        if len(nums) != d:
            nums = list(nums[:d]) + [0] * (d - len(nums))
        if conductor > 1 and not any(nums[1:]):
            conductor, nums = 1, nums[:1]
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                den //= g
                nums = [x // g for x in nums]
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic values are immutable")

    # -- constructors --

    @staticmethod
    def rational(q: Fraction | int) -> Cyclotomic:
        return Cyclotomic(1, (q.numerator,), q.denominator, _reduced=True)

    @staticmethod
    def zeta(n: int, k: int = 1) -> Cyclotomic:
        """The root of unity zeta_n^k."""
        if n < 1:
            raise ValueError("order must be positive")
        return Cyclotomic(n, [0] * (k % n) + [1])

    @staticmethod
    def coerce(x) -> Cyclotomic:
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.rational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Cyclotomic")

    # -- structure --

    @property
    def is_rational(self) -> bool:
        return self.conductor == 1

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"a value of conductor {self.conductor} is not rational")
        return Fraction(self.nums[0], self.den)

    def rational_coefficients(self) -> list[Fraction]:
        """The coefficients over the power basis, as rationals."""
        return [Fraction(x, self.den) for x in self.nums]

    def coefficient_strs(self) -> list[str]:
        """The coefficients over the power basis as rational_to_str writes
        them; over den 1 (every character value) from the ints alone."""
        if self.den == 1:
            return [str(x) for x in self.nums]
        return [rational_to_str(q) for q in self.rational_coefficients()]

    def _lift_coeffs(self, n: int) -> list[int]:
        """The numerators over Q(zeta_n), length phi(n); n a conductor multiple."""
        if n == self.conductor:
            return list(self.nums)
        return lift_coeffs(self.nums, self.conductor, n)

    def at_least_conductor(self) -> Cyclotomic:
        """The same value over Q(zeta_m), m the least conductor of a field
        holding it, found by taking primes p out of n one at a time, m = n/p.
        For p | m the value is in Q(zeta_m) when it has no zeta_n^j, p prime
        to j; else zeta_n = zeta_m^s zeta_p^t writes it as sum_b A_b zeta_p^b,
        A_b in Q(zeta_m), and it is A_0 - A_b when that is one value for all b > 0."""
        v, p = self, 2
        while p <= v.conductor:
            n, w = v.conductor, None
            m = n // p
            if n % p == 0 and m % p == 0:  # zeta_n^(pq+r) = zeta_m^q zeta_n^r
                if not any(x for j, x in enumerate(v.nums) if j % p):
                    w = Cyclotomic(m, v.nums[::p], v.den, _reduced=True)
            elif n % p == 0 and is_prime(p):  # sp + tm = 1 mod n
                s, t = pow(p, -1, m), pow(m, -1, p)
                A = [[0] * m for _ in range(p)]
                for j, x in enumerate(v.nums):
                    A[t * j % p][s * j % m] += x
                D = [reduce_mod_cyclotomic([a - b for a, b in zip(A[0], Ab)], m)
                     for Ab in A[1:]]
                if all(d == D[0] for d in D):
                    w = Cyclotomic(m, D[0], v.den, _reduced=True)
            v, p = (v, p + 1) if w is None else (w, p)
        return v

    # -- arithmetic --

    def _pair(self, other):
        other = Cyclotomic.coerce(other)
        n = lcm(self.conductor, other.conductor)
        return self._lift_coeffs(n), other._lift_coeffs(n), n, other.den

    def __add__(self, other):
        try:
            a, b, n, db = self._pair(other)
        except TypeError:
            return NotImplemented
        da = self.den
        den = lcm(da, db)
        fa, fb = den // da, den // db
        return Cyclotomic(n, [x * fa + y * fb for x, y in zip(a, b)], den,
                          _reduced=True)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, [-x for x in self.nums], self.den,
                          _reduced=True)

    def __sub__(self, other):
        try:
            return self + (-Cyclotomic.coerce(other))
        except TypeError:
            return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            a, b, n, db = self._pair(other)
        except TypeError:
            return NotImplemented
        return Cyclotomic(n, _poly_mul(a, b), self.den * db)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("a cyclotomic power needs a non-negative exponent")
        out = Cyclotomic.rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        # Z[zeta_n] meets Q(zeta_m) in Z[zeta_m], whose power basis is integral,
        # so a lift keeps gcd(den, *nums) == 1: equal values store equal ints
        try:
            a, b, _, db = self._pair(other)
        except TypeError:
            return NotImplemented
        return self.den == db and a == b

    def __repr__(self):
        terms = self.coefficient_strs()
        if self.is_rational:
            return f"Cyclotomic({terms[0]})"
        return f"Cyclotomic(z{self.conductor}; [{', '.join(terms)}])"


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


# -- string forms used by the JSON wire formats ------------------------------


def rational_to_str(q: Fraction | int) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def past_digit_limit(x: int) -> int:
    """The interpreter's limit on the digits of str(int) when |x| has more
    digits than it allows, else 0.  The limit is read at each call; there is
    none before Python 3.10.7 or after sys.set_int_max_str_digits(0)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    x = abs(x)
    # 10**limit has more than 3 * limit bits, so short ints are settled by length
    if limit and x.bit_length() > 3 * limit and x >= 10 ** limit:
        return limit
    return 0


def shown(x, width: int = 12) -> str:
    """str(x), cut to `width` bytes of UTF-8 and "..." when longer, for
    bounded error messages."""
    s = str(x)
    raw = s.encode("utf-8", "backslashreplace")
    return s if len(raw) <= width else raw[:width].decode("utf-8", "ignore") + "..."


def rational_from_str(s: str) -> Fraction:
    """An optional sign, digits and an optional "/digits", nothing else.

    Exponents, `_` separators and decimals are refused: `Fraction` would
    spend time superlinear in the exponent of "1e10000000".
    """
    s = s.strip()
    if re.fullmatch(r"[-+]?\d+(/\d+)?", s):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not a rational: {shown(s)!r}")
