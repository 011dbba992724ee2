"""Root systems and the Weyl dimension formula, in exact rational arithmetic.

dim V(lambda) = prod over positive roots of <lambda + rho, alpha> / <rho, alpha>,
with rho the half-sum of the positive roots.  For lambda = 2m * rho the product
telescopes to (2m+1)^N with N the number of positive roots; check_2m_rho
verifies that identity by computing both sides independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exactnum import past_digit_limit, shown
from .groups import orbit

Vector = tuple[Fraction, ...]

_POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

_VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def dot(x: Vector, y: Vector) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def _basis_vec(dim: int, entries: dict[int, Fraction | int]) -> Vector:
    v = [Fraction(0)] * dim
    for i, c in entries.items():
        v[i] = Fraction(c)
    return tuple(v)


def _simple_roots(family: str, rank: int) -> list[Vector]:
    n = rank
    if family == "A":
        dim = n + 1
        return [_basis_vec(dim, {i: 1, i + 1: -1}) for i in range(n)]
    if family in ("B", "C", "D"):
        roots = [_basis_vec(n, {i: 1, i + 1: -1}) for i in range(n - 1)]
        if family == "B":
            roots.append(_basis_vec(n, {n - 1: 1}))
        elif family == "C":
            roots.append(_basis_vec(n, {n - 1: 2}))
        else:
            roots.append(_basis_vec(n, {n - 2: 1, n - 1: 1}))
        return roots
    if family == "G":
        return [
            _basis_vec(3, {0: 1, 1: -1}),
            _basis_vec(3, {0: -2, 1: 1, 2: 1}),
        ]
    if family == "F":
        return [
            _basis_vec(4, {1: 1, 2: -1}),
            _basis_vec(4, {2: 1, 3: -1}),
            _basis_vec(4, {3: 1}),
            _basis_vec(4, {0: Fraction(1, 2), 1: Fraction(-1, 2),
                           2: Fraction(-1, 2), 3: Fraction(-1, 2)}),
        ]
    if family == "E":
        half = Fraction(1, 2)
        e8 = [
            tuple([half, -half, -half, -half, -half, -half, -half, half]),
            _basis_vec(8, {0: 1, 1: 1}),
            _basis_vec(8, {1: 1, 0: -1}),
            _basis_vec(8, {2: 1, 1: -1}),
            _basis_vec(8, {3: 1, 2: -1}),
            _basis_vec(8, {4: 1, 3: -1}),
            _basis_vec(8, {5: 1, 4: -1}),
            _basis_vec(8, {6: 1, 5: -1}),
        ]
        return e8[:n]
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    simple_roots: tuple[Vector, ...]
    positive_roots: tuple[Vector, ...]
    rho: Vector

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    def dynkin_labels(self, weight: Vector) -> list[Fraction]:
        """The pairings 2<w, a>/<a, a> of the weight with the simple roots."""
        return [2 * dot(weight, alpha) / dot(alpha, alpha) for alpha in self.simple_roots]

    def is_dominant(self, weight: Vector) -> bool:
        """All Dynkin labels are non-negative integers."""
        return all(x >= 0 and x.denominator == 1 for x in self.dynkin_labels(weight))

    def rho_multiple(self, k: int) -> Vector:
        return tuple(k * c for c in self.rho)


def build_root_system(family: str, rank: int) -> RootSystem:
    """Exact positive roots in the standard coordinates for the given family.

    The roots are closed in simple-root coordinates on Python ints: the
    reflection s_i(beta) = beta - <beta, alpha_i^v> alpha_i changes only
    coordinate i, by sum_j c_j <alpha_j, alpha_i^v>, an integer Cartan entry.
    A root is positive when all its coordinates are >= 0."""
    family = family.upper()
    if family not in _VALID_RANKS or not _VALID_RANKS[family](rank):
        raise ValueError(f"invalid root system {family}{shown(rank)}")
    simple = _simple_roots(family, rank)
    cartan = [[int(2 * dot(a, b) / dot(b, b)) for b in simple] for a in simple]

    def reflect(coords: tuple[int, ...], i: int) -> tuple[int, ...]:
        out = list(coords)
        out[i] -= sum(c * row[i] for c, row in zip(coords, cartan) if c)
        return tuple(out)
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots = orbit(units, range(rank), reflect)
    positive_coords = [c for c in roots if min(c) >= 0]
    expected = _POSITIVE_ROOT_COUNTS[family](rank)
    if len(positive_coords) != expected:
        raise AssertionError(
            f"{family}{rank}: found {len(positive_coords)} positive roots, expected {expected}"
        )
    # the ambient roots are integer vectors over the simple roots' denominators
    scale = lcm(*(x.denominator for alpha in simple for x in alpha))
    columns = [[int(x * scale) for x in column] for column in zip(*simple)]
    ambient = sorted(tuple(sum(c * x for c, x in zip(coords, column))
                           for column in columns)
                     for coords in positive_coords)
    positive = [tuple(Fraction(x, scale) for x in beta) for beta in ambient]
    rho = tuple(Fraction(sum(column), 2 * scale) for column in zip(*ambient))
    for alpha in positive:
        if dot(rho, alpha) <= 0:
            raise AssertionError("rho must pair positively with every positive root")
    return RootSystem(family, rank, tuple(simple), tuple(positive), rho)


def weyl_dim(rs: RootSystem, weight: Vector) -> int:
    """Dimension of the irreducible with the given dominant highest weight.

    A weight whose dimension may pass the interpreter's digit limit for
    str(int) is refused before any product: each factor <lambda + rho, alpha>
    / <rho, alpha> is at most its numerator, so 2 to the sum of their bit
    lengths bounds the dimension."""
    weight = tuple(Fraction(c) for c in weight)
    if len(weight) != len(rs.rho):
        raise ValueError(
            f"weight has {len(weight)} coordinates, expected {len(rs.rho)}"
        )
    if not rs.is_dominant(weight):
        coords = shown(",".join(map(str, weight)))
        raise ValueError(f"weight {coords} is not dominant for {rs.family}{rs.rank}")
    shifted = tuple(w + r for w, r in zip(weight, rs.rho))
    factors = [dot(shifted, alpha) / dot(rs.rho, alpha) for alpha in rs.positive_roots]
    limit = past_digit_limit((1 << sum(f.numerator.bit_length() for f in factors)) - 1)
    if limit:
        coords = shown(",".join(map(str, weight)))
        raise ValueError(f"the dimension at weight {coords} may pass {limit} digits")
    result = Fraction(1)
    for f in factors:
        result *= f
    if result.denominator != 1 or result < 1:
        raise AssertionError("Weyl dimension must be a positive integer")
    return result.numerator


def check_2m_rho(rs: RootSystem, m: int) -> bool:
    """dim V(2m*rho) == (2m+1)^N, both sides computed exactly."""
    if not isinstance(m, int) or m < 1:
        raise ValueError("m must be a positive integer")
    return weyl_dim(rs, rs.rho_multiple(2 * m)) == (2 * m + 1) ** rs.num_positive_roots
