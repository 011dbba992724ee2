"""Root systems and the Weyl dimension formula, in exact rational arithmetic.

dim V(lambda) = prod over positive roots of <lambda + rho, alpha> / <rho, alpha>,
with rho the half-sum of the positive roots.  For lambda = 2m * rho the product
telescopes to (2m+1)^N with N the number of positive roots; check_2m_rho
verifies that identity by computing both sides independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import shown
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


def _solve_coordinates(basis: list[Vector], target: Vector) -> list[Fraction] | None:
    """Coordinates of target in the given independent basis, or None."""
    m = [[basis[j][i] for j in range(len(basis))] + [target[i]] for i in range(len(target))]
    ncols = len(basis)
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            return None
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    coords = [m[i][ncols] for i in range(ncols)]
    for i in range(r, len(m)):
        if m[i][ncols] != 0:
            return None
    return coords


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

    def is_dominant(self, weight: Vector) -> bool:
        """All pairings 2<w, a>/<a, a> with simple roots are non-negative integers."""
        for alpha in self.simple_roots:
            pairing = 2 * dot(weight, alpha) / dot(alpha, alpha)
            if pairing < 0 or pairing.denominator != 1:
                return False
        return True

    def rho_multiple(self, k: int) -> Vector:
        return tuple(k * c for c in self.rho)


def build_root_system(family: str, rank: int) -> RootSystem:
    """Exact positive roots in the standard coordinates for the given family."""
    family = family.upper()
    if family not in _VALID_RANKS or not _VALID_RANKS[family](rank):
        raise ValueError(f"invalid root system {family}{shown(rank)}")
    simple = _simple_roots(family, rank)

    def reflect(beta: Vector, alpha: Vector) -> Vector:
        coeff = 2 * dot(beta, alpha) / dot(alpha, alpha)
        return tuple(b - coeff * a for b, a in zip(beta, alpha))
    # the roots are the closure of the simple roots under the simple reflections
    roots = orbit(simple, simple, reflect)
    positive = []
    for beta in sorted(roots):
        coords = _solve_coordinates(simple, beta)
        if coords is None:
            raise AssertionError("root outside simple-root span")
        if all(c >= 0 for c in coords) and any(c > 0 for c in coords):
            positive.append(beta)
    expected = _POSITIVE_ROOT_COUNTS[family](rank)
    if len(positive) != expected:
        raise AssertionError(
            f"{family}{rank}: found {len(positive)} positive roots, expected {expected}"
        )
    dim = len(simple[0])
    rho = tuple(
        sum((beta[i] for beta in positive), Fraction(0)) / 2 for i in range(dim)
    )
    for alpha in positive:
        if dot(rho, alpha) <= 0:
            raise AssertionError("rho must pair positively with every positive root")
    return RootSystem(family, rank, tuple(simple), tuple(positive), rho)


def weyl_dim(rs: RootSystem, weight: Vector) -> int:
    """Dimension of the irreducible with the given dominant highest weight."""
    weight = tuple(Fraction(c) for c in weight)
    if len(weight) != len(rs.rho):
        raise ValueError(
            f"weight has {len(weight)} coordinates, expected {len(rs.rho)}"
        )
    if not rs.is_dominant(weight):
        coords = shown(",".join(map(str, weight)))
        raise ValueError(f"weight {coords} is not dominant for {rs.family}{rs.rank}")
    shifted = tuple(w + r for w, r in zip(weight, rs.rho))
    result = Fraction(1)
    for alpha in rs.positive_roots:
        result *= dot(shifted, alpha) / dot(rs.rho, alpha)
    if result.denominator != 1 or result < 1:
        raise AssertionError("Weyl dimension must be a positive integer")
    return result.numerator


def check_2m_rho(rs: RootSystem, m: int) -> bool:
    """dim V(2m*rho) == (2m+1)^N, both sides computed exactly."""
    if not isinstance(m, int) or m < 1:
        raise ValueError("m must be a positive integer")
    return weyl_dim(rs, rs.rho_multiple(2 * m)) == (2 * m + 1) ** rs.num_positive_roots
