"""Newton polygons of slope data: construction, height, additivity, integrality.

A slope multiset records the slopes of an object together with the dimensions
of its graded pieces; its Newton polygon is the convex polygon through the
cumulative (dimension, slope * dimension) points.  The empty multiset is the
zero object.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exactnum import shown


@dataclass(frozen=True)
class SlopeMultiset:
    """Strictly increasing (slope, multiplicity) pairs; slopes >= 0, mults >= 1."""

    entries: tuple[tuple[Fraction, int], ...] = ()

    def __post_init__(self):
        prev = None
        for slope, mult in self.entries:
            if not isinstance(slope, Fraction) or slope < 0:
                raise ValueError(f"slope {shown(slope)} must be a Fraction >= 0")
            if not isinstance(mult, int) or mult < 1:
                raise ValueError(f"multiplicity {shown(mult)} must be a positive integer")
            if prev is not None and slope <= prev:
                raise ValueError("slopes must be strictly increasing")
            prev = slope

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Fraction, int]]) -> SlopeMultiset:
        """Build from unordered pairs, merging equal slopes and dropping zero mults."""
        merged: dict[Fraction, int] = {}
        for slope, mult in pairs:
            merged[slope] = merged.get(slope, 0) + mult
        entries = tuple(
            (s, m) for s, m in sorted(merged.items()) if m != 0
        )
        return SlopeMultiset(entries)

    @property
    def total_dimension(self) -> int:
        return sum(m for _, m in self.entries)

    def __add__(self, other: SlopeMultiset) -> SlopeMultiset:
        return SlopeMultiset.from_pairs(self.entries + other.entries)

    def scale(self, n: int) -> SlopeMultiset:
        """Multiply every slope by n >= 1, keeping multiplicities."""
        if not isinstance(n, int) or n < 1:
            raise ValueError("scaling factor must be a positive integer")
        return SlopeMultiset(tuple((s * n, m) for s, m in self.entries))


@dataclass(frozen=True)
class NewtonPolygon:
    """Convex polygon with vertices in Q>=0 x Q>=0 starting at the origin.

    Consecutive edge slopes are strictly increasing, so structural equality of
    the vertex list is polygon equality.
    """

    vertices: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        v = self.vertices
        if not v or v[0] != (Fraction(0), Fraction(0)):
            raise ValueError("first vertex must be (0, 0)")
        prev_slope = None
        for (x0, y0), (x1, y1) in zip(v, v[1:]):
            if x1 <= x0:
                raise ValueError("x coordinates must be strictly increasing")
            if y1 < 0 or x1 < 0:
                raise ValueError("vertices must have non-negative coordinates")
            slope = (y1 - y0) / (x1 - x0)
            if prev_slope is not None and slope <= prev_slope:
                raise ValueError("edge slopes must be strictly increasing (convexity)")
            prev_slope = slope

    @property
    def height(self) -> Fraction:
        """y-coordinate of the rightmost vertex."""
        return self.vertices[-1][1]

    def is_integral(self) -> bool:
        """True iff every vertex lies in Z x Z."""
        return all(
            x.denominator == 1 and y.denominator == 1 for x, y in self.vertices
        )


def polygon_from_slopes(s: SlopeMultiset) -> NewtonPolygon:
    """Polygon through the cumulative (sum of dims, sum of slope*dim) points."""
    vertices = [(Fraction(0), Fraction(0))]
    x = Fraction(0)
    y = Fraction(0)
    for slope, mult in s.entries:
        x += mult
        y += slope * mult
        vertices.append((x, y))
    # strictly increasing slopes never produce collinear interior vertices
    return NewtonPolygon(tuple(vertices))


def slopes_from_polygon(np: NewtonPolygon) -> SlopeMultiset:
    """Inverse of polygon_from_slopes; witnesses its injectivity."""
    pairs = []
    for (x0, y0), (x1, y1) in zip(np.vertices, np.vertices[1:]):
        dx = x1 - x0
        if dx.denominator != 1:
            raise ValueError("edge widths of a slope polygon must be integers")
        pairs.append(((y1 - y0) / dx, dx.numerator))
    return SlopeMultiset.from_pairs(pairs)


def tensor_slope_bound(
    a: SlopeMultiset, b: SlopeMultiset
) -> tuple[SlopeMultiset, tuple[tuple[Fraction, int], ...]]:
    """Slope constraints on a tensor product from the two factors.

    Pairs with distinct slopes land exactly at the larger slope; pairs with
    equal slope lambda only constrain their mass to slopes <= lambda.  Returns
    (exact part, bounded part), the bounded part as (bound, dimension) pairs.
    """
    exact: dict[Fraction, int] = {}
    bounded: dict[Fraction, int] = {}
    for la, ma in a.entries:
        for lb, mb in b.entries:
            if la == lb:
                bounded[la] = bounded.get(la, 0) + ma * mb
            else:
                top = max(la, lb)
                exact[top] = exact.get(top, 0) + ma * mb
    return (
        SlopeMultiset.from_pairs(exact.items()),
        tuple(sorted(bounded.items())),
    )
