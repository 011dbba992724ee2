#!/usr/bin/env python3
"""Walkthrough: slope multisets and their Newton polygons.

A slope multiset records (slope, multiplicity) pairs; its polygon runs
through the cumulative (dimension, slope * dimension) points.  Everything is
exact rational arithmetic.
"""

from fractions import Fraction as F

from slopeforge import (SlopeMultiset, polygon_from_slopes, slopes_from_polygon,
                        tensor_slope_bound)

print("== building polygons ==")
ms = SlopeMultiset.from_pairs([(F(0), 2), (F(1, 2), 2)])
poly = polygon_from_slopes(ms)
print("slopes:", ms.entries)
print("vertices:", poly.vertices)
print("height:", poly.height, "| integral:", poly.is_integral())

print()
print("== the polygon determines the slopes ==")
print("recovered:", slopes_from_polygon(poly).entries)

print()
print("== height is additive and integrality is about vertices ==")
a = SlopeMultiset.from_pairs([(F(1, 2), 1)])
b = SlopeMultiset.from_pairs([(F(1, 2), 1), (F(2), 1)])
for label, s in [("a", a), ("b", b), ("a+b", a + b)]:
    p = polygon_from_slopes(s)
    print(f"{label}: height {p.height}, integral {p.is_integral()}")
print("note: a alone has a non-integral vertex (1, 1/2); merging the two")
print("half-slopes in a+b lands every vertex on the integer lattice")

print()
print("== scaling slopes (ramification by degree n) ==")
print("x3:", SlopeMultiset.from_pairs([(F(1, 3), 2), (F(1), 1)]).scale(3).entries)

print()
print("== slope constraints on a tensor product ==")
exact, bounded = tensor_slope_bound(
    SlopeMultiset.from_pairs([(F(0), 1), (F(1), 1)]),
    SlopeMultiset.from_pairs([(F(1), 1)]),
)
print("exact part:", exact.entries)
print("bounded part (mass constrained to slopes <= bound):", bounded)
print("pairs with distinct slopes land exactly at the larger slope;")
print("equal-slope pairs may drop, so only an upper bound is recorded")
