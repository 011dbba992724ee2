from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from slopeforge.newton import (NewtonPolygon, SlopeMultiset, polygon_from_slopes,
                               slopes_from_polygon, tensor_slope_bound)


def ms(*pairs):
    return SlopeMultiset.from_pairs([(F(s), m) for s, m in pairs])


@st.composite
def multisets(draw):
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        pairs.append((F(draw(st.integers(0, 10)), draw(st.integers(1, 6))),
                      draw(st.integers(1, 4))))
    return SlopeMultiset.from_pairs(pairs)


class TestPolygonConstruction:
    def test_two_slope_example(self):
        poly = polygon_from_slopes(ms(("0", 2), ("1/2", 2)))
        assert poly.vertices == ((F(0), F(0)), (F(2), F(0)), (F(4), F(1)))

    def test_zero_object(self):
        assert polygon_from_slopes(ms()).vertices == ((F(0), F(0)),)

    def test_single_segment(self):
        poly = polygon_from_slopes(ms(("1", 3)))
        assert poly.vertices == ((F(0), F(0)), (F(3), F(3)))

    def test_injective(self):
        seen = {}
        for s in [ms(), ms(("1", 1)), ms(("1", 2)), ms(("1/2", 2)),
                  ms(("0", 1), ("1", 1)), ms(("1/3", 3), ("2", 1))]:
            poly = polygon_from_slopes(s)
            assert poly.vertices not in seen
            seen[poly.vertices] = s
            assert slopes_from_polygon(poly) == s

    def test_convexity_validated(self):
        with pytest.raises(ValueError):
            NewtonPolygon(((F(0), F(0)), (F(1), F(1)), (F(2), F(1))))
        with pytest.raises(ValueError):
            NewtonPolygon(((F(1), F(0)),))


class TestHeight:
    def test_examples(self):
        assert polygon_from_slopes(ms(("0", 2), ("1/2", 2))).height == 1
        assert polygon_from_slopes(ms(("0", 7))).height == 0
        assert polygon_from_slopes(ms(("1/2", 1))).height == F(1, 2)


class TestAddition:
    def test_zero_neutral(self):
        a = ms(("1/2", 2), ("3", 1))
        assert a + ms() == a

    def test_merge_and_polygon(self):
        total = ms(("0", 1)) + ms(("1", 1))
        assert total == ms(("0", 1), ("1", 1))
        assert polygon_from_slopes(total).vertices == (
            (F(0), F(0)), (F(1), F(0)), (F(2), F(1)))

    def test_height_additive_on_merge(self):
        assert polygon_from_slopes(ms(("1/2", 2)) + ms(("1/2", 2))).height == 2

    @settings(max_examples=60, deadline=None)
    @given(multisets(), multisets(), multisets())
    def test_monoid_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert polygon_from_slopes(a + b).height == (
            polygon_from_slopes(a).height + polygon_from_slopes(b).height)


class TestIntegrality:
    def test_examples(self):
        assert polygon_from_slopes(ms(("1/2", 2))).is_integral()
        assert not polygon_from_slopes(ms(("1/2", 1))).is_integral()
        assert polygon_from_slopes(ms(("0", 5))).is_integral()

    @settings(max_examples=60, deadline=None)
    @given(multisets(), multisets())
    def test_integral_components_imply_integral_sum(self, a, b):
        components = [ms((s, m)) for s, m in (a.entries + b.entries)]
        if all(polygon_from_slopes(c).is_integral() for c in components):
            assert polygon_from_slopes(a + b).is_integral()


class TestScaling:
    def test_identity(self):
        a = ms(("1/2", 1), ("2", 3))
        assert a.scale(1) == a

    def test_examples(self):
        assert ms(("1/2", 1)).scale(2) == ms(("1", 1))
        assert ms(("1/3", 2), ("1", 1)).scale(3) == ms(("1", 2), ("3", 1))

    @settings(max_examples=60, deadline=None)
    @given(multisets(), st.integers(1, 4), st.integers(1, 4))
    def test_functorial(self, a, m, n):
        assert a.scale(m * n) == a.scale(n).scale(m)


class TestTensorBound:
    def test_distinct_slopes_exact(self):
        exact, bounded = tensor_slope_bound(ms(("1", 1)), ms(("1/2", 1)))
        assert exact == ms(("1", 1)) and bounded == ()

    def test_equal_slope_only_bounded(self):
        exact, bounded = tensor_slope_bound(ms(("1", 1)), ms(("1", 1)))
        assert exact == ms() and bounded == ((F(1), 1),)

    def test_pairwise(self):
        exact, bounded = tensor_slope_bound(ms(("0", 1), ("1", 1)), ms(("1/2", 1)))
        assert exact == ms(("1/2", 1), ("1", 1)) and bounded == ()

    def test_mass_conservation(self):
        a, b = ms(("0", 2), ("1", 3)), ms(("1", 1), ("2", 2))
        exact, bounded = tensor_slope_bound(a, b)
        total = exact.total_dimension + sum(m for _, m in bounded)
        assert total == a.total_dimension * b.total_dimension
