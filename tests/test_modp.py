from hypothesis import given, strategies as st

from slopeforge import modp


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def from_roots(lams, p, extra=(1,)):
    """The product of the factors (x - lambda) mod p, times `extra`."""
    f = list(extra)
    for lam in lams:
        f = poly_mul(f, [-lam % p, 1], p)
    return f


class TestRoots:
    def test_degree_one(self):
        assert modp.roots([3, 1], 7) == [4]
        assert modp.roots([0, 5], 7) == [0]

    def test_repeated_roots_are_listed_once(self):
        assert modp.roots(from_roots([5, 5, 5, 1, 0, 0], 11), 11) == [0, 1, 5]

    def test_no_roots(self):
        assert modp.roots([1], 13) == []
        assert modp.roots([6], 13) == []
        # x^2 + 1 is irreducible mod 3 and mod 7
        assert modp.roots([1, 0, 1], 3) == []
        assert modp.roots(from_roots([2, 2], 7, extra=[1, 0, 1]), 7) == [2]

    def test_p_equals_two(self):
        assert modp.roots([1, 1], 2) == [1]
        assert modp.roots([0, 1, 1], 2) == [0, 1]
        assert modp.roots([1, 1, 1], 2) == []
        assert modp.roots(from_roots([1, 1, 1], 2), 2) == [1]

    def test_charpoly_roots_are_the_eigenvalues(self):
        # an upper triangular matrix: its eigenvalues sit on the diagonal
        A = [[4, 1, 9], [0, 2, 3], [0, 0, 4]]
        assert modp.roots(modp.charpoly(A, 13), 13) == [2, 4]

    @given(st.sampled_from([2, 3, 5, 7, 31, 337]), st.data())
    def test_products_of_linear_factors(self, p, data):
        lams = data.draw(st.lists(st.integers(0, p - 1), max_size=8))
        lead = data.draw(st.integers(1, p - 1))
        assert modp.roots(from_roots(lams, p, extra=[lead]), p) == sorted(set(lams))
