import random
from itertools import product as iter_product
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import slopeforge.groups
from slopeforge import corpus
from slopeforge.corpus import abelian_groups_up_to_64, group_zoo_up_to_100
from slopeforge.groups import (BASE_TABLE_MAX_ORDER, GoursatDichotomyError,
                               GroupError, Subgroup, WreathProduct,
                               _class_closure, _extend_closed,
                               _greedy_generators,
                               alternating_group, automorphism_count,
                               classify_wreath_subgroup,
                               cyclic_group, cyclic_rotations, dihedral_group,
                               direct_product, elementary_abelian_group,
                               embed_in_wreath, galois_orbit,
                               generated_subgroup,
                               goursat_classify, group_from_cayley_table,
                               group_from_permutations, heisenberg_group,
                               is_simple, longest_normal_chain,
                               normal_subgroups, orbit, outer_automorphism_order,
                               quaternion_group, rotation, subgroup_closure,
                               symmetric_group, wreath_cyclic)
from slopeforge.jsonio import parse_subgroup
from slopeforge.verify import run_suites


# S4 from (1 3), (1 3 2) and (0 3 2): the first is generated by the later two
S4_LATER_SPANS_EARLIER = [(0, 3, 2, 1), (0, 3, 1, 2), (3, 1, 0, 2)]
# in C3 wr C2: the swap of the coordinates, a base element it inverts, and
# their product, which the first two generate; <swap, d> is S3
SWAP, D = ((1, 0), (0, 0)), ((0, 1), (1, 2))
SWAP_D = ((1, 0), (1, 2))


def generator_values(G):
    return [G.elements[g] for g in G.generators]


class TestClosureGenerators:
    """group_from_permutations and WreathProduct.subgroup_from_raw keep the
    greedy generators of the list they are given: each element that the
    ones before it do not generate."""

    @pytest.mark.parametrize("perms, kept", [
        ([(1, 2, 0), (1, 2, 0), (1, 0, 2)], [(1, 2, 0), (1, 0, 2)]),
        ([(0, 1, 2), (1, 2, 0)], [(1, 2, 0)]),
        ([(1, 0, 2), (1, 2, 0), (2, 1, 0)], [(1, 0, 2), (1, 2, 0)]),
        ([rotation(12, 1), rotation(12, 5)], [rotation(12, 1)]),
        ([rotation(12, 5), rotation(12, 1)], [rotation(12, 5)]),
        (S4_LATER_SPANS_EARLIER, S4_LATER_SPANS_EARLIER),
    ], ids=["repeated", "identity", "S3-generated-by-earlier",
            "C12-generated-by-earlier", "C12-reversed", "S4-later-spans-earlier"])
    def test_group_from_permutations(self, perms, kept):
        G = group_from_permutations(perms)
        assert generator_values(G) == sorted(kept)

    def test_s2_keeps_one_of_its_coinciding_swap_and_cycle(self):
        # both are (1, 0); the given list was kept whole, as [1, 1], before
        S2 = symmetric_group(2)
        assert (S2.order, S2.generators, generator_values(S2)) == (
            2, [1], [(1, 0)])
        assert automorphism_count(S2) == 1

    @pytest.mark.parametrize("raws, kept", [
        ([SWAP, D, SWAP], [SWAP, D]),
        ([((0, 1), (0, 0)), SWAP, D], [SWAP, D]),
        ([SWAP, D, SWAP_D], [SWAP, D]),
        ([SWAP_D, SWAP, D], [SWAP_D, SWAP]),
    ], ids=["repeated", "identity", "generated-by-earlier", "reordered"])
    def test_subgroup_from_raw(self, raws, kept):
        W = wreath_cyclic(cyclic_group(3), 2)
        assert W.compose(SWAP, D) == SWAP_D
        H = W.subgroup_from_raw(raws)
        assert H.order == 6 and generator_values(H) == sorted(kept)

    @pytest.mark.parametrize("perms, kept", [
        ([(2, 1, 0), (1, 2, 0), (2, 1, 0)], [(2, 1, 0), (1, 2, 0)]),
        ([(2, 1, 0), (0, 1, 2), (1, 2, 0)], [(2, 1, 0), (1, 2, 0)]),
        ([rotation(4, 1), rotation(4, 2), rotation(4, 3)], [rotation(4, 1)]),
    ], ids=["repeated", "identity", "C4-generated-by-earlier"])
    def test_generated_subgroup(self, perms, kept):
        # kept in the given order, where the sorted list was kept whole
        G = symmetric_group(len(perms[0]))
        H = generated_subgroup(G, [G.index[p] for p in perms])
        assert H.generators == tuple(G.index[p] for p in kept)
        checked = Subgroup(G, H.elements, H.generators)
        assert checked == H and checked.generators == H.generators

    def test_the_corpora_and_suites_close_no_redundant_list(self, monkeypatch):
        # every list that the zoo, the corpora and the verify suites close is
        # kept whole, so their groups keep the generators they are given
        closed = []
        build = slopeforge.groups.group_from_permutations
        close = WreathProduct.subgroup_from_raw

        def recording_build(gens, *args, **kwargs):
            closed.append((list(gens), build(gens, *args, **kwargs)))
            return closed[-1][1]

        def recording_close(W, raws, *args, **kwargs):
            closed.append((list(raws), close(W, raws, *args, **kwargs)))
            return closed[-1][1]

        monkeypatch.setattr(slopeforge.groups, "group_from_permutations",
                            recording_build)
        monkeypatch.setattr(WreathProduct, "subgroup_from_raw", recording_close)
        for cached in (abelian_groups_up_to_64, group_zoo_up_to_100,
                       corpus._filtered_group_catalog):
            cached.__wrapped__()
        corpus.abelian_chain_corpus(2024)
        corpus.filtered_group_corpus()
        corpus.mackey_pair_corpus()
        corpus.tensor_induction_corpus()
        corpus.prime_power_chain_corpus()
        corpus.fractional_break_chain_corpus()
        assert all(r.passed for r in run_suites())
        assert len(closed) > 100
        for gens, G in closed:
            given = sorted(tuple(g) for g in gens if tuple(g) != G.elements[0])
            assert generator_values(G) == given, G.name


class TestConstruction:
    def test_cyclic_closure(self):
        assert cyclic_group(3).order == 3

    def test_s3_closure(self):
        assert group_from_permutations([(1, 0, 2), (1, 2, 0)]).order == 6

    def test_empty_generators(self):
        assert group_from_permutations([]).order == 1

    def test_rejects_non_permutation(self):
        with pytest.raises(GroupError):
            group_from_permutations([(0, 0, 1)])

    def test_negative_power_is_the_inverse_of_the_positive_power(self):
        for G in (cyclic_group(5), symmetric_group(3)):
            for g in range(G.order):
                assert G.power(g, -1) == G.inv(g)
                for k in range(1, 7):
                    assert G.power(g, -k) == G.inv(G.power(g, k))

    def test_order_bound(self):
        with pytest.raises(GroupError):
            group_from_permutations([tuple(list(range(1, 11)) + [0])], max_order=5)
        # S3 is reached coset by coset (2, 4, 6 elements): the bound is exact
        s3 = [(1, 0, 2), (1, 2, 0)]
        with pytest.raises(GroupError, match="closure exceeds order bound 5"):
            group_from_permutations(s3, max_order=5)
        assert group_from_permutations(s3, max_order=6).order == 6

    def test_cayley_table_roundtrip(self):
        C3 = cyclic_group(3)
        table = [[C3.mul(i, j) for j in range(3)] for i in range(3)]
        G = group_from_cayley_table(table)
        assert G.order == 3 and G.element_order(1) == 3

    def test_cayley_table_rejects_broken(self):
        with pytest.raises(GroupError):
            group_from_cayley_table([[0, 1], [0, 1]])

    def test_cayley_table_rejects_the_smallest_non_associative_loop(self):
        # a Latin square of order 5 with identity 0: (1*1)*2 = 2, 1*(1*2) = 4
        loop = [[0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0]]
        with pytest.raises(GroupError, match="^table is not associative$"):
            group_from_cayley_table(loop)

    def test_cayley_table_keeps_the_generators_of_its_check(self):
        # S3 relabelled so that the identity is 3: greedy generators 0 and 1
        S3 = symmetric_group(3)
        label = [3, 0, 1, 2, 4, 5]
        table = [[0] * 6 for _ in range(6)]
        for i in range(6):
            for j in range(6):
                table[label[i]][label[j]] = label[S3.mul(i, j)]
        G = group_from_cayley_table(table)
        assert G.elements[0] == 3 and not G.is_abelian()
        assert [G.elements[g] for g in G.generators] == [0, 1]
        assert sorted(len(c) for c in G.conjugacy_classes) == [1, 2, 3]

    def test_named_groups(self):
        assert symmetric_group(4).order == 24
        assert alternating_group(4).order == 12
        assert alternating_group(5).order == 60
        assert dihedral_group(6).order == 12
        assert quaternion_group().order == 8
        assert heisenberg_group(3).order == 27
        assert elementary_abelian_group(2, 3).order == 8


def pairwise_product_closure(perms, degree):
    """Multiply all pairs until nothing new appears (a reference closure)."""
    group = {tuple(range(degree))} | set(perms)
    while True:
        bigger = group | {tuple(a[x] for x in b) for a, b in iter_product(group, group)}
        if bigger == group:
            return group
        group = bigger


@st.composite
def permutation_lists(draw):
    degree = draw(st.integers(1, 5))
    perm = st.permutations(range(degree)).map(tuple)
    return degree, draw(st.lists(perm, max_size=3))


class TestOrbit:
    @settings(max_examples=60, deadline=None)
    @given(permutation_lists())
    def test_closure_matches_pairwise_products(self, case):
        degree, perms = case
        expected = pairwise_product_closure(perms, degree)
        identity = tuple(range(degree))
        compose = lambda a, b: tuple(a[x] for x in b)  # noqa: E731
        assert orbit([identity], perms, compose) == expected
        if perms:
            G = group_from_permutations(perms)
            assert set(G.elements) == expected
        S = symmetric_group(degree)
        gens = [S.index[p] for p in perms]
        closure = subgroup_closure(S, gens)
        assert {S.elements[i] for i in closure} == expected
        assert generated_subgroup(S, gens).elements == closure


class TestConjugacyClasses:
    def test_s3(self):
        assert sorted(len(c) for c in symmetric_group(3).conjugacy_classes) == [1, 2, 3]

    def test_abelian_singletons(self):
        G = cyclic_group(12)
        assert all(len(c) == 1 for c in G.conjugacy_classes)

    def test_q8_has_five(self):
        assert len(quaternion_group().conjugacy_classes) == 5

    def test_identity_first(self):
        for G in (symmetric_group(4), quaternion_group()):
            assert G.conjugacy_classes[0] == (0,)


class TestNormalSubgroups:
    def test_s3(self):
        assert [n.order for n in normal_subgroups(symmetric_group(3))] == [1, 3, 6]

    def test_prime_cyclic_simple(self):
        assert is_simple(cyclic_group(5))
        assert not is_simple(cyclic_group(6))

    def test_klein_four_all_subgroups_normal(self):
        assert len(normal_subgroups(elementary_abelian_group(2, 2))) == 5

    def test_a5_simple(self):
        assert is_simple(alternating_group(5))

    def test_chain_length(self):
        ns = normal_subgroups(cyclic_group(8))
        assert [n.order for n in ns] == [1, 2, 4, 8]
        assert longest_normal_chain(ns) == 4

    @pytest.mark.parametrize("G", [
        symmetric_group(4),
        wreath_cyclic(alternating_group(4), 2).group(),
        wreath_cyclic(symmetric_group(3), 3).group(),
    ], ids=["S4", "A4wrC2", "S3wrC3"])
    def test_closure_built_subgroups_pass_validation(self, G):
        for S in normal_subgroups(G):
            checked = Subgroup(G, S.elements, S.generators)
            assert checked == S and checked.is_normal()
            assert subgroup_closure(G, S.generators) == S.elements


def count_products(G, call):
    """call() and the number of products G.mul made during it."""
    count = 0
    mul = G.mul

    def counted(i, j):
        nonlocal count
        count += 1
        return mul(i, j)

    G.mul = counted
    try:
        return call(), count
    finally:
        del G.mul


def normal_subgroups_closing_every_class(G):
    """The lattice as it was built before the Lagrange shortcuts: the normal
    closure of every non-trivial class from scratch, then the join orbit."""
    def closure(cls):
        gens, members = _greedy_generators(cls, 0, G.mul)
        return Subgroup._from_closure(G, tuple(sorted(members)), tuple(sorted(gens)))

    base = list(dict.fromkeys(closure(cls) for cls in G.conjugacy_classes[1:]))

    def join(A, B):
        if B.element_set <= A.element_set:
            return A
        if A.element_set <= B.element_set:
            return B
        members = _extend_closed(A.elements, B.generators, G.mul, 0)
        gens = tuple(sorted(set(A.generators) | set(B.generators)))
        return Subgroup._from_closure(G, tuple(sorted(members)), gens)

    found = orbit([G.trivial_subgroup()] + base, base, join)
    return sorted(found, key=lambda S: (S.order, S.elements))


def psl27():
    """PSL(2,7) on the projective line over F_7 (point 7 is infinity)."""
    s = [7] + [(-pow(x, -1, 7)) % 7 for x in range(1, 7)] + [0]
    return group_from_permutations([tuple([*range(1, 7), 0, 7]), tuple(s)],
                                   name="PSL27")


def diagonal_with_rotation(H, ell):
    """The diagonal copy of H in C_ell wr H with the rotation of the
    coordinates: H x C_ell, as the wreath classification meets it."""
    W = wreath_cyclic(H, ell)
    raws = [W.top_element(cyclic_rotations(ell)[1])]
    raws += [W.base_element((g,) * ell) for g in H.generators]
    return W.subgroup_from_raw(raws)


def hyperoctahedral(n):
    """C2 wr S_n as signed permutations of 2n points, order 2^n n!."""
    swap = (1, 0, *range(2, 2 * n))
    shift = tuple((i + 2) % (2 * n) for i in range(2 * n))
    transp = (2, 3, 0, 1, *range(4, 2 * n))
    return group_from_permutations([swap, shift, transp], name=f"B{n}")


# the groups of the wreath-lattice benchmark, B4 of the cli-requests
# benchmark, and small wreath products, powers and products where many
# classes share a closure
LATTICE_GROUPS = {
    "A5wrC2": lambda: wreath_cyclic(alternating_group(5), 2).group(),
    "A5diagC3": lambda: diagonal_with_rotation(alternating_group(5), 3),
    "B4": lambda: hyperoctahedral(4),
    "A4wrC2": lambda: wreath_cyclic(alternating_group(4), 2).group(),
    "S4wrC2": lambda: wreath_cyclic(symmetric_group(4), 2).group(),
    "S3wrC3": lambda: wreath_cyclic(symmetric_group(3), 3).group(),
    "C5wrC3": lambda: wreath_cyclic(cyclic_group(5), 3).group(),
    "C11wrC2": lambda: wreath_cyclic(cyclic_group(11), 2).group(),
    "C13wrC2": lambda: wreath_cyclic(cyclic_group(13), 2).group(),
    "S5": lambda: symmetric_group(5),
    "A6": lambda: alternating_group(6),
    "S6": lambda: symmetric_group(6),
    "PSL27": psl27,
    "C4wrC2": lambda: wreath_cyclic(cyclic_group(4), 2).group(),
    "E4wrC2": lambda: wreath_cyclic(elementary_abelian_group(2, 2), 2).group(),
    "C2^5": lambda: elementary_abelian_group(2, 5),
    "S3^3": lambda: direct_product(direct_product(symmetric_group(3), symmetric_group(3)),
                                   symmetric_group(3)),
    "C9xC3": lambda: direct_product(cyclic_group(9), cyclic_group(3)),
}


class TestNormalSubgroupsAgainstEveryClassClosure:
    def test_corpora(self):
        for G in abelian_groups_up_to_64() + group_zoo_up_to_100():
            assert ([S.elements for S in normal_subgroups(G)]
                    == [S.elements for S in normal_subgroups_closing_every_class(G)]), G

    @pytest.mark.parametrize("name", sorted(LATTICE_GROUPS))
    def test_lattice_groups(self, name):
        G = LATTICE_GROUPS[name]()
        assert ([S.elements for S in normal_subgroups(G)]
                == [S.elements for S in normal_subgroups_closing_every_class(G)])

    def test_a5_wr_c2_products(self):
        # 92,385 products when every one of the 19 classes was closed, and
        # 20,669 when a closure stopped only past |M|/2 elements; most of
        # what is left builds the base A5 x A5, exactly |G|/2
        G = wreath_cyclic(alternating_group(5), 2).group()
        G.conjugacy_classes, G.power_maps
        normals, count = count_products(G, lambda: normal_subgroups(G))
        assert [S.order for S in normals] == [1, 3600, 7200]
        assert count <= 5_072

    @pytest.mark.parametrize("name, products", [
        ("A6", 98),  # 1,075 when a closure stopped only past |M|/2
        ("PSL27", 62),  # 361
        ("S6", 618),  # 2,185
        ("A5diagC3", 650),  # 825
        ("B4", 5_473),  # 6,108
    ])
    def test_products_with_classes_known(self, name, products):
        G = LATTICE_GROUPS[name]()
        G.conjugacy_classes, G.power_maps
        _, count = count_products(G, lambda: normal_subgroups(G))
        assert count <= products

    def test_prime_index_closure_makes_no_product(self):
        # [M : N] prime: |N| + |C| > |M|/[M : N] = |N| before any product
        G = cyclic_group(101)
        G.conjugacy_classes, G.power_maps
        top = G.subgroup(range(101))
        C, count = count_products(G, lambda: _class_closure(
            G, G.conjugacy_classes[1], G.trivial_subgroup(), top))
        assert C is top and count == 0
        normals, count = count_products(G, lambda: normal_subgroups(G))
        assert [S.order for S in normals] == [1, 101] and count == 0


class TestExtendClosed:
    def test_stop_returns_the_union_at_the_first_coset_it_holds_for(self):
        # <4> in C12 grown by 1: the predicate sees each whole coset r + <4>
        seen = []

        def stop(coset):
            seen.append(sorted(coset))
            return len(seen) == 2

        members = _extend_closed({0, 4, 8}, [1], lambda x, y: (x + y) % 12, 0,
                                 stop=stop)
        assert seen == [[1, 5, 9], [2, 6, 10]]
        assert members == {0, 4, 8, 1, 5, 9, 2, 6, 10}

    def test_stop_is_not_called_when_no_coset_is_added(self):
        def stop(coset):
            raise AssertionError("called on " + repr(coset))

        members = _extend_closed({0, 4, 8}, [4, 8], lambda x, y: (x + y) % 12, 0,
                                 stop=stop)
        assert members == {0, 4, 8}


def classes_by_conjugating_products(G):
    """The classes as they were built before the Cayley-graph rows: orbits
    under x -> g^-1 x g, two products per element and generator."""
    pairs = [(g, G.inv(g)) for g in G.generators]
    classes, seen = [], set()
    for start in range(G.order):
        if start not in seen:
            cls = tuple(sorted(orbit([start], pairs,
                                     lambda x, p: G.mul(p[1], G.mul(x, p[0])))))
            seen.update(cls)
            classes.append(cls)
    return classes


def relabelled_table_group(G, seed):
    """G as a Cayley table under a seeded relabelling of its elements."""
    label = list(range(G.order))
    random.Random(seed).shuffle(label)
    table = [[0] * G.order for _ in range(G.order)]
    for i in range(G.order):
        for j in range(G.order):
            table[label[i]][label[j]] = label[G.mul(i, j)]
    return group_from_cayley_table(table, name=f"table-{G.name}")


class TestClassesFromCayleyGraph:
    def test_right_rows(self):
        G = symmetric_group(4)
        rows = G.right_rows([3, 17, 0])
        assert rows == [[G.mul(x, g) for x in range(24)] for g in (3, 17, 0)]
        assert "right_rows" not in vars(G)  # nothing is cached

    def test_corpora(self):
        for G in abelian_groups_up_to_64() + group_zoo_up_to_100():
            assert G.conjugacy_classes == classes_by_conjugating_products(G), G.name

    @pytest.mark.parametrize("name", sorted(LATTICE_GROUPS))
    def test_lattice_groups(self, name):
        G = LATTICE_GROUPS[name]()
        assert G.conjugacy_classes == classes_by_conjugating_products(G)

    @pytest.mark.parametrize("G", [
        symmetric_group(4), quaternion_group(), dihedral_group(6),
        heisenberg_group(3), alternating_group(5), cyclic_group(1),
    ], ids=["S4", "Q8", "D6", "Heis3", "A5", "C1"])
    def test_cayley_table_groups(self, G):
        T = relabelled_table_group(G, G.order)
        assert T.conjugacy_classes == classes_by_conjugating_products(T)
        check_inverses(T)
        assert sorted(map(len, T.conjugacy_classes)) == sorted(
            map(len, G.conjugacy_classes))

    def test_a5_wr_c2_products(self):
        # |G| products per generator, where conjugating took 2 * 7200 * 3
        G = wreath_cyclic(alternating_group(5), 2).group()
        classes, count = count_products(G, lambda: G.conjugacy_classes)
        assert len(classes) == 20 and len(G.generators) == 3
        assert count == G.order * len(G.generators) == 21_600

    def test_center_is_the_singleton_classes(self):
        def commuting(G):
            return tuple(x for x in range(G.order)
                         if all(G.mul(x, g) == G.mul(g, x) for g in G.generators))
        groups = list(abelian_groups_up_to_64() + group_zoo_up_to_100())
        groups += [build() for build in LATTICE_GROUPS.values()]
        for G in groups:
            assert G.center == commuting(G), G.name
        A5 = alternating_group(5)
        A5.conjugacy_classes
        assert count_products(A5, lambda: A5.center) == ((0,), 0)

    def test_trivial_subgroup_builds_no_inverses(self):
        G = wreath_cyclic(alternating_group(5), 2).group()
        assert G.trivial_subgroup().elements == (0,)
        assert "_inv_list" not in vars(G)


class TestMultiplicationTable:
    def test_corpora(self):
        for G in abelian_groups_up_to_64() + group_zoo_up_to_100():
            assert G._mul_rows == [[G.mul(i, j) for j in range(G.order)]
                                   for i in range(G.order)], G.name

    # the members of order at most BASE_TABLE_MAX_ORDER, the only bases
    # whose table a wreath product reads
    @pytest.mark.parametrize("name", ["C11wrC2", "S5", "PSL27", "C4wrC2",
                                      "E4wrC2", "C2^5", "S3^3", "C9xC3"])
    def test_lattice_groups(self, name):
        G = LATTICE_GROUPS[name]()
        assert G.order <= BASE_TABLE_MAX_ORDER
        assert G._mul_rows == [[G.mul(i, j) for j in range(G.order)]
                               for i in range(G.order)]

    def test_c251_products(self):
        # one right-multiplication row of the generator, then lookups, where
        # multiplying every pair took 251^2 = 63,001 products
        G = cyclic_group(251)
        table, count = count_products(G, lambda: G._mul_rows)
        assert count <= 251
        assert table[3][250] == G.mul(3, 250)


class TestWreath:
    def test_orders(self):
        assert wreath_cyclic(cyclic_group(3), 2).group().order == 18
        assert wreath_cyclic(symmetric_group(3), 1).group().order == 6

    def test_c2_wr_c2_is_dihedral(self):
        W = wreath_cyclic(cyclic_group(2), 2).group()
        D4 = dihedral_group(4)
        assert W.order == 8
        assert sorted(W.element_order(i) for i in range(8)) == sorted(
            D4.element_order(i) for i in range(8))
        assert len(W.conjugacy_classes) == len(D4.conjugacy_classes)

    def test_order_formula(self):
        for ell in (1, 2, 3):
            W = wreath_cyclic(symmetric_group(3), ell)
            assert W.order == ell * 6**ell

    @pytest.mark.parametrize("W, build", [
        (wreath_cyclic(alternating_group(5), 2), lambda W: W.group()),
        # the diagonal of C257 wr C2: a base above the table threshold
        (wreath_cyclic(cyclic_group(257), 2), lambda W: W.subgroup_from_raw(
            [W.top_element((1, 0)), W.base_element((1, 1))])),
    ], ids=["A5wrC2", "C257wrC2-diagonal"])
    def test_compose_matches_base_mul(self, W, build):
        G = build(W)
        mul = W.base.mul
        rng = random.Random(7)
        for _ in range(200):
            (s1, h1), (s2, h2) = rng.choice(G.elements), rng.choice(G.elements)
            expected = (tuple(s1[x] for x in s2),
                        tuple(mul(h1[s2[i]], h2[i]) for i in range(W.n)))
            assert W.compose((s1, h1), (s2, h2)) == expected
        small = W.base.order <= BASE_TABLE_MAX_ORDER
        assert ("_mul_rows" in vars(W.base)) == small

    def test_intransitive_top_generates_the_whole_product(self):
        # swapping two of three points gives (S3 wr C2) x S3, with 9 x 3
        # classes; with the base at point 0 alone, its generators made 54
        W = WreathProduct(symmetric_group(3), [(0, 1, 2), (1, 0, 2)])
        G = W.group()
        assert G.order == 432 and subgroup_closure(G, G.generators) == tuple(range(432))
        assert len(G.conjugacy_classes) == 27

    def test_top_must_be_closed_under_products(self):
        # closed under inverses, but the two transpositions generate S3
        with pytest.raises(GroupError, match="must be a group"):
            WreathProduct(cyclic_group(2), [(0, 1, 2), (1, 0, 2), (0, 2, 1)])

    def test_conjugation_relation(self):
        # sigma^-1 (h_1, .., h_n) sigma = (h_sigma(1), ..., h_sigma(n))
        H = symmetric_group(3)
        W = wreath_cyclic(H, 3)
        sigma = (1, 2, 0)
        h = (2, 5, 1)
        t = W.top_element(sigma)
        t_inv = W.top_element((2, 0, 1))
        assert W.compose(t_inv, t) == W.identity
        lhs = W.compose(W.compose(t_inv, W.base_element(h)), t)
        assert lhs == W.base_element(tuple(h[sigma[i]] for i in range(3)))


class TestEmbedding:
    def _check_embedding(self, G, H):
        emb = embed_in_wreath(G, H)
        W = emb.wreath
        for a in range(G.order):
            for b in range(G.order):
                assert W.compose(emb.images[a], emb.images[b]) == emb.images[G.mul(a, b)]
        assert len(set(emb.images)) == G.order
        return emb

    def test_c4_in_c2_wr_c2(self):
        C4 = cyclic_group(4)
        H = generated_subgroup(C4, [C4.power(1, 2)])
        emb = self._check_embedding(C4, H)
        assert emb.wreath.n == 2

    def test_trivial_index(self):
        C4 = cyclic_group(4)
        emb = self._check_embedding(C4, C4.full_subgroup())
        assert all(img[0] == (0,) for img in emb.images)

    def test_s3_in_s2_wr_a3(self):
        S3 = symmetric_group(3)
        A3 = next(N for N in normal_subgroups(S3) if N.order == 3)
        self._check_embedding(S3, A3)


class TestGoursat:
    def test_diagonal(self):
        C3 = cyclic_group(3)
        res = goursat_classify([(h, h) for h in range(3)], C3, 2)
        assert not res.full and res.automorphisms == ((0, 1, 2),)

    def test_antidiagonal(self):
        C3 = cyclic_group(3)
        res = goursat_classify([(h, C3.inv(h)) for h in range(3)], C3, 2)
        assert not res.full and res.automorphisms == ((0, 2, 1),)

    def test_full(self):
        C3 = cyclic_group(3)
        P = direct_product(C3, C3)
        assert goursat_classify([tuple(e) for e in P.elements], C3, 2).full

    def test_preconditions(self):
        C3 = cyclic_group(3)
        with pytest.raises(GroupError, match="shift"):
            goursat_classify([(0, 0), (1, 0), (2, 0)], C3, 2)
        with pytest.raises(GroupError, match="surject"):
            goursat_classify([(0, 0)], C3, 2)
        with pytest.raises(GroupError, match="simple"):
            goursat_classify([(h, h) for h in range(4)], cyclic_group(4), 2)
        with pytest.raises(GroupError, match="prime"):
            goursat_classify([(h, h, h, h) for h in range(3)], C3, 4)

    def test_non_homomorphism_is_refused(self):
        # swapping 1 and 2 in C5 is shift-stable, surjective and bijective,
        # but fixes 3 and is not the identity, so it is no automorphism
        C5 = cyclic_group(5)
        phi = (0, 2, 1, 3, 4)
        with pytest.raises(GroupError, match="^coordinate map is not an automorphism$"):
            goursat_classify([(h, phi[h]) for h in range(5)], C5, 2)

    def test_homomorphism_checked_on_generators(self):
        # the inverse diagonal of C101: 2 products per element and generator,
        # where checking all pairs took 2 * 101^2
        C101 = cyclic_group(101)
        assert is_simple(C101)  # its classes and power maps are cached
        diagonal = [(h, C101.inv(h)) for h in range(101)]
        res, count = count_products(C101, lambda: goursat_classify(diagonal, C101, 2))
        assert res.automorphisms == (tuple(C101.inv(h) for h in range(101)),)
        assert count <= 2 * 101 * len(C101.generators)

    def test_dichotomy_failure_detected(self):
        # the sum-zero plane of (C_3)^3 is shift-stable, surjective, neither
        C3 = cyclic_group(3)
        g = C3.generators[0]
        plane = [tuple(C3.power(g, a) for a in (x, y, (-x - y) % 3))
                 for x in range(3) for y in range(3)]
        with pytest.raises(GoursatDichotomyError):
            goursat_classify(plane, C3, 3)


class TestWreathClassification:
    def test_full_wreath_abelian_flag(self):
        C3 = cyclic_group(3)
        W = wreath_cyclic(C3, 2)
        report = classify_wreath_subgroup(W, W.group())
        assert report.case == "full_wreath"
        assert report.abelian_base
        assert report.trichotomy_ok is None
        assert report.max_normal_chain_length > 3  # diagonals become normal

    def test_non_simple_base_is_refused(self):
        W = wreath_cyclic(cyclic_group(4), 2)
        with pytest.raises(GroupError, match="^base group is not simple$"):
            classify_wreath_subgroup(W, W.group())

    def test_two_lattices_per_call(self, monkeypatch):
        # the base's, in goursat_classify, and the subgroup's
        lattices = []
        build = slopeforge.groups.normal_subgroups
        monkeypatch.setattr(slopeforge.groups, "normal_subgroups",
                            lambda G: lattices.append(G.name) or build(G))
        W = wreath_cyclic(cyclic_group(3), 2)
        G = W.group()
        classify_wreath_subgroup(W, G)
        assert lattices == [W.base.name, G.name]

    def test_semidirect_direct_product(self):
        A5 = alternating_group(5)
        W = wreath_cyclic(A5, 2)
        gens = [W.top_element((1, 0))] + [W.base_element((g, g)) for g in A5.generators]
        Gbar = W.subgroup_from_raw(gens)
        report = classify_wreath_subgroup(W, Gbar)
        assert report.case == "semidirect"
        assert report.direct_product is True
        assert report.chain_bound_ok
        assert report.goursat.automorphisms == (tuple(range(60)),)

    def test_semidirect_outer_twist_is_not_direct(self):
        # twist the diagonal by conjugation with a transposition: this is S5
        A5 = alternating_group(5)
        tau = (1, 0, 2, 3, 4)
        conj = {}
        for i, perm in enumerate(A5.elements):
            image = tuple(tau[perm[tau[j]]] for j in range(5))
            conj[i] = A5.index[image]
        W = wreath_cyclic(A5, 2)
        gens = [W.top_element((1, 0))]
        gens += [W.base_element((g, conj[g])) for g in A5.generators]
        Gbar = W.subgroup_from_raw(gens)
        assert Gbar.order == 120
        report = classify_wreath_subgroup(W, Gbar)
        assert report.case == "semidirect"
        assert report.direct_product is False
        assert report.trichotomy_ok  # normal subgroups exactly 1, A5, the whole
        assert report.normal_subgroup_orders == (1, 60, 120)


class TestAutomorphisms:
    def test_c3(self):
        assert outer_automorphism_order(cyclic_group(3)) == 2

    def test_s3_complete(self):
        assert outer_automorphism_order(symmetric_group(3)) == 1

    def test_a5(self):
        assert outer_automorphism_order(alternating_group(5)) == 2

    def test_trivial_group(self):
        # no generators: the search tries the one empty tuple of images
        C1 = cyclic_group(1)
        assert (C1.name, C1.order, list(C1.elements), C1.generators) == (
            "C1", 1, [(0,)], [])
        assert automorphism_count(C1) == outer_automorphism_order(C1) == 1

    def test_search_bound(self):
        with pytest.raises(GroupError):
            outer_automorphism_order(elementary_abelian_group(2, 5))

    def test_search_bound_refuses_before_any_row(self):
        # 31 candidate images for each of 5 generators: 31^5 tuples
        E = elementary_abelian_group(2, 5)
        E.element_orders  # the classes and orders the search reads
        built = []
        E.right_rows = lambda gens: built.append(gens)
        with pytest.raises(GroupError,
                           match="search space 28629151 exceeds bound 2000000$"):
            automorphism_count(E)
        assert built == []

    @pytest.mark.parametrize("build, expected", [
        (lambda: alternating_group(5), 120),
        (lambda: symmetric_group(4), 24),
        (lambda: psl27(), 336),
        (lambda: elementary_abelian_group(2, 3), 168),
        (quaternion_group, 24),
        (lambda: cyclic_group(12), 4),
    ], ids=["A5", "S4", "PSL27", "E2^3", "Q8", "C12"])
    def test_count_matches_extending_each_candidate(self, build, expected):
        G = build()
        assert automorphism_count(G) == automorphisms_by_products(G) == expected

    def test_a5_products(self):
        # 41,489 products when each candidate tuple was extended by products
        A5 = alternating_group(5)
        A5.element_orders
        count, products = count_products(A5, lambda: automorphism_count(A5))
        assert count == 120 and products <= 5_000

    @pytest.mark.parametrize("build, space", [
        (lambda: direct_product(symmetric_group(3), symmetric_group(3)), 576),
        (lambda: alternating_group(5), 480),
        # (0 2) lies in <(0 1), (0 1 2)>, so it is not kept: 3 * 2 images, not 18
        (lambda: group_from_permutations([(1, 0, 2), (1, 2, 0), (2, 1, 0)]), 6),
        # the rotation by 1 generates C12, so the one by 5 is not kept: 4, not 16
        (lambda: group_from_permutations([rotation(12, 1), rotation(12, 5)]), 4),
        # no generator lies in the span of the ones before it, so all three
        # are kept, though the first lies in that of the later two:
        # 6 * 8 * 8 images (48 when that first one was dropped)
        (lambda: group_from_permutations(S4_LATER_SPANS_EARLIER), 384),
    ], ids=["S3xS3", "A5", "S3-redundant", "C12-redundant",
            "S4-later-spans-earlier"])
    def test_search_space_over_irredundant_generators(self, monkeypatch,
                                                      build, space):
        G = build()
        gens = list(G.generators)
        bound = "AUTOMORPHISM_SEARCH_BOUND"
        monkeypatch.setattr(slopeforge.groups, bound, space - 1)
        with pytest.raises(GroupError, match=f"search space {space} exceeds"):
            automorphism_count(G)
        monkeypatch.setattr(slopeforge.groups, bound, space)
        assert automorphism_count(G) == automorphisms_by_products(G)
        assert G.generators == gens


def automorphisms_by_products(G):
    """|Aut(G)| as it was counted before the Cayley-graph rows: each tuple
    of candidate images extended by products, phi(x g) = phi(x) phi(g)."""
    gens = G.generators
    size = [len(G.conjugacy_classes[c]) for c in G.class_of]
    orders = G.element_orders
    candidates = [[x for x in range(G.order)
                   if orders[x] == orders[g] and size[x] == size[g]] for g in gens]
    count = 0
    for images in iter_product(*candidates):
        f = {0: 0}
        frontier = [0]
        while frontier and f is not None:
            x = frontier.pop()
            for g, img in zip(gens, images):
                y, fy = G.mul(x, g), G.mul(f[x], img)
                if f.get(y, fy) != fy:
                    f = None
                    break
                if y not in f:
                    f[y] = fy
                    frontier.append(y)
        if f is not None and len(f) == G.order and len(set(f.values())) == G.order:
            count += 1
    return count


class TestSubgroups:
    def test_closure(self):
        S4 = symmetric_group(4)
        some = subgroup_closure(S4, [S4.generators[0]])
        assert len(some) == S4.element_order(S4.generators[0])

    def test_direct_product_structure(self):
        G = direct_product(cyclic_group(2), cyclic_group(3))
        assert G.order == 6 and G.is_abelian()
        assert max(G.element_order(i) for i in range(6)) == 6

    def test_subgroup_validation(self):
        S3 = symmetric_group(3)
        three = next(i for i in range(6) if S3.element_order(i) == 3)
        # missing the inverse of the 3-cycle, so its square: a finite set
        # closed under products is closed under inverses
        with pytest.raises(GroupError, match="^subgroup not closed under products$"):
            S3.subgroup([0, three])
        with pytest.raises(GroupError):
            S3.subgroup([1, 2])  # missing identity
        two = [i for i in range(6) if S3.element_order(i) == 2][:2]
        with pytest.raises(GroupError, match="^subgroup not closed under products$"):
            S3.subgroup([0] + two)  # closed under inverses only
        assert S3.subgroup([0, three, S3.mul(three, three)]).order == 3
        assert "_inv_list" not in vars(S3)  # validation takes no inverses

    def test_supplied_generator_outside_the_set_is_refused(self):
        # refused before any product: 7 raised IndexError there
        C4 = cyclic_group(4)
        square = C4.power(1, 2)
        assert Subgroup(C4, (0, square), (square,)).generators == (square,)
        products = []
        C4.mul = lambda i, j: products.append((i, j))
        for outsider in (1, 7, -1):
            with pytest.raises(GroupError, match="^subgroup not closed under products$"):
                Subgroup(C4, (0, square), (outsider,))
        assert products == []

    @pytest.mark.parametrize("elements", [(0, 2, 2), (0, 3, 1, 2), (0, 7),
                                          (0, 2, 2, 2)])
    def test_bad_element_tuples_are_refused(self, elements):
        # these made a subgroup of order 3, one unequal to its sorted copy,
        # an IndexError, and a padded {0, 2} that passed for the whole group
        C4 = cyclic_group(4)
        assert C4.power(1, 2) == 2
        with pytest.raises(GroupError, match=r"^subgroup elements must be "
                           r"strictly increasing indices in 0\.\.3$"):
            Subgroup(C4, elements)
        assert C4.subgroup([2, 0, 2]).elements == (0, 2)
        assert Subgroup(C4, (0, 1, 2, 3)) == C4.full_subgroup()

    def test_validated_subgroup_keeps_its_greedy_generators(self):
        # {0000, 0011, 1100, 1111} in E2^4 has indices 0, 3, 12, 15
        E = elementary_abelian_group(2, 4)
        H = parse_subgroup([0, 3, 12, 15], E, "$.subgroup")
        assert H.generators == (3, 12)
        assert H.as_group.generators == [1, 2]
        assert [H.as_group.elements[g] for g in H.as_group.generators] == [3, 12]


class TestElementOrders:
    def test_cyclic_walks_agree_with_element_order(self):
        for G in abelian_groups_up_to_64() + group_zoo_up_to_100():
            assert G.element_orders == tuple(
                G.element_order(i) for i in range(G.order)), G.name

    @pytest.mark.parametrize("name", sorted(LATTICE_GROUPS))
    def test_lattice_groups_agree_with_element_order(self, name):
        G = LATTICE_GROUPS[name]()
        orders = tuple(G.element_order(i) for i in range(G.order))
        assert G.element_orders == orders
        assert G.exponent == lcm(*orders)

    def test_powers_walk_each_cyclic_subgroup(self):
        for G in abelian_groups_up_to_64() + group_zoo_up_to_100():
            check_powers(G)
        for name in sorted(LATTICE_GROUPS):
            check_powers(LATTICE_GROUPS[name]())


def check_powers(G):
    """powers(g) starts at the identity and steps by mul(., g) back to it,
    one product a step, and has the length of g's order."""
    for g in range(G.order):
        walk, count = count_products(G, lambda: G.powers(g))
        assert walk[0] == 0 and len(walk) == G.element_orders[g], (G.name, g)
        assert [G.mul(x, g) for x in walk] == walk[1:] + [0], (G.name, g)
        assert count == len(walk) - 1, (G.name, g)


def check_inverses(G):
    """inv(x) is the y with x y = 1 (unique in a group), found in at most
    3 |G| products: each walk of <g>, of order m, costs m - 1 and settles
    the phi(m) generators of <g>, at most 1.9 products per element on the
    corpora and LATTICE_GROUPS.  The inverse class of each class, read off
    the power maps, is the class of its representative's inverse."""
    inv, count = count_products(G, lambda: G._inv_list)
    assert count <= 3 * G.order, G.name
    assert [G.mul(x, inv[x]) for x in range(G.order)] == [0] * G.order
    assert G.inverse_class == [G.class_of[inv[cls[0]]]
                               for cls in G.conjugacy_classes], G.name


def check_power_maps(G):
    """Each class in the Galois orbit of a row, the class of g^a, has
    powers h^t in the class of g^(a t), read off the row at a t mod m; the
    orbits cover every class once, each taken at its first class."""
    classes, class_of = G.conjugacy_classes, G.class_of
    seen = []
    for row in G.power_maps:
        m = len(row)
        orbit = galois_orbit(row)
        assert set(orbit) == {row[a] for a in range(m) if gcd(a, m) == 1}
        assert row[1 % m] == min(orbit) and set(orbit).isdisjoint(seen)
        for c, a in orbit.items():
            h = classes[c][0]
            assert row[a] == c
            assert [class_of[G.power(h, t)] for t in range(m)] == [
                row[a * t % m] for t in range(m)], (G.name, c)
        seen += sorted(orbit)
    assert sorted(seen) == list(range(len(classes)))
    assert [row[1 % len(row)] for row in G.power_maps] == sorted(
        row[1 % len(row)] for row in G.power_maps)


class TestPowerMaps:
    def test_corpora(self):
        assert cyclic_group(1).power_maps == ((0,),)
        for G in abelian_groups_up_to_64() + group_zoo_up_to_100():
            check_power_maps(G)
            check_inverses(G)

    @pytest.mark.parametrize("name", sorted(LATTICE_GROUPS))
    def test_lattice_groups(self, name):
        G = LATTICE_GROUPS[name]()
        check_power_maps(G)
        check_inverses(G)

    def test_c101_normal_subgroups_walk_one_row(self):
        # one row of 101 classes: 100 products, where walking the powers of
        # each of the 100 non-trivial classes took 10,000
        G = cyclic_group(101)
        G.conjugacy_classes
        normals, count = count_products(G, lambda: normal_subgroups(G))
        assert [S.order for S in normals] == [1, 101]
        assert count <= 2 * 101


class TestNormalityMemo:
    def test_checked_once_per_subgroup_object(self):
        S3 = symmetric_group(3)
        calls = []
        mul = S3.mul
        S3.mul = lambda i, j: calls.append(1) or mul(i, j)
        A3 = S3.subgroup([x for x in range(6) if S3.element_order(x) != 2])
        transp = next(i for i in range(6) if S3.element_order(i) == 2)
        H = S3.subgroup([0, transp])
        before = len(calls)
        assert A3.is_normal() and not H.is_normal()
        checked = len(calls)
        assert checked > before
        assert A3.is_normal() and not H.is_normal() and len(calls) == checked

    def test_builds_no_inverse_list(self):
        S4 = symmetric_group(4)
        V4 = S4.subgroup([0, *next(cls for cls in S4.conjugacy_classes
                                   if len(cls) == 3)])
        transp = next(cls[0] for cls in S4.conjugacy_classes
                      if len(cls) == 6 and S4.element_order(cls[0]) == 2)
        assert V4.is_normal() and not S4.subgroup([0, transp]).is_normal()
        assert "_inv_list" not in vars(S4)

    def test_v4_in_s4_walks_each_generator_once(self):
        # ord(g) - 1 products to reach g^-1 for each generator g of S4, and
        # 2 per pair of generators: 12, where the binary power made 18
        S4 = symmetric_group(4)
        V4 = S4.subgroup([0, *next(cls for cls in S4.conjugacy_classes
                                   if len(cls) == 3)])
        normal, count = count_products(S4, V4.is_normal)
        walks = sum(S4.element_order(g) - 1 for g in S4.generators)
        assert normal and count == 12
        assert count == walks + 2 * len(V4.generators) * len(S4.generators)
