"""The integer view of a class function against element-wise cyclotomic sums.

`invariant_dimension`, `invariant_character` and `CharacterTable.decompose`
sum integer coefficient vectors; the oracles below are the element-wise
`Cyclotomic` sums they replaced, kept verbatim, refusal messages included.
`decompose` refuses with its own `RepTheoryError` where its oracle raises.
`invariant_character` reads the class counts of the cosets gH that the
subgroup caches (`Subgroup.coset_class_counts`), and `invariant_dimension`
those of H (`Subgroup.class_counts`); they are checked here against the
products they replace.  `inner_product`, the classwise pairing that left
the package, is the oracle of `decompose` here and in test_reptheory.py.
A class function whose values need a conductor above 2|G|, each value at
its least conductor, has no view, and all three refuse it, as parsing does.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from slopeforge.corpus import (abelian_chain_corpus, abelian_groups_up_to_64,
                               filtered_group_corpus, group_zoo_up_to_100)
from slopeforge.exactnum import Cyclotomic, euler_phi, lift_coeffs
from slopeforge.filtered import (BreakChain, FilteredError,
                                 invariant_character, invariant_dimension,
                                 slope_decomposition, upper_from_lower)
from slopeforge.groups import (Subgroup, cyclic_group, generated_subgroup,
                               group_from_permutations, normal_subgroups,
                               symmetric_group)
from slopeforge.jsonio import parse_class_function
from slopeforge.newton import SlopeMultiset
from slopeforge.reptheory import (ClassFunction, character_table,
                                  trivial_character)


def inner_product(chi, psi):
    """(1/|G|) sum over g of chi(g) psi(g^-1), computed classwise."""
    chi._check_same_group(psi)
    G = chi.group
    inv = G.inverse_class
    total = Cyclotomic.rational(0)
    for c, cls in enumerate(G.conjugacy_classes):
        total = total + len(cls) * (chi.values[c] * psi.values[inv[c]])
    return total * Fraction(1, G.order)


def inner_product_int(chi, psi) -> int:
    q = inner_product(chi, psi).rational_value()
    if q.denominator != 1:
        raise ValueError("a rational value is not an integer")
    return q.numerator


def oracle_invariant_dimension(chi, H):
    total = Cyclotomic.rational(0)
    for h in H.elements:
        total = total + chi.value_at(h)
    value = total * Fraction(1, H.order)
    dim = value.rational_coefficients()[0]
    if not value.is_rational or dim.denominator != 1 or dim < 0:
        raise FilteredError(
            f"not a character: invariant dimension under a subgroup of order "
            f"{H.order} is not a non-negative integer")
    return int(dim)


def oracle_invariant_character(chi, H):
    G = chi.group
    vals = []
    for cls in G.conjugacy_classes:
        g = cls[0]
        total = Cyclotomic.rational(0)
        for h in H.elements:
            total = total + chi.value_at(G.mul(g, h))
        vals.append(total * Fraction(1, H.order))
    return ClassFunction(G, tuple(vals))


def oracle_decompose(table, chi):
    return tuple(inner_product_int(chi, irr) for irr in table.irreducibles)


def outcome(fn, *args):
    """The value, or the type and message of the ValueError raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def assert_decompose_agrees(table, chi):
    """`decompose` returns the oracle's multiplicities, and refuses chi with
    a RepTheoryError of its own exactly when the oracle raises."""
    got, want = outcome(table.decompose, chi), outcome(oracle_decompose, table, chi)
    if isinstance(want[0], str):
        assert got[0] == "RepTheoryError", got
        assert got[1].startswith("not a character: the multiplicity of irreducible ")
    else:
        assert got == want


def subgroup_sample(G, rng):
    """The trivial and the full subgroup and two seeded other normal ones.

    In an elementary abelian 2-group of rank above 4 (E2^6 has 2825
    subgroups) the other two are generated by 1 to 3 seeded random elements,
    which is cheaper than the lattice."""
    sample = [G.trivial_subgroup(), G.full_subgroup()]
    if G.exponent == 2 and G.order > 16:
        for _ in range(2):
            gens = [rng.randrange(G.order) for _ in range(rng.randrange(1, 4))]
            sample.append(generated_subgroup(G, gens))
        return sample
    others = [N for N in normal_subgroups(G) if 1 < N.order < G.order]
    return sample + rng.sample(others, min(2, len(others)))


def small_view(table):
    """Whether the integer view has at most 24 entries, r * phi(exponent)."""
    return len(table.irreducibles) * euler_phi(table.group.exponent) <= 24


def class_function_sample(table, rng):
    """Every irreducible and one seeded product of irreducibles for a small
    view; elsewhere one seeded product, since the element-wise oracle takes
    up to 1.4 s a decomposition (C64)."""
    irr = table.irreducibles
    pick = lambda: irr[rng.randrange(len(irr))]
    if small_view(table):
        return list(irr) + [pick() * pick()]
    return [pick() * pick()]


CORPUS = abelian_groups_up_to_64() + group_zoo_up_to_100()


@pytest.mark.parametrize("G", CORPUS, ids=lambda G: f"{G.name}-{G.order}")
def test_integer_view_matches_the_cyclotomic_oracles(G):
    rng = random.Random(G.order * 1009 + len(G.conjugacy_classes))
    table = character_table(G)
    subgroups = subgroup_sample(G, rng)
    for chi in class_function_sample(table, rng):
        assert table.decompose(chi) == oracle_decompose(table, chi)
        half = chi * Fraction(1, 2)
        # the inner products of zeta_e chi are zeta_e m, not rational for
        # e > 2, while the constant coefficient may be an integer
        twisted = chi * Cyclotomic.zeta(G.exponent)
        if small_view(table):
            # the oracle takes up to 1.4 s a decomposition on a large view,
            # and a refusal takes the same path at every view size
            for refused in (half, twisted):
                assert_decompose_agrees(table, refused)
        for N in subgroups:
            assert invariant_dimension(chi, N) == oracle_invariant_dimension(chi, N)
            for refused in (half, twisted):
                assert outcome(invariant_dimension, refused, N) == outcome(
                    oracle_invariant_dimension, refused, N)
            assert invariant_character(chi, N) == oracle_invariant_character(chi, N)


def non_normal_subgroup(G):
    """The first cyclic subgroup that is not normal, or None when every
    subgroup is normal (an abelian or a Hamiltonian group)."""
    for x in range(1, G.order):
        H = generated_subgroup(G, [x])
        if not H.is_normal():
            return H
    return None


@pytest.mark.parametrize("G", CORPUS, ids=lambda G: f"{G.name}-{G.order}")
def test_coset_class_counts_match_the_products(G):
    rng = random.Random(G.order * 1009 + len(G.conjugacy_classes))
    subgroups = subgroup_sample(G, rng)
    if not G.is_abelian():
        H = non_normal_subgroup(G)
        if H is not None:
            subgroups.append(H)
    class_of = G.class_of
    for H in subgroups:
        counts = H.coset_class_counts
        assert len(counts) == len(G.class_representatives)
        assert counts[0] is H.class_counts  # the identity's coset is H
        for g, pairs in zip(G.class_representatives, counts):
            assert dict(pairs) == Counter(class_of[G.mul(g, h)] for h in H.elements)
            assert len(dict(pairs)) == len(pairs) and all(m > 0 for _, m in pairs)


def test_invariant_characters_make_no_products_once_the_counts_exist(monkeypatch):
    S4 = symmetric_group(4)
    irr = character_table(S4).irreducibles
    V4 = next(N for N in normal_subgroups(S4) if N.order == 4)
    H = Subgroup(S4, V4.elements)  # a fresh object: no counts cached yet
    assert H.is_normal()  # its own cached check, a few products
    count = 0
    mul = S4.mul

    def counted(i, j):
        nonlocal count
        count += 1
        return mul(i, j)

    monkeypatch.setattr(S4, "mul", counted)
    invariant_character(irr[-1], H)
    # |H| products for each coset other than H that holds a class
    # representative; the representatives in H read `class_counts`
    cosets = {id(c) for c in H.coset_class_counts} - {id(H.class_counts)}
    assert count == H.order * len(cosets) <= S4.order - H.order
    count = 0
    for chi in irr:
        invariant_character(chi, H)
    assert count == 0
    monkeypatch.undo()
    for chi in irr:
        assert invariant_character(chi, H) == oracle_invariant_character(chi, H)


def test_slope_decompositions_make_no_products_once_the_counts_exist(monkeypatch):
    S4 = symmetric_group(4)
    irr = character_table(S4).irreducibles
    # fresh objects: no counts cached yet; the chain checks their normality
    chain = BreakChain(S4, (Fraction(1), Fraction(2)), tuple(
        Subgroup(S4, next(N for N in normal_subgroups(S4) if N.order == order)
                 .elements) for order in (12, 4)))
    count = 0
    mul = S4.mul

    def counted(i, j):
        nonlocal count
        count += 1
        return mul(i, j)

    monkeypatch.setattr(S4, "mul", counted)
    # the first read on each subgroup reads its own class counts, which are
    # built from its elements: no product, and no coset table
    for chi in irr:
        slope_decomposition(chain, chi)
        for H in chain.subgroups:
            invariant_dimension(chi, H)
    assert count == 0
    assert all("coset_class_counts" not in vars(H) for H in chain.subgroups)
    # an invariant character still builds the coset table, at most |G| products
    for H in chain.subgroups:
        invariant_character(irr[-1], H)
        # read before the assert: pytest evaluates a bare name after the other side
        built, count = count, 0
        assert 0 < built <= S4.order
    monkeypatch.undo()
    for chi in irr:
        for H in chain.subgroups:
            assert invariant_dimension(chi, H) == oracle_invariant_dimension(chi, H)


def oracle_slopes(chain, chi):
    """The slopes as they were built: graded pairs from the oracle's
    invariant dimensions, merged and sorted by `SlopeMultiset.from_pairs`."""
    dims = [oracle_invariant_dimension(chi, H) for H in chain.subgroups]
    dims.append(int(chi.degree))
    return SlopeMultiset.from_pairs([(Fraction(0), dims[0])] + [
        (b, dims[i + 1] - dims[i]) for i, b in enumerate(chain.breaks)])


def test_slope_decompositions_match_the_oracle_on_the_corpora():
    chains = ([upper_from_lower(c) for c in abelian_chain_corpus(2024)]
              + filtered_group_corpus(15, 7177))
    for chain in chains:
        irr = character_table(chain.group).irreducibles
        # the sum of the irreducibles has one slope per distinct slope
        for chi in irr + (sum(irr[1:], irr[0]),):
            assert slope_decomposition(chain, chi) == oracle_slopes(chain, chi)


def no_view(bound):
    return ("RepTheoryError", "the values' least conductors and the exponent "
            f"have an lcm above 2|G| = {bound}")


def assert_no_view(chi, bound):
    """`int_view` refuses chi, and so does every reader of the view, with the
    same RepTheoryError, on every normal subgroup."""
    refusal = no_view(bound)
    assert outcome(lambda: chi.int_view) == refusal
    assert outcome(character_table(chi.group).decompose, chi) == refusal
    for H in normal_subgroups(chi.group):
        assert outcome(invariant_dimension, chi, H) == refusal
        assert outcome(invariant_character, chi, H) == refusal


def test_no_view_invariant_character_on_a_non_abelian_group():
    # n = lcm(6, 5, 7) = 210 > 2|S3| = 12; the identity and the 3-cycles
    # share the coset A3, so one tuple of counts serves two representatives
    S3 = symmetric_group(3)
    chi = ClassFunction(S3, (Cyclotomic.rational(2), Cyclotomic.zeta(5),
                             Cyclotomic.zeta(7)))
    assert_no_view(chi, 12)
    A3 = next(N for N in normal_subgroups(S3) if N.order == 3)
    shared = {id(c) for c in A3.coset_class_counts}
    assert len(shared) < len(S3.class_representatives)


def test_a_chain_without_subgroups_reads_the_view():
    # the one slope is read at the degree, but the view is read first, so a
    # class function that parse refuses is refused here too
    C2 = cyclic_group(2)
    chi = ClassFunction(C2, (Cyclotomic.rational(1), Cyclotomic.zeta(3)))
    assert outcome(slope_decomposition, BreakChain(C2, (), ()), chi) == no_view(4)
    assert slope_decomposition(BreakChain(C2, (), ()), trivial_character(C2)) == (
        SlopeMultiset(((Fraction(0), 1),)))


def test_refusals_of_a_zeta_3_valued_function_on_c2():
    # n = lcm(2, 3) = 6 > 2|C2| = 4
    C2 = cyclic_group(2)
    chi = ClassFunction(C2, (Cyclotomic.rational(1), Cyclotomic.zeta(3)))
    assert_no_view(chi, 4)


def test_conductor_outside_the_exponent_lifts_the_irreducibles():
    # zeta_8^2 = i is stored at conductor 8, which does not divide exponent 4,
    # so decompose lifts the irreducibles' views from 4 to 8
    C4 = cyclic_group(4)
    table = character_table(C4)
    g = next(x for x in range(4) if C4.element_order(x) == 4)
    values = [None] * 4
    for t in range(4):
        values[C4.class_of[C4.power(g, t)]] = Cyclotomic.zeta(8, 2 * t)
    chi = ClassFunction(C4, tuple(values))
    assert chi.values[C4.class_of[g]].conductor == 8
    assert chi.int_view[0] == 8
    mults = table.decompose(chi)
    assert mults == oracle_decompose(table, chi)
    assert sorted(mults) == [0, 0, 0, 1]
    assert_decompose_agrees(table, chi * Fraction(1, 2))
    for H in normal_subgroups(C4):
        assert invariant_dimension(chi, H) == oracle_invariant_dimension(chi, H)
        assert invariant_character(chi, H) == oracle_invariant_character(chi, H)


def test_decompose_refuses_a_class_function_of_another_group():
    table = character_table(cyclic_group(4))
    assert outcome(table.decompose, trivial_character(cyclic_group(4))) == (
        "RepTheoryError", "class functions live on different groups")


def test_coprime_conductors_are_refused():
    # n = lcm(8, 7, 9, 11, 13, 15) = 360360: Phi_n alone would take hours
    C8 = cyclic_group(8)
    values = [Cyclotomic.rational(1)] * 8
    for k, n in zip((2, 3, 4, 5, 6), (7, 9, 11, 13, 15)):
        values[k] = Cyclotomic.zeta(n)
    assert_no_view(ClassFunction(C8, tuple(values)), 16)


def test_a_character_past_its_least_conductor_has_a_view():
    # an order-3 character of C6 with zeta_3 written at conductor 9:
    # lcm(6, 9) = 18 is above 2|G| = 12, lcm(6, 3) = 6 is not
    C6 = cyclic_group(6)
    table = character_table(C6)
    k, psi = next((k, psi) for k, psi in enumerate(table.irreducibles)
                  if all(v**3 == 1 for v in psi.values) and k > 0)

    def at_nine(v):
        v = v.at_least_conductor()
        if v.is_rational:
            return v.coefficient_strs()[0]
        return {"conductor": 9,
                "coefficients": [str(x) for x in lift_coeffs(v.nums, 3, 9)]}

    chi = parse_class_function({"values": [at_nine(v) for v in psi.values]},
                               C6, "$")
    assert chi.values == psi.values
    assert max(v.conductor for v in chi.values) == 9
    assert chi.int_view == psi.int_view and chi.int_view[0] == 6
    mults = table.decompose(chi)
    assert mults == oracle_decompose(table, chi)
    assert mults == tuple(int(j == k) for j in range(6))
    for H in normal_subgroups(C6):
        assert invariant_dimension(chi, H) == oracle_invariant_dimension(chi, H)
        assert invariant_character(chi, H) == oracle_invariant_character(chi, H)


def least_conductor(n, k):
    """The least m with zeta_n^k in Q(zeta_m): its order, halved when it
    is 2 mod 4, since Q(zeta_2m) = Q(zeta_m) for m odd."""
    m = n // gcd(n, k)
    return m // 2 if m % 4 == 2 else m


def direct_product_c2_c2():
    return group_from_permutations([(1, 0, 3, 2), (2, 3, 0, 1)])


@pytest.mark.parametrize("make", [lambda: cyclic_group(2), lambda: cyclic_group(4),
                                  lambda: symmetric_group(3), direct_product_c2_c2],
                         ids=["C2", "C4", "S3", "C2xC2"])
def test_parsing_accepts_exactly_the_functions_with_a_view(make):
    # zeta_n^k at each class, n from 1 to 2|G| + 1 and k below n: the view is
    # taken in Q(zeta_lcm) with the exponent, at the stored conductors while
    # within 2|G|, else at the least ones; parsing refuses a stored conductor
    # above 2|G| first, then every function that has no view
    G = make()
    bound = 2 * G.order
    r = len(G.conjugacy_classes)
    rng = random.Random(G.order * 31 + r)
    # zeta_9^3 = zeta_3 has a view on S3 and C2 x C2 only at conductor 3
    lists = {((1, 0),) * r, ((bound, 1),) * r, ((bound + 1, 1),) + ((1, 0),) * (r - 1),
             ((9, 3),) + ((1, 0),) * (r - 1)}
    while len(lists) < 60:
        lists.add(tuple((n, rng.randrange(n))
                        for n in (rng.randrange(1, bound + 2) for _ in range(r))))
    seen = set()
    for pairs in sorted(lists):
        values = tuple(Cyclotomic.zeta(n, k) for n, k in pairs)
        stored = lcm(G.exponent, *(v.conductor for v in values))
        least = lcm(G.exponent, *(least_conductor(n, k) for n, k in pairs))
        view = stored if stored <= bound else least
        chi = ClassFunction(G, values)
        expected = view if view <= bound else no_view(bound)
        assert outcome(lambda: chi.int_view[0]) == expected, pairs
        payload = {"values": [{"conductor": n, "coefficients": ["0"] * k + ["1"]}
                              for n, k in pairs]}
        parsed = outcome(parse_class_function, payload, G, "$")
        accepted = isinstance(parsed, ClassFunction)
        assert accepted == (view <= bound and max(n for n, _ in pairs) <= bound)
        if accepted:
            assert parsed.values == values and parsed.int_view[0] == view
        seen.add(accepted)
    assert seen == {True, False}
