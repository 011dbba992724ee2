import random
from collections import Counter
from fractions import Fraction as F

import pytest

from slopeforge import filtered
from slopeforge.corpus import abelian_chain_corpus, filtered_group_corpus
from slopeforge.exactnum import Cyclotomic
from slopeforge.filtered import (BreakChain, FilteredError, LowerChain,
                                 graded_pieces_disjoint,
                                 hasse_arf_check, herbrand_phi,
                                 invariant_character, invariant_dimension,
                                 lower_from_upper,
                                 prime_power_dim_check, slope_decomposition,
                                 slope_zero_existence_check, swan_conductor,
                                 swan_lower_oracle, tensor_bound_check,
                                 upper_from_lower)
from slopeforge.groups import (cyclic_group, elementary_abelian_group,
                               generated_subgroup,
                               heisenberg_group, normal_subgroups,
                               quaternion_group, symmetric_group)
from slopeforge.newton import SlopeMultiset, tensor_slope_bound
from slopeforge.reptheory import (CharacterTable, ClassFunction, character_table,
                                  regular_character, trivial_character)


def ms(*pairs):
    return SlopeMultiset.from_pairs([(F(s), m) for s, m in pairs])


def graded_characters(chain, chi):
    """The graded pieces as (slope, character) pairs, zero pieces omitted:
    the differences of the invariant characters under H_1, ..., H_k and the
    trivial group, on values."""
    parts = [invariant_character(chi, H) for H in chain.subgroups] + [chi]
    levels = [(F(0), parts[0])] + [
        (b, parts[i + 1] - parts[i]) for i, b in enumerate(chain.breaks)]
    return [(s, piece) for s, piece in levels if int(piece.degree)]


@pytest.fixture(scope="module")
def c6_chain():
    C6 = cyclic_group(6)
    c2 = generated_subgroup(C6, [C6.power(1, 3)])
    chain = BreakChain(C6, (F(1, 2), F(1)), (C6.full_subgroup(), c2))
    table = character_table(C6)

    def order_of(chi):
        k, acc = 1, chi
        one = trivial_character(C6)
        while acc != one:
            acc, k = acc * chi, k + 1
        return k

    chars = {}
    for chi in table.irreducibles:
        chars.setdefault(order_of(chi), chi)
    return C6, chain, table, chars


class TestHerbrand:
    def test_wild_prime_chain(self):
        C5 = cyclic_group(5)
        full = C5.full_subgroup()
        chain = LowerChain(C5, (full, full))
        phi = herbrand_phi(chain)
        assert phi.vertices == ((F(0), F(0)), (F(1), F(1)))
        assert phi.final_slope == F(1, 5)

    def test_trivial_chain_identity(self):
        C1 = cyclic_group(1)
        phi = herbrand_phi(LowerChain(C1, (C1.full_subgroup(),)))
        assert phi.vertices == ((F(0), F(0)),)
        assert phi.final_slope == 1

    def test_c4_breakpoints(self):
        C4 = cyclic_group(4)
        c2 = generated_subgroup(C4, [C4.power(1, 2)])
        full = C4.full_subgroup()
        chain = LowerChain(C4, (full, full, full, c2, c2, c2))
        phi = herbrand_phi(chain)
        assert phi.vertices == ((F(0), F(0)), (F(2), F(2)), (F(5), F(7, 2)))
        assert phi.final_slope == F(1, 4)

    def test_upper_from_lower(self):
        C5 = cyclic_group(5)
        full = C5.full_subgroup()
        up = upper_from_lower(LowerChain(C5, (full, full)))
        assert up.breaks == (F(1),)
        assert up.subgroups[0].order == 5

    def test_tame_chain_is_empty(self):
        C4 = cyclic_group(4)
        up = upper_from_lower(LowerChain(C4, (C4.full_subgroup(),)))
        assert up.breaks == ()

    def test_c4_upper_breaks(self):
        C4 = cyclic_group(4)
        c2 = generated_subgroup(C4, [C4.power(1, 2)])
        full = C4.full_subgroup()
        up = upper_from_lower(LowerChain(C4, (full, full, full, c2, c2, c2)))
        assert up.breaks == (F(2), F(7, 2))
        assert [H.order for H in up.subgroups] == [4, 2]

    def test_round_trip_integer_upper_breaks(self):
        C4 = cyclic_group(4)
        c2 = generated_subgroup(C4, [C4.power(1, 2)])
        upper = BreakChain(C4, (F(1), F(2)), (C4.full_subgroup(), c2))
        lower = lower_from_upper(upper)
        assert [H.order for H in lower.subgroups] == [4, 4, 2, 2]
        back = upper_from_lower(lower)
        assert back.breaks == upper.breaks
        assert [H.order for H in back.subgroups] == [4, 2]

    def test_fractional_inverse_rejected(self):
        C4 = cyclic_group(4)
        c2 = generated_subgroup(C4, [C4.power(1, 2)])
        bad = BreakChain(C4, (F(1, 3),), (c2,))
        with pytest.raises(FilteredError):
            lower_from_upper(bad)


class TestChainValidation:
    def test_breaks_increase(self):
        C4 = cyclic_group(4)
        full = C4.full_subgroup()
        c2 = generated_subgroup(C4, [C4.power(1, 2)])
        with pytest.raises(FilteredError):
            BreakChain(C4, (F(1), F(1)), (full, c2))

    def test_subgroups_descend(self):
        C4 = cyclic_group(4)
        full = C4.full_subgroup()
        with pytest.raises(FilteredError):
            BreakChain(C4, (F(1), F(2)), (full, full))

    def test_normality_required(self):
        S3 = symmetric_group(3)
        transp = next(i for i in range(6) if S3.element_order(i) == 2)
        H = generated_subgroup(S3, [transp])
        with pytest.raises(FilteredError):
            BreakChain(S3, (F(1),), (H,))


class TestSlopeDecomposition:
    def test_trivial_character(self, c6_chain):
        C6, chain, table, chars = c6_chain
        assert slope_decomposition(chain, trivial_character(C6)) == ms(("0", 1))

    def test_sign_character_on_c2(self):
        C2 = cyclic_group(2)
        table = character_table(C2)
        chain = BreakChain(C2, (F(1),), (C2.full_subgroup(),))
        assert slope_decomposition(chain, table.irreducibles[1]) == ms(("1", 1))
        assert swan_conductor(chain, table.irreducibles[1]) == 1

    def test_c6_instances(self, c6_chain):
        C6, chain, table, chars = c6_chain
        chi2, chi3 = chars[2], chars[3]
        assert slope_decomposition(chain, chi2 * chi3) == ms(("1", 1))
        assert slope_decomposition(chain, chi3) == ms(("1/2", 1))
        assert slope_decomposition(chain, chi2) == ms(("1", 1))

    def test_multiplicities_sum_to_degree(self, c6_chain):
        C6, chain, table, chars = c6_chain
        reg = regular_character(C6)
        assert slope_decomposition(chain, reg).total_dimension == 6

    def test_invariant_dimension(self, c6_chain):
        C6, chain, table, chars = c6_chain
        assert invariant_dimension(trivial_character(C6), chain.subgroups[0]) == 1
        assert invariant_dimension(chars[2], chain.subgroups[1]) == 0
        assert invariant_dimension(chars[3], chain.subgroups[1]) == 1


class TestSwan:
    def test_trivial_is_zero(self, c6_chain):
        C6, chain, table, chars = c6_chain
        assert swan_conductor(chain, trivial_character(C6)) == 0

    def test_additive(self, c6_chain):
        C6, chain, table, chars = c6_chain
        total = sum(swan_conductor(chain, chi) for chi in table.irreducibles)
        assert swan_conductor(chain, regular_character(C6)) == total

    def test_dual_invariance(self, c6_chain):
        C6, chain, table, chars = c6_chain
        for chi in table.irreducibles:
            assert slope_decomposition(chain, chi.dual()) == slope_decomposition(
                chain, chi)

    def test_oracle_agreement(self):
        C4 = cyclic_group(4)
        c2 = generated_subgroup(C4, [C4.power(1, 2)])
        full = C4.full_subgroup()
        lower = LowerChain(C4, (full, full, full, c2, c2, c2))
        upper = upper_from_lower(lower)
        for chi in character_table(C4).irreducibles:
            assert swan_conductor(upper, chi) == swan_lower_oracle(lower, chi)

    def test_hasse_arf_examples(self, c6_chain):
        C6, chain, table, chars = c6_chain
        assert not hasse_arf_check(chain, chars[3])  # swan 1/2
        assert hasse_arf_check(chain, trivial_character(C6))
        assert hasse_arf_check(chain, chars[2])


class TestKummer:
    def test_identity(self, c6_chain):
        C6, chain, table, chars = c6_chain
        assert chain.scaled(1) == chain

    def test_break_scaling(self):
        C2 = cyclic_group(2)
        chain = BreakChain(C2, (F(1),), (C2.full_subgroup(),))
        assert chain.scaled(2).breaks == (F(2),)

    def test_commutes_with_decomposition(self, c6_chain):
        C6, chain, table, chars = c6_chain
        for chi in table.irreducibles:
            assert slope_decomposition(chain.scaled(3), chi) == (
                slope_decomposition(chain, chi).scale(3))


class TestGradedPieces:
    def test_regular_character_pieces(self, c6_chain):
        C6, chain, table, chars = c6_chain
        reg = regular_character(C6)
        pieces = graded_characters(chain, reg)
        assert [s for s, _ in pieces] == [F(0), F(1, 2), F(1)]
        assert [int(p.degree) for _, p in pieces] == [1, 2, 3]
        assert graded_pieces_disjoint(chain, reg, table)

    def test_irreducibles_single_slope(self, c6_chain):
        C6, chain, table, chars = c6_chain
        for chi in table.irreducibles:
            assert len(slope_decomposition(chain, chi).entries) == 1
            assert graded_pieces_disjoint(chain, chi, table)

    def test_two_slope_sum_recovered(self, c6_chain):
        C6, chain, table, chars = c6_chain
        mix = chars[2] + chars[3]
        pieces = graded_characters(chain, mix)
        assert [(s, int(p.degree)) for s, p in pieces] == [(F(1, 2), 1), (F(1), 1)]
        assert graded_pieces_disjoint(chain, mix, table)


class TestInvariantCharacterRefusals:
    def test_subgroup_of_another_group(self):
        S3, C6 = symmetric_group(3), cyclic_group(6)
        chi = next(c for c in character_table(S3).irreducibles if int(c.degree) == 2)
        c3 = generated_subgroup(C6, [C6.power(1, 2)])
        with pytest.raises(FilteredError, match="subgroup must live"):
            invariant_character(chi, c3)

    def test_non_normal_subgroup(self):
        S3 = symmetric_group(3)
        chi = next(c for c in character_table(S3).irreducibles if int(c.degree) == 2)
        transp = next(i for i in range(6) if S3.element_order(i) == 2)
        with pytest.raises(FilteredError, match="must be normal"):
            invariant_character(chi, generated_subgroup(S3, [transp]))


def hall_by_thresholds(exact, bounded, product):
    """tensor_bound_check on given slopes as it was checked before the
    descending sweep, two sums per threshold, with the branch that decided:
    "exact", "threshold", "total" or "holds"."""
    remaining = dict(product.entries)
    for s, m in exact.entries:
        if remaining.get(s, 0) < m:
            return False, "exact"
        remaining[s] -= m
    rem_sorted = sorted(remaining.items(), reverse=True)
    bound_sorted = sorted(bounded, reverse=True)
    thresholds = {s for s, m in rem_sorted if m} | {b for b, _ in bound_sorted}
    for t in thresholds:
        need = sum(m for s, m in rem_sorted if s >= t)
        have = sum(m for b, m in bound_sorted if b >= t)
        if need > have:
            return False, "threshold"
    if sum(m for _, m in rem_sorted) != sum(m for _, m in bound_sorted):
        return False, "total"
    return True, "holds"


class TestTensorBound:
    def test_hall_sweep_matches_the_threshold_loop(self, c6_chain, monkeypatch):
        # the regular character squared on the C6 chain has exact and bounded
        # parts at several slopes; crafted product slopes reach every branch
        C6, chain, _, _ = c6_chain
        reg = regular_character(C6)
        exact, bounded = tensor_slope_bound(slope_decomposition(chain, reg),
                                            slope_decomposition(chain, reg))
        assert len(exact.entries) == 2 and len(bounded) == 3
        slopes = [F(k, 4) for k in range(7)]
        rng = random.Random(2029)
        products = []
        for _ in range(400):
            # the bounded mass moved a few steps along `slopes`, and now and
            # then a unit added at, or dropped from, a random slope
            mass = Counter(dict(exact.entries))
            for b, m in bounded:
                for _ in range(m):
                    k = slopes.index(b) + rng.choice([-2, -1, 0, 0, 0, 1])
                    mass[slopes[min(max(k, 0), 6)]] += 1
            change = rng.choice([-1, 0, 0, 1])
            if change:
                mass[rng.choice(sorted(mass) if change < 0 else slopes)] += change
            products.append(SlopeMultiset.from_pairs(mass.items()))
        products.append(SlopeMultiset.from_pairs([*exact.entries, *bounded]))
        products.append(SlopeMultiset(bounded))
        seen = set()
        for product in products:
            monkeypatch.setattr(filtered, "_product_slopes",
                                lambda *args, product=product: product)
            want, branch = hall_by_thresholds(exact, bounded, product)
            assert tensor_bound_check(chain, reg, reg) is want, product
            seen.add(branch)
        assert seen == {"exact", "threshold", "total", "holds"}

    def test_distinct_slopes_exact(self, c6_chain):
        C6, chain, table, chars = c6_chain
        assert tensor_bound_check(chain, chars[2], chars[3])

    def test_equal_slope_drop(self, c6_chain):
        C6, chain, table, chars = c6_chain
        chi2, chi6 = chars[2], chars[2] * chars[3]
        # both have slope 1 but the product drops to slope 1/2
        assert slope_decomposition(chain, chi2 * chi6) == ms(("1/2", 1))
        assert tensor_bound_check(chain, chi2, chi6)

    def test_with_trivial(self, c6_chain):
        C6, chain, table, chars = c6_chain
        one = trivial_character(C6)
        for chi in table.irreducibles:
            assert tensor_bound_check(chain, chi, one)


class TestPredicates:
    def test_degree_one_always_passes(self):
        Q8 = quaternion_group()
        table = character_table(Q8)
        chain = BreakChain(Q8, (F(1, 2),), (Q8.full_subgroup(),))
        for chi in table.irreducibles:
            if int(chi.degree) == 1:
                assert prime_power_dim_check(chain, chi, 2)

    def test_extraspecial_nontrivial_case(self):
        H27 = heisenberg_group(3)
        table = character_table(H27)
        chain = BreakChain(H27, (F(1, 3),), (H27.full_subgroup(),))
        three_dim = [c for c in table.irreducibles if int(c.degree) == 3]
        assert len(three_dim) == 2
        for chi in three_dim:
            assert prime_power_dim_check(chain, chi, 3)

    def test_hypothesis_failure_is_vacuous(self):
        H27 = heisenberg_group(3)
        table = character_table(H27)
        center = generated_subgroup(H27, [H27.index[(0, 0, 1)]])
        chain = BreakChain(H27, (F(1, 3),), (center,))
        for chi in table.irreducibles:
            assert prime_power_dim_check(chain, chi, 3)

    def test_wild_subgroup_must_be_p_group(self):
        S3 = symmetric_group(3)
        table = character_table(S3)
        a3 = next(N for N in normal_subgroups(S3) if N.order == 3)
        chain = BreakChain(S3, (F(1, 2),), (a3,))
        with pytest.raises(FilteredError):
            prime_power_dim_check(chain, table.irreducibles[0], 2)

    def test_reducible_character_is_refused(self):
        Q8 = quaternion_group()
        chain = BreakChain(Q8, (F(1, 2),), (Q8.full_subgroup(),))
        with pytest.raises(FilteredError, match="^character must be irreducible$"):
            prime_power_dim_check(chain, 2 * trivial_character(Q8), 2)

    def test_slope_zero_existence(self):
        Q8 = quaternion_group()
        table = character_table(Q8)
        center = generated_subgroup(Q8, [Q8.index[(2, 0)]])
        fractional = BreakChain(Q8, (F(1, 2),), (center,))
        assert slope_zero_existence_check(fractional, table)
        integer_break = BreakChain(Q8, (F(1),), (center,))
        assert slope_zero_existence_check(integer_break, table)  # vacuous

    def test_tame_chain_abounds_in_slope_zero(self):
        S3 = symmetric_group(3)
        table = character_table(S3)
        a3 = next(N for N in normal_subgroups(S3) if N.order == 3)
        chain = BreakChain(S3, (F(1, 2),), (a3,))
        assert slope_zero_existence_check(chain, table)


# -- the view route against the value route ---------------------------------------


def outcome(fn, *args):
    """The value, or the type and message of the ValueError raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def value_route_disjoint(chain, chi, table):
    """graded_pieces_disjoint on values: the pieces of `graded_characters`,
    each decomposed by `CharacterTable.decompose`."""
    if table.group is not chain.group:
        raise FilteredError("table must belong to the chain's group")
    supports = []
    for _, piece in graded_characters(chain, chi):
        mults = table.decompose(piece)
        if any(m < 0 for m in mults):
            return False
        supports.append({i for i, m in enumerate(mults) if m})
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            if supports[i] & supports[j]:
                return False
    total = table.decompose(chi)
    covered = set().union(*supports) if supports else set()
    return covered == {i for i, m in enumerate(total) if m}


def value_route_product(chain, chi, psi):
    return slope_decomposition(chain, chi * psi)


def tensor_routes(monkeypatch, chain, pairs):
    """tensor_bound_check's outcome and the product slopes it read on each
    pair, first as it runs, then with the product read from chi * psi on
    values."""
    out = []
    for route in (filtered._product_slopes, value_route_product):
        read = []

        def recorded(*args, route=route, read=read):
            read.append(route(*args))
            return read[-1]

        monkeypatch.setattr(filtered, "_product_slopes", recorded)
        out.append(([outcome(tensor_bound_check, chain, *pair) for pair in pairs],
                    read))
    monkeypatch.undo()
    return out


def disjointness_sample(table):
    """Every irreducible and the regular sum, which `verify` checks, then a
    difference of two irreducibles, half an irreducible, half the trivial
    character less another irreducible (a piece of degree 1/2 is left out
    before a negative one reads False) and, for an exponent above 2, an
    irreducible times zeta_e: the last four are not characters, so they read
    False or a refusal, an irrational degree among them."""
    irr = table.irreducibles
    e = table.group.exponent
    sample = list(irr) + [sum(irr[1:], irr[0]), irr[-1] - irr[0],
                          irr[-1] * F(1, 2), irr[0] * F(1, 2) - irr[-1]]
    if e > 2:
        sample.append(irr[-1] * Cyclotomic.zeta(e))
    return sample


def same_slope_difference(chain, table):
    """psi_a - psi_b for the first two irreducibles of one degree and one
    slope, or None: its piece at that slope has degree 0 but is not zero."""
    seen = {}
    for psi in table.irreducibles:
        key = (psi.degree, filtered.irreducible_slope(chain, psi))
        if key in seen:
            return psi - seen[key]
        seen[key] = psi
    return None


CHAINS = ([upper_from_lower(c) for c in abelian_chain_corpus(2024)]
          + filtered_group_corpus(15, 7177))


@pytest.mark.parametrize("chain", CHAINS, ids=lambda c: f"{c.group.name}-{len(c.breaks)}")
def test_views_match_the_value_route_on_the_corpora(chain, monkeypatch):
    table = character_table(chain.group)
    irr = table.irreducibles
    pairs = [(chi, psi) for chi in irr for psi in irr]
    (got, got_read), (want, want_read) = tensor_routes(monkeypatch, chain, pairs)
    assert got == want == [True] * len(pairs)
    assert got_read == want_read and len(got_read) == len(pairs)
    results = set()
    sample = disjointness_sample(table)
    difference = same_slope_difference(chain, table)
    if difference is not None:
        sample.append(difference)
    for chi in sample:
        got = outcome(graded_pieces_disjoint, chain, chi, table)
        assert got == outcome(value_route_disjoint, chain, chi, table)
        results.add(got if isinstance(got, bool) else got[0])
    assert True in results and results - {True}


def test_a_chain_without_subgroups_matches_the_value_route(c6_chain, monkeypatch):
    # slope_decomposition reads both views on a chain with no subgroup too,
    # so the product is read from the views there as well
    C6, _, table, chars = c6_chain
    empty = BreakChain(C6, (), ())
    half = (chars[3] + chars[3] * chars[3]) * F(1, 2)
    factors = list(table.irreducibles) + [half]
    pairs = [(chi, psi) for chi in factors for psi in factors]
    (got, got_read), (want, want_read) = tensor_routes(monkeypatch, empty, pairs)
    assert got == want == [True] * len(pairs)
    assert got_read == want_read and len(got_read) == len(pairs)


def test_unequal_view_conductors_take_the_value_route(monkeypatch):
    # i written at conductor 8 on C4 has a view at n = 8; the irreducibles'
    # views are at e = 4, so the product is read from chi * psi
    C4 = cyclic_group(4)
    table = character_table(C4)
    g = next(x for x in range(4) if C4.element_order(x) == 4)
    values = [None] * 4
    for t in range(4):
        values[C4.class_of[C4.power(g, t)]] = Cyclotomic.zeta(8, 2 * t)
    chi = ClassFunction(C4, tuple(values))
    c2 = generated_subgroup(C4, [C4.power(g, 2)])
    chain = BreakChain(C4, (F(1, 2), F(1)), (C4.full_subgroup(), c2))
    assert chi.int_view[0] == 8
    assert all(psi.int_view[0] == 4 for psi in table.irreducibles)
    pairs = [pair for psi in table.irreducibles for pair in ((chi, psi), (psi, chi))]
    (got, got_read), (want, want_read) = tensor_routes(monkeypatch, chain, pairs)
    assert got == want == [True] * len(pairs) and got_read == want_read
    assert got_read == [slope_decomposition(chain, a * b) for a, b in pairs]
    assert outcome(graded_pieces_disjoint, chain, chi, table) == outcome(
        value_route_disjoint, chain, chi, table) == True


def test_views_with_a_denominator_match_the_value_route(c6_chain, monkeypatch):
    # half the sum of the two order-3 characters is not a character, but its
    # degree and invariant dimensions are integers; its view has D = 2, and
    # its products with the irreducibles have integer invariant dimensions
    # for some of them only
    C6, chain, table, chars = c6_chain
    half = (chars[3] + chars[3] * chars[3]) * F(1, 2)
    assert half.int_view[1] == 2
    pairs = [(half, half)] + [(half, chi) for chi in table.irreducibles]
    (got, got_read), (want, want_read) = tensor_routes(monkeypatch, chain, pairs)
    assert got == want and got_read == want_read
    assert {type(x) for x in got} == {bool, tuple}
    assert outcome(graded_pieces_disjoint, chain, half, table) == outcome(
        value_route_disjoint, chain, half, table)


def test_a_product_without_a_view_is_refused_as_before(monkeypatch):
    # on C2 x C2, 2|G| = 8: chi = (2, zeta_3, zeta_3^2, -1) has its view at 6
    # and psi = (2, zeta_8, -zeta_8, -2) at 8, both with no invariants under
    # the group, but chi * psi needs the conductor 24
    V4 = elementary_abelian_group(2, 2)
    z3, z8 = Cyclotomic.zeta(3), Cyclotomic.zeta(8)
    chi = ClassFunction(V4, (Cyclotomic.rational(2), z3, z3 * z3,
                             Cyclotomic.rational(-1)))
    psi = ClassFunction(V4, (Cyclotomic.rational(2), z8, -z8,
                             Cyclotomic.rational(-2)))
    chain = BreakChain(V4, (F(1),), (V4.full_subgroup(),))
    assert (chi.int_view[0], psi.int_view[0]) == (6, 8)
    refusal = ("RepTheoryError", "the values' least conductors and the "
                                 "exponent have an lcm above 2|G| = 8")
    (got, _), (want, _) = tensor_routes(monkeypatch, chain, [(chi, psi)])
    assert got == want == [refusal]
    table = character_table(V4)
    product = chi * psi
    assert outcome(graded_pieces_disjoint, chain, product, table) == refusal
    assert outcome(value_route_disjoint, chain, product, table) == refusal


def test_a_class_function_of_another_group_is_refused_as_before(c6_chain):
    C6, chain, table, chars = c6_chain
    other = trivial_character(cyclic_group(6))
    assert outcome(tensor_bound_check, chain, other, chars[2]) == (
        "FilteredError", "character must live on the chain's group")
    assert outcome(tensor_bound_check, chain, chars[2], other) == (
        "FilteredError", "character must live on the chain's group")
    refusal = ("FilteredError", "subgroup must live in the character's group")
    assert outcome(graded_pieces_disjoint, chain, other, table) == refusal
    assert outcome(value_route_disjoint, chain, other, table) == refusal
    # with no subgroup to refuse it, the decomposition does
    empty = BreakChain(C6, (), ())
    refusal = ("RepTheoryError", "class functions live on different groups")
    assert outcome(graded_pieces_disjoint, empty, other, table) == refusal
    assert outcome(value_route_disjoint, empty, other, table) == refusal


def test_a_non_character_on_c5_is_refused_at_its_multiplicity():
    # 3, 1, 1, 1, -1: the invariant dimension under C5 is 1, but <chi, psi>
    # is not an integer for a non-trivial psi
    C5 = cyclic_group(5)
    chi = ClassFunction(C5, tuple(Cyclotomic.rational(x) for x in (3, 1, 1, 1, -1)))
    chain = BreakChain(C5, (F(1),), (C5.full_subgroup(),))
    table = character_table(C5)
    refusal = ("RepTheoryError",
               "not a character: the multiplicity of irreducible 1 is not an integer")
    assert outcome(graded_pieces_disjoint, chain, chi, table) == refusal
    assert outcome(value_route_disjoint, chain, chi, table) == refusal


@pytest.mark.parametrize("at_one, at_two, conductor", [
    (Cyclotomic.zeta(3), Cyclotomic.rational(1), 6),
    (Cyclotomic.zeta(3), -Cyclotomic.zeta(3), 3),
    (Cyclotomic.rational(0), Cyclotomic.zeta(3), 6)])
def test_irrational_piece_degrees_are_refused_as_before(at_one, at_two, conductor):
    # on C6 with the chain C6 > C2, the values at the identity and at the
    # element of order 2, 0 elsewhere: with zeta_3 and 1, or 0 and zeta_3,
    # the invariant character under C6 has an irrational degree, read at the
    # view's conductor 6; with zeta_3 and -zeta_3 both invariant degrees are
    # 0, and the last piece is chi's identity value, at its stored conductor 3
    C6 = cyclic_group(6)
    t = C6.power(1, 3)
    chain = BreakChain(C6, (F(1, 2), F(1)),
                       (C6.full_subgroup(), generated_subgroup(C6, [t])))
    vals = [Cyclotomic.rational(0)] * 6
    vals[0], vals[C6.class_of[t]] = at_one, at_two
    chi = ClassFunction(C6, tuple(vals))
    table = character_table(C6)
    refusal = ("ValueError", f"a value of conductor {conductor} is not rational")
    assert outcome(graded_pieces_disjoint, chain, chi, table) == refusal
    assert outcome(value_route_disjoint, chain, chi, table) == refusal


def test_the_checks_build_no_cyclotomic_on_warm_irreducibles(c6_chain, monkeypatch):
    C6, chain, table, chars = c6_chain
    irr = table.irreducibles
    regular = sum(irr[1:], irr[0])
    for chi in (*irr, regular):
        assert graded_pieces_disjoint(chain, chi, table)
    for chi in irr:
        for psi in irr:
            assert tensor_bound_check(chain, chi, psi)
    count = 0
    init = Cyclotomic.__init__

    def counted(self, *args, **kwargs):
        nonlocal count
        count += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Cyclotomic, "__init__", counted)
    for chi in (*irr, regular):
        assert graded_pieces_disjoint(chain, chi, table)
    for chi in irr:
        for psi in irr:
            assert tensor_bound_check(chain, chi, psi)
    assert count == 0
    slope_decomposition(chain, irr[1] * irr[2])  # the counter counts
    assert count > 0


def test_disjointness_decomposes_an_irreducible_once(monkeypatch):
    calls = 0
    multiplicities = CharacterTable._multiplicities

    def counted(self, view):
        nonlocal calls
        calls += 1
        return multiplicities(self, view)

    monkeypatch.setattr(CharacterTable, "_multiplicities", counted)
    differences = 0
    for chain in CHAINS:
        table = character_table(chain.group)
        irr = table.irreducibles
        for chi in irr:
            calls = 0
            assert graded_pieces_disjoint(chain, chi, table)
            assert calls == 1, (chain.group.name, chi)
        # the sum of all irreducibles: one decomposition per slope, none of chi
        slopes = {filtered.irreducible_slope(chain, chi) for chi in irr}
        calls = 0
        assert graded_pieces_disjoint(chain, sum(irr[1:], irr[0]), table)
        assert calls == len(slopes)
        # a non-zero piece of degree 0 left out: chi is decomposed, and only it
        difference = same_slope_difference(chain, table)
        if difference is not None:
            calls = 0
            assert graded_pieces_disjoint(chain, difference, table) is False
            assert calls == 1
            differences += 1
    assert differences > len(CHAINS) // 2
