from fractions import Fraction as F

import pytest

from slopeforge.filtered import (BreakChain, FilteredError, LowerChain,
                                 graded_characters, graded_pieces_disjoint,
                                 hasse_arf_check, herbrand_phi,
                                 invariant_character, invariant_dimension,
                                 lower_from_upper,
                                 prime_power_dim_check, slope_decomposition,
                                 slope_zero_existence_check, swan_conductor,
                                 swan_lower_oracle, tensor_bound_check,
                                 upper_from_lower)
from slopeforge.groups import (cyclic_group, generated_subgroup,
                               heisenberg_group, normal_subgroups,
                               quaternion_group, symmetric_group)
from slopeforge.newton import SlopeMultiset
from slopeforge.reptheory import (character_table, regular_character,
                                  trivial_character)


def ms(*pairs):
    return SlopeMultiset.from_pairs([(F(s), m) for s, m in pairs])


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


class TestTensorBound:
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
