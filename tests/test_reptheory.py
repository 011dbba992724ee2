import functools
import gc
import weakref
from fractions import Fraction
from itertools import product as iter_product
from math import gcd

import pytest

from slopeforge.corpus import (abelian_groups_up_to_64, group_zoo_up_to_100,
                               mackey_pair_corpus)
from slopeforge.exactnum import Cyclotomic
from slopeforge.groups import (CosetAction, alternating_group, cyclic_group,
                               dihedral_group, generated_subgroup,
                               group_from_permutations, heisenberg_group,
                               left_cosets, normal_subgroups, quaternion_group,
                               symmetric_group, wreath_cyclic)
from slopeforge.reptheory import (RepTheoryError, character_table,
                                  conjugate_character, induce,
                                  induced_matrix_rep, inner_product,
                                  inner_product_int, irreducible_dims_gcd,
                                  mackey_check, regular_character,
                                  rep_from_generator_images, restrict,
                                  tensor_induce, tensor_induced_matrix_rep,
                                  tind_summand_check, trivial_character)
from slopeforge.reptheory import _class_matrix


def a3_of_s3():
    S3 = symmetric_group(3)
    return S3, next(N for N in normal_subgroups(S3) if N.order == 3)


def frobenius_21():
    """C7 : C3, whose degree-3 characters need conductor-7 cyclotomics."""
    x = tuple((i + 1) % 7 for i in range(7))
    y = tuple((2 * i) % 7 for i in range(7))
    return group_from_permutations([x, y], name="F21")


@functools.cache
def zeta_coeffs(n, k):
    """The integer coefficients of zeta_n^k over the power basis of Q(zeta_n)."""
    return tuple(int(c) for c in Cyclotomic.zeta(n, k)._lift_coeffs(n))


def nontrivial_linear(table):
    return next(c for c in table.irreducibles[1:] if int(c.degree) == 1)


def assert_coset_action(H, transversal):
    """g gamma_i = gamma_sigma(i) cocycle_i with cocycle_i in H, for every g."""
    G = H.parent
    action = CosetAction(H, transversal)
    for g in range(G.order):
        sigma, cocycle = action.image(g)
        assert sorted(sigma) == list(range(len(transversal)))
        for i, gamma in enumerate(transversal):
            assert cocycle[i] in H
            assert G.mul(g, gamma) == G.mul(transversal[sigma[i]], cocycle[i])


class TestInnerProduct:
    def test_trivial_with_itself(self):
        G = symmetric_group(3)
        one = trivial_character(G)
        assert inner_product(one, one) == Cyclotomic.rational(1)

    def test_regular_against_trivial(self):
        G = symmetric_group(3)
        assert inner_product_int(regular_character(G), trivial_character(G)) == 1

    def test_two_dim_irreducible_norm(self):
        S3 = symmetric_group(3)
        chi2 = next(c for c in character_table(S3).irreducibles if int(c.degree) == 2)
        assert inner_product_int(chi2, chi2) == 1

    def test_group_mismatch(self):
        with pytest.raises(RepTheoryError):
            inner_product(trivial_character(symmetric_group(3)),
                          trivial_character(cyclic_group(2)))


class TestCharacterTables:
    def test_c3_linear_with_cyclotomic_values(self):
        table = character_table(cyclic_group(3))
        assert table.degrees == (1, 1, 1)
        conds = sorted(max(v.conductor for v in chi.values)
                       for chi in table.irreducibles)
        assert conds == [1, 3, 3]

    def test_s3_degrees(self):
        assert sorted(character_table(symmetric_group(3)).degrees) == [1, 1, 2]

    def test_q8_degrees(self):
        assert sorted(character_table(quaternion_group()).degrees) == [1, 1, 1, 1, 2]

    @pytest.mark.parametrize("maker,degs", [
        (lambda: symmetric_group(4), [1, 1, 2, 3, 3]),
        (lambda: alternating_group(4), [1, 1, 1, 3]),
        (lambda: alternating_group(5), [1, 3, 3, 4, 5]),
        (lambda: dihedral_group(4), [1, 1, 1, 1, 2]),
        (lambda: dihedral_group(5), [1, 1, 2, 2]),
        (lambda: heisenberg_group(3), [1] * 9 + [3, 3]),
    ])
    def test_degree_lists(self, maker, degs):
        assert sorted(character_table(maker()).degrees) == degs

    def test_orthonormality_exact(self):
        for G in (symmetric_group(3), quaternion_group(), alternating_group(4),
                  cyclic_group(16), frobenius_21()):
            table = character_table(G)
            for i, a in enumerate(table.irreducibles):
                for j, b in enumerate(table.irreducibles):
                    expected = Cyclotomic.rational(1 if i == j else 0)
                    assert inner_product(a, b) == expected

    def test_column_orthogonality_exact(self):
        # sum over irreducibles of chi(g) chi(h^-1) is |centralizer| or zero
        for G in (symmetric_group(3), quaternion_group(), alternating_group(4),
                  cyclic_group(16), frobenius_21()):
            table = character_table(G)
            inv = G.inverse_class
            r = len(G.conjugacy_classes)
            for k in range(r):
                for l in range(r):
                    total = Cyclotomic.rational(0)
                    for chi in table.irreducibles:
                        total = total + chi.values[k] * chi.values[inv[l]]
                    if k == l:
                        expected = G.order // len(G.conjugacy_classes[k])
                    else:
                        expected = 0
                    assert total == Cyclotomic.rational(expected)

    # one wrong entry mod ell in S4's table breaks a relation with i <= j,
    # and a row times 2 breaks only its own relation, the one with i = j
    @pytest.mark.parametrize("row, cols, factor", [
        (0, [0], None), (1, [2], None), (4, [3], None), (2, range(5), 2),
    ], ids=["entry-0-0", "entry-1-2", "entry-4-3", "row-2-doubled"])
    def test_corrupted_modular_character_fails_orthogonality(
            self, monkeypatch, row, cols, factor):
        import slopeforge.reptheory as rt

        check = rt._verify_orthogonality_mod

        def corrupted(table, chars_mod, ell):
            for col in cols:
                x = chars_mod[row][col]
                chars_mod[row][col] = (x * factor if factor else x + 1) % ell
            check(table, chars_mod, ell)

        monkeypatch.setattr(rt, "_verify_orthogonality_mod", corrupted)
        with pytest.raises(AssertionError,
                           match="^modular orthogonality check failed$"):
            character_table(symmetric_group(4))

    def test_frobenius_21_irrational_values(self):
        table = character_table(frobenius_21())
        assert sorted(table.degrees) == [1, 1, 1, 3, 3]
        conds = {max(v.conductor for v in chi.values) for chi in table.irreducibles}
        assert 7 in conds
        for i, a in enumerate(table.irreducibles):
            for j, b in enumerate(table.irreducibles):
                assert inner_product(a, b) == Cyclotomic.rational(1 if i == j else 0)

    def test_special_linear_two_three(self):
        vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
        idx = {v: i for i, v in enumerate(vecs)}

        def mat_perm(m):
            return tuple(
                idx[((m[0][0] * a + m[0][1] * b) % 3,
                     (m[1][0] * a + m[1][1] * b) % 3)]
                for a, b in vecs)

        SL23 = group_from_permutations(
            [mat_perm([[1, 1], [0, 1]]), mat_perm([[0, 2], [1, 0]])], name="SL23")
        assert SL23.order == 24
        table = character_table(SL23)
        assert sorted(table.degrees) == [1, 1, 1, 2, 2, 2, 3]

    def test_class_matrix_counts(self):
        # M_i[j][k] = #{x in C_i : x^-1 z_k in C_j}, built on demand per class
        for G in group_zoo_up_to_100():
            classes = G.conjugacy_classes
            for i, cls in enumerate(classes):
                rows = _class_matrix(G, i)
                for j, target in enumerate(classes):
                    for k, z in enumerate(G.class_representatives):
                        count = sum(G.mul(G.inv(x), z) in target for x in cls)
                        assert rows[j].get(k, 0) == count, (G.name, i, j, k)

    def test_table_builds_no_inverse_list(self):
        # inverse classes come from the power maps, and M_i reads the class
        # of the inverses, so no inverse is computed element by element
        for G in (symmetric_group(4), alternating_group(5), frobenius_21()):
            character_table(G)
            assert "_inv_list" not in vars(G), G.name

    def test_galois_conjugate_classes(self):
        # chi(g^a) = sigma_a(chi(g)) for a prime to m = ord(g): the stored
        # value of chi at g, sum_u c_u zeta_n^u, with zeta_n^u sent to
        # zeta_n^(a u), is the stored value at the class of g^a
        cyclic = [G for G in abelian_groups_up_to_64()
                  if G.name.startswith("C") and G.order <= 48]
        for G in group_zoo_up_to_100() + tuple(cyclic):
            table = character_table(G)
            for k, g in enumerate(G.class_representatives):
                m = G.element_order(g)
                for a in range(2, m):
                    if gcd(a, m) != 1:
                        continue
                    ka = G.class_of[G.power(g, a)]
                    for chi in table.irreducibles:
                        v = chi.values[k]
                        if v.is_rational:
                            assert chi.values[ka] == v, (G.name, k, a)
                            continue
                        n = v.conductor
                        image = [0] * len(v.nums)
                        for u, c in enumerate(v.nums):
                            if c:
                                image = [x + int(c) * y for x, y in
                                         zip(image, zeta_coeffs(n, a * u % n))]
                        assert chi.values[ka]._lift_coeffs(n) == image, (G.name, k, a)

    def test_trivial_group(self):
        table = character_table(cyclic_group(1))
        assert table.degrees == (1,)

    def test_order_bound(self):
        with pytest.raises(RepTheoryError):
            character_table(symmetric_group(3), max_order=2)

    def test_table_is_released_with_its_group(self):
        G = symmetric_group(3)
        table = character_table(G)
        assert character_table(G) is table
        ref = weakref.ref(table)
        del G, table
        gc.collect()
        assert ref() is None

    def test_dims_gcd(self):
        assert irreducible_dims_gcd(symmetric_group(3)) == 1
        assert irreducible_dims_gcd(cyclic_group(6)) == 1
        assert irreducible_dims_gcd(quaternion_group()) == 1
        with pytest.raises(RepTheoryError):
            irreducible_dims_gcd(cyclic_group(1))


class TestRestriction:
    def test_trivial_restricts_to_trivial(self):
        S3, A3 = a3_of_s3()
        assert restrict(trivial_character(S3), A3) == trivial_character(A3.as_group)

    def test_restriction_of_induced(self):
        S3, A3 = a3_of_s3()
        omega = nontrivial_linear(character_table(A3.as_group))
        res = restrict(induce(omega, A3), A3)
        assert res == omega + omega * omega

    def test_restrict_to_whole_group(self):
        S3 = symmetric_group(3)
        chi = character_table(S3).irreducibles[-1]
        res = restrict(chi, S3.full_subgroup())
        assert list(res.values) == list(chi.values)


class TestConjugation:
    def test_inner_is_identity(self):
        S3, A3 = a3_of_s3()
        omega = nontrivial_linear(character_table(A3.as_group))
        inside = A3.elements[1]
        assert conjugate_character(omega, A3, inside) == omega

    def test_transposition_sends_omega_to_square(self):
        S3, A3 = a3_of_s3()
        omega = nontrivial_linear(character_table(A3.as_group))
        transp = next(i for i in range(6) if S3.element_order(i) == 2)
        assert conjugate_character(omega, A3, transp) == omega * omega

    def test_trivial_fixed(self):
        S3, A3 = a3_of_s3()
        transp = next(i for i in range(6) if S3.element_order(i) == 2)
        one = trivial_character(A3.as_group)
        assert conjugate_character(one, A3, transp) == one


class TestInduction:
    def test_omega_induces_to_two_dim_irreducible(self):
        S3, A3 = a3_of_s3()
        omega = nontrivial_linear(character_table(A3.as_group))
        ind = induce(omega, A3)
        assert int(ind.degree) == 2
        assert inner_product_int(ind, ind) == 1

    def test_trivial_induces_to_permutation_character(self):
        S3, A3 = a3_of_s3()
        ind = induce(trivial_character(A3.as_group), A3)
        # permutation character of S3 on two points: trivial + sign
        table = character_table(S3)
        mults = table.decompose(ind)
        assert sum(m * int(c.degree) for m, c in zip(mults, table.irreducibles)) == 2
        assert mults[0] == 1

    def test_identity_index(self):
        S3 = symmetric_group(3)
        chi = character_table(S3).irreducibles[-1]
        assert induce(restrict(chi, S3.full_subgroup()), S3.full_subgroup()) == chi

    def test_frobenius_reciprocity(self):
        S3, A3 = a3_of_s3()
        tH = character_table(A3.as_group)
        tG = character_table(S3)
        for chi in tH.irreducibles:
            for psi in tG.irreducibles:
                assert inner_product(induce(chi, A3), psi) == inner_product(
                    chi, restrict(psi, A3))

    @staticmethod
    def element_wise_induce(chi, H):
        """The defining formula: (1/|H|) sum over x in G with x^-1 g x in H
        of chi(x^-1 g x), at one g per class of G."""
        G, Hg = H.parent, H.as_group
        vals = []
        for cls in G.conjugacy_classes:
            g = cls[0]
            total = Cyclotomic.rational(0)
            for x in range(G.order):
                y = G.mul(G.inv(x), G.mul(g, x))
                if y in H:
                    total = total + chi.value_at(Hg.index[y])
            vals.append(total * Fraction(1, H.order))
        return vals

    def test_class_fusion_matches_the_element_wise_formula(self):
        pairs = [H for _, H in mackey_pair_corpus()]
        for n in range(3, 13):
            D = dihedral_group(n)
            rot = D.index[tuple(list(range(1, n)) + [0])]
            pairs.append(generated_subgroup(D, [rot]))
        cases = 0
        for H in pairs:
            irr = character_table(H.as_group).irreducibles
            for i, chi in enumerate(irr):
                for psi in (chi, chi * irr[(i + 1) % len(irr)]):
                    expected = self.element_wise_induce(psi, H)
                    got = induce(psi, H).values
                    assert [(v.conductor, v.rational_coefficients()) for v in got] == [
                        (v.conductor, v.rational_coefficients()) for v in expected]
                    cases += 1
        assert cases == 252


class TestTensorInduction:
    def test_whole_group_identity(self):
        S3 = symmetric_group(3)
        full = S3.full_subgroup()
        chi = character_table(S3).irreducibles[-1]
        assert tensor_induce(restrict(chi, full), full) == chi

    def test_degree_law(self):
        S3, A3 = a3_of_s3()
        omega = nontrivial_linear(character_table(A3.as_group))
        assert int(tensor_induce(omega, A3).degree) == 1

    def test_sign_on_c4_matches_matrix_oracle(self):
        C4 = cyclic_group(4)
        H = generated_subgroup(C4, [C4.power(1, 2)])
        Hg = H.as_group
        rep = rep_from_generator_images(Hg, Hg.generators,
                                        [[[Cyclotomic.rational(-1)]]])
        sign = rep.character()
        assert tensor_induce(sign, H) == tensor_induced_matrix_rep(rep, H).character()
        assert induce(sign, H) == induced_matrix_rep(rep, H).character()

    def test_transversal_independence(self):
        S3, A3 = a3_of_s3()
        omega = nontrivial_linear(character_table(A3.as_group))
        reference = tensor_induce(omega, A3)
        for choice in iter_product(*left_cosets(S3, A3)):
            assert tensor_induce(omega, A3, list(choice)) == reference
            assert_coset_action(A3, choice)

    def test_transversal_independence_index_three(self):
        A4 = alternating_group(4)
        V4 = next(N for N in normal_subgroups(A4) if N.order == 4)
        chi = nontrivial_linear(character_table(V4.as_group))
        reference = tensor_induce(chi, V4)
        for choice in iter_product(*left_cosets(A4, V4)):
            assert tensor_induce(chi, V4, list(choice)) == reference
            assert_coset_action(V4, choice)

    def test_restriction_formulas(self):
        S3, A3 = a3_of_s3()
        omega = nontrivial_linear(character_table(A3.as_group))
        transversal = [c[0] for c in left_cosets(S3, A3)]
        conjugates = [conjugate_character(omega, A3, g) for g in transversal]
        total, prod = conjugates[0], conjugates[0]
        for term in conjugates[1:]:
            total, prod = total + term, prod * term
        assert restrict(induce(omega, A3), A3) == total
        assert restrict(tensor_induce(omega, A3), A3) == prod

    def test_summand_check(self):
        S3, A3 = a3_of_s3()
        omega = nontrivial_linear(character_table(A3.as_group))
        assert tind_summand_check(omega, A3)
        assert tind_summand_check(restrict(character_table(S3).irreducibles[-1],
                                           S3.full_subgroup()), S3.full_subgroup())

    def test_case_one_tensor_induction_is_irreducible(self):
        # index-2 base pair inside the order-7200 wreath: a degree-3 factor
        # tensor-induces to a degree-9 irreducible of the whole group
        A5 = alternating_group(5)
        W = wreath_cyclic(A5, 2)
        G = W.group()
        gens = []
        for g in A5.generators:
            gens.append(G.index[((0, 1), (g, 0))])
            gens.append(G.index[((0, 1), (0, g))])
        H = generated_subgroup(G, gens)
        assert H.order == 3600
        Hg = H.as_group
        tA5 = character_table(A5)
        chi3 = next(c for c in tA5.irreducibles if int(c.degree) == 3)
        values = []
        for rep_idx in Hg.class_representatives:
            _, (a_idx, _) = G.elements[Hg.elements[rep_idx]]
            values.append(chi3.values[A5.class_of[a_idx]])
        from slopeforge.reptheory import ClassFunction

        factor = ClassFunction(Hg, tuple(values))
        assert inner_product_int(factor, factor) == 1
        big = tensor_induce(factor, H)
        assert int(big.degree) == 9
        assert inner_product_int(big, big) == 1


class TestMackey:
    def test_s3_a3(self):
        S3, A3 = a3_of_s3()
        omega = nontrivial_linear(character_table(A3.as_group))
        ok, witness = mackey_check(omega, omega, A3)
        assert ok
        assert set(witness) == {"lhs", "rhs"}

    def test_c4_c2_sign(self):
        C4 = cyclic_group(4)
        H = generated_subgroup(C4, [C4.power(1, 2)])
        sign = nontrivial_linear(character_table(H.as_group))
        assert mackey_check(sign, sign, H)[0]

    def test_index_one(self):
        S3 = symmetric_group(3)
        table = character_table(S3)
        ok, _ = mackey_check(
            restrict(table.irreducibles[-1], S3.full_subgroup()),
            restrict(table.irreducibles[1], S3.full_subgroup()),
            S3.full_subgroup())
        assert ok

    def test_failing_witness_is_pinned(self, monkeypatch):
        # conjugation replaced by duality makes the identity fail on C3 < C6,
        # and the witness shows both sides as they differ
        import slopeforge.reptheory as rt

        C6 = cyclic_group(6)
        H = generated_subgroup(C6, [C6.power(1, 2)])
        omega = nontrivial_linear(character_table(H.as_group))
        V = omega * Fraction(1, 8) + omega * omega
        monkeypatch.setattr(rt, "conjugate_character",
                            lambda chi, H, gamma: chi.dual())
        ok, witness = mackey_check(V, omega, H)
        assert not ok
        assert witness == {
            "lhs": ["9/2", "0", "z3:[4,1/2]", "0", "z3:[7/2,-1/2]", "0"],
            "rhs": ["9/2", "0", "z3:[1/2,4]", "0", "z3:[-7/2,-4]", "0"]}

    def test_requires_normal(self):
        S3 = symmetric_group(3)
        transp = next(i for i in range(6) if S3.element_order(i) == 2)
        H = generated_subgroup(S3, [transp])
        with pytest.raises(RepTheoryError):
            mackey_check(trivial_character(H.as_group),
                         trivial_character(H.as_group), H)


class TestMatrixReps:
    def test_rejects_non_multiplicative(self):
        C3 = cyclic_group(3)
        bad = [[[Cyclotomic.rational(-1)]]]  # order-3 generator, order-2 image
        with pytest.raises(RepTheoryError):
            rep_from_generator_images(C3, C3.generators, bad)

    def test_two_dimensional_multiplicative(self):
        S3 = symmetric_group(3)
        w = Cyclotomic.zeta(3)
        zero, one = Cyclotomic.rational(0), Cyclotomic.rational(1)
        imgs = []
        for g in S3.generators:
            if S3.element_order(g) == 3:
                imgs.append(((w, zero), (zero, w * w)))
            else:
                imgs.append(((zero, one), (one, zero)))
        rep = rep_from_generator_images(S3, S3.generators, imgs)
        chi = rep.character()
        assert int(chi.degree) == 2
        assert inner_product_int(chi, chi) == 1
