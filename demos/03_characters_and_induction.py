#!/usr/bin/env python3
"""Walkthrough: exact character tables, induction and tensor induction.

Tables are computed by simultaneous diagonalization of the class-sum matrices
over a prime field and lifted to exact cyclotomic values.  Induction is the
Frobenius formula; tensor induction multiplies over the orbits of the coset
action and is cross-checked against an explicit matrix construction.
"""

from slopeforge import (character_table, cyclic_group,
                        generated_subgroup, induce, induced_matrix_rep,
                        mackey_check, normal_subgroups,
                        rep_from_generator_images, restrict, symmetric_group,
                        tensor_induce, tensor_induced_matrix_rep,
                        trivial_character)
from slopeforge.exactnum import Cyclotomic
from slopeforge.reptheory import str_of_cyclotomic

print("== the table of S3 ==")
S3 = symmetric_group(3)
table = character_table(S3)
print("class sizes:", [len(c) for c in S3.conjugacy_classes])
for chi in table.irreducibles:
    print(" ", [str_of_cyclotomic(v) for v in chi.values])

print()
print("== inducing a cubic character of A3 up to S3 ==")
A3 = next(N for N in normal_subgroups(S3) if N.order == 3)
tA3 = character_table(A3.as_group)
omega = next(c for c in tA3.irreducibles if c != trivial_character(A3.as_group))
ind = induce(omega, A3)
print("induced values:", [str_of_cyclotomic(v) for v in ind.values])
# <ind, ind> is the sum of the squared multiplicities over the irreducibles
print("norm:", sum(m * m for m in table.decompose(ind)), "(1 means irreducible)")
print("restriction back to A3 = omega + omega^2:",
      restrict(ind, A3) == omega + omega * omega)

print()
print("== the product-of-inductions identity ==")
ok, _ = mackey_check(omega, omega, A3)
print("Ind(V) Ind(W) = sum of Ind(conjugate V x W):", ok)

print()
print("== tensor induction against the matrix oracle ==")
C4 = cyclic_group(4)
H = generated_subgroup(C4, [C4.power(1, 2)])
Hg = H.as_group
sign_rep = rep_from_generator_images(Hg, Hg.generators,
                                     [[[Cyclotomic.rational(-1)]]])
sign = sign_rep.character()
ti = tensor_induce(sign, H)
print("tensor-induced values:", [str_of_cyclotomic(v) for v in ti.values])
print("equals trace of the explicit tensor construction:",
      ti == tensor_induced_matrix_rep(sign_rep, H).character())
print("induced character equals the block-matrix trace:",
      induce(sign, H) == induced_matrix_rep(sign_rep, H).character())
print("degree law: deg = deg(chi)^index:", int(ti.degree) == 1)
