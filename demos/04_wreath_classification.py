#!/usr/bin/env python3
"""Walkthrough: wreath products and the two-case subgroup classification.

A subgroup of C_ell wr H covering the top cyclic group meets the base power
H^ell either in everything (full wreath case) or in a twisted diagonal
(semidirect case).  For non-abelian simple H the normal subgroups are exactly
1, the base intersection and the whole group; when ell does not divide the
outer automorphism count, the semidirect case splits as a direct product.
"""

import time

from slopeforge import (alternating_group, classify_wreath_subgroup,
                        cyclic_group, embed_in_wreath, generated_subgroup,
                        goursat_classify, outer_automorphism_order,
                        wreath_cyclic)

print("== the coset embedding ==")
C4 = cyclic_group(4)
H = generated_subgroup(C4, [C4.power(1, 2)])
emb = embed_in_wreath(C4, H)
print("C4 embeds in S2 wr C2; image of a generator:", emb.images[1])

print()
print("== Goursat on the square of a cyclic group ==")
C3 = cyclic_group(3)
diag = [(h, h) for h in range(3)]
anti = [(h, C3.inv(h)) for h in range(3)]
print("diagonal:", goursat_classify(diag, C3, 2))
print("antidiagonal:", goursat_classify(anti, C3, 2))

print()
print("== the order-7200 wreath product of the icosahedral group ==")
A5 = alternating_group(5)
W = wreath_cyclic(A5, 2)
t0 = time.perf_counter()
G = W.group()
report = classify_wreath_subgroup(W, G)
print(f"order {G.order}, {len(G.conjugacy_classes)} classes"
      f" (built in {time.perf_counter() - t0:.1f}s)")
print("case:", report.case)
print("normal subgroup orders:", report.normal_subgroup_orders)
print("longest normal chain:", report.max_normal_chain_length, "(bound 3)")

print()
print("== a diagonal copy of C3 x A5 inside the cube wreath ==")
print("|Out(A5)| =", outer_automorphism_order(A5), "and 3 does not divide it")
W3 = wreath_cyclic(A5, 3)
gens = [W3.top_element((1, 2, 0))]
gens += [W3.base_element((g, g, g)) for g in A5.generators]
Gbar = W3.subgroup_from_raw(gens)
report3 = classify_wreath_subgroup(W3, Gbar)
print("case:", report3.case, "| direct product detected:", report3.direct_product)
print("(the ambient wreath has order", W3.order, "and is never enumerated)")

print()
print("== abelian bases break the trichotomy ==")
Wab = wreath_cyclic(C3, 2)
rep_ab = classify_wreath_subgroup(Wab, Wab.group())
print("case:", rep_ab.case, "| abelian flag:", rep_ab.abelian_base)
print("normal orders:", rep_ab.normal_subgroup_orders,
      "- diagonals become normal, chain length", rep_ab.max_normal_chain_length)
