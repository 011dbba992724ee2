#!/usr/bin/env python3
"""Walkthrough: ramification chains, the Herbrand transition and Swan conductors.

A lower chain is a descending list of normal subgroups G_0 >= G_1 >= ...;
the transition function phi(u) = integral dt/[G_0 : G_t] renumbers it into a
break chain, and characters decompose into slopes through their invariant
dimensions.  The Swan conductor is the height of the resulting polygon and is
an integer for chains that arise from the classical abelian setting.
"""

from fractions import Fraction as F

from slopeforge import (BreakChain, LowerChain, cyclic_group,
                        generated_subgroup, character_table, hasse_arf_check,
                        herbrand_phi, slope_decomposition, swan_conductor,
                        swan_lower_oracle, upper_from_lower)

print("== a wildly ramified order-4 chain ==")
C4 = cyclic_group(4)
c2 = generated_subgroup(C4, [C4.power(1, 2)])
full = C4.full_subgroup()
lower = LowerChain(C4, (full, full, full, c2, c2, c2))
phi = herbrand_phi(lower)
print("phi breakpoints:", phi.vertices, "final slope:", phi.final_slope)

upper = upper_from_lower(lower)
print("upper breaks:", upper.breaks,
      "subgroup orders:", [H.order for H in upper.subgroups])

print()
print("== Swan conductors, two ways ==")
for chi in character_table(C4).irreducibles:
    via_breaks = swan_conductor(upper, chi)
    via_lower = swan_lower_oracle(lower, chi)
    assert via_breaks == via_lower
    print(f"character {[str(v) for v in chi.values]}: swan = {via_breaks}, "
          f"integral polygon = {hasse_arf_check(upper, chi)}")

print()
print("== an order-6 chain with a fractional break ==")
C6 = cyclic_group(6)
c2in6 = generated_subgroup(C6, [C6.power(1, 3)])
chain = BreakChain(C6, (F(1, 2), F(1)), (C6.full_subgroup(), c2in6))
table = character_table(C6)
for chi in table.irreducibles:
    dec = slope_decomposition(chain, chi)
    print(f"degree {int(chi.degree)} character -> slopes {dec.entries}, "
          f"swan {swan_conductor(chain, chi)}")
print("the cubic characters have Swan 1/2: this chain is not of the")
print("integral kind, which is exactly what the integrality check reports")

print()
print("== scaling the chain multiplies every slope ==")
chi = table.irreducibles[-1]
for n in (1, 2, 3):
    print(f"n = {n}: swan {swan_conductor(chain.scaled(n), chi)}")
