"""Seeded corpora for the verification suites.

Every generator takes an explicit seed so that a fixed seed reproduces the
identical corpus.  Abelian ramification chains are produced Galois-style: a
descending subgroup chain is attached to random *integer upper breaks* and
pushed through the inverse Herbrand transform, which lands on integer lower
breaks; arbitrary integer lower breaks would not satisfy the integrality
theorem (already C4 > C2 > 1 with lower breaks 1, 2 has a fractional jump),
realizable chains obey congruences that this construction bakes in.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from . import groups as gp
from .exactnum import Cyclotomic
from .filtered import BreakChain, LowerChain, lower_from_upper
from .newton import SlopeMultiset
from .reptheory import MatrixRep, rep_from_generator_images
from .robba import RankOneOperator


# -- slope multisets -----------------------------------------------------------


def random_slope_multiset(rng: random.Random) -> SlopeMultiset:
    pairs = []
    for _ in range(rng.randrange(5)):  # at most 4 slopes
        slope = Fraction(rng.randrange(0, 12), rng.randrange(1, 7))
        pairs.append((slope, rng.randrange(1, 5)))
    return SlopeMultiset.from_pairs(pairs)


# -- abelian ramification chains -------------------------------------------------


@lru_cache(maxsize=1)
def abelian_groups_up_to_64() -> tuple[gp.FiniteGroup, ...]:
    """Shared catalog; one object per group so table caches are reused."""
    out = [gp.cyclic_group(n) for n in (2, 3, 4, 6, 8, 9, 12, 16, 25, 27, 32, 48, 64)]
    out += [
        gp.elementary_abelian_group(2, 2),
        gp.elementary_abelian_group(2, 4),
        gp.elementary_abelian_group(2, 6),
        gp.elementary_abelian_group(3, 2),
        gp.elementary_abelian_group(3, 3),
        gp.elementary_abelian_group(5, 2),
        gp.elementary_abelian_group(7, 2),
    ]
    return tuple(out)


def _random_descending_subgroups(G: gp.FiniteGroup,
                                 rng: random.Random) -> list[gp.Subgroup]:
    """Strictly descending non-trivial subgroups from G itself, at most 3."""
    chain = [G.full_subgroup()]
    current = chain[0]
    for _ in range(rng.randrange(0, 3)):
        if current.order <= 2:
            break
        for _attempt in range(12):
            k = rng.randrange(1, min(4, current.order))
            gens = [current.elements[rng.randrange(current.order)] for _ in range(k)]
            sub = gp.generated_subgroup(G, gens)
            if 1 < sub.order < current.order and sub.element_set < current.element_set:
                chain.append(sub)
                current = sub
                break
        else:
            break
    return chain


def random_realizable_abelian_lower_chain(seed: int) -> LowerChain:
    """A lower chain on an abelian group whose upper breaks are integers."""
    rng = random.Random(seed)
    G = rng.choice(abelian_groups_up_to_64())
    subs = _random_descending_subgroups(G, rng)
    breaks = []
    b = 0
    for _ in subs:
        b += rng.randrange(1, 4)
        breaks.append(Fraction(b))
    upper = BreakChain(G, tuple(breaks), tuple(subs))
    return lower_from_upper(upper)


def abelian_chain_corpus(count: int = 20, seed: int = 2024) -> list[LowerChain]:
    return [random_realizable_abelian_lower_chain(seed * 1000 + i)
            for i in range(count)]


# -- filtered groups with fractional breaks ---------------------------------------


def _fraction_pool(rng: random.Random, k: int) -> list[Fraction]:
    pool = sorted({Fraction(rng.randrange(1, 9), rng.choice([1, 2, 2, 3, 4, 6]))
                   for _ in range(3 * k)})
    while len(pool) < k:
        pool.append((pool[-1] if pool else Fraction(0)) + 1)
    return pool[:k]


@lru_cache(maxsize=1)
def _filtered_group_catalog() -> tuple[gp.FiniteGroup, ...]:
    return tuple(
        [gp.cyclic_group(n) for n in (2, 3, 4, 6, 8, 9, 10, 12)]
        + [gp.symmetric_group(3), gp.dihedral_group(4), gp.dihedral_group(5),
           gp.dihedral_group(6), gp.quaternion_group(), gp.alternating_group(4),
           gp.heisenberg_group(3), gp.elementary_abelian_group(2, 2),
           gp.elementary_abelian_group(2, 3)]
    )


def filtered_group_corpus(count: int = 15, seed: int = 7177) -> list[BreakChain]:
    """Break chains on small groups, fractional and integer breaks mixed.

    Always includes the order-6 cyclic instance exhibiting the equal-slope
    drop (slope 1 tensor slope 1 landing at slope 1/2).
    """
    rng = random.Random(seed)
    C6 = gp.cyclic_group(6)
    c2 = gp.generated_subgroup(C6, [C6.power(1, 3)])
    chains = [BreakChain(C6, (Fraction(1, 2), Fraction(1)),
                         (C6.full_subgroup(), c2))]
    catalog = _filtered_group_catalog()
    while len(chains) < count:
        G = rng.choice(catalog)
        normals = [N for N in gp.normal_subgroups(G) if N.order > 1]
        normals.sort(key=lambda S: -S.order)
        subs = []
        for N in normals:
            if not subs or N.element_set < subs[-1].element_set:
                if rng.random() < 0.7:
                    subs.append(N)
            if len(subs) >= 3:
                break
        if not subs:
            continue
        breaks = _fraction_pool(rng, len(subs))
        chains.append(BreakChain(G, tuple(breaks), tuple(subs)))
    return chains


# -- induction corpora -------------------------------------------------------------


def _subgroup_by_order(G, order, predicate=lambda S: True) -> gp.Subgroup:
    from itertools import combinations

    for k in (1, 2):
        for gens in combinations(range(1, G.order), k):
            S = gp.generated_subgroup(G, list(gens))
            if S.order == order and predicate(S):
                return S
    raise LookupError(f"no subgroup of order {order} in {G.name}")


def mackey_pair_corpus() -> list[tuple[gp.FiniteGroup, gp.Subgroup]]:
    """(G, normal H) pairs with |G| <= 48 covering indexes 2, 3, 4."""
    pairs = []
    S3 = gp.symmetric_group(3)
    pairs.append((S3, _subgroup_by_order(S3, 3)))
    pairs.append((S3, S3.full_subgroup()))
    C4 = gp.cyclic_group(4)
    pairs.append((C4, _subgroup_by_order(C4, 2)))
    C6 = gp.cyclic_group(6)
    pairs.append((C6, _subgroup_by_order(C6, 3)))
    pairs.append((C6, _subgroup_by_order(C6, 2)))
    D4 = gp.dihedral_group(4)
    for N in gp.normal_subgroups(D4):
        if N.order in (2, 4):
            pairs.append((D4, N))
    Q8 = gp.quaternion_group()
    pairs.append((Q8, _subgroup_by_order(Q8, 4)))
    A4 = gp.alternating_group(4)
    pairs.append((A4, _subgroup_by_order(A4, 4, lambda S: S.is_normal())))
    D6 = gp.dihedral_group(6)
    for N in gp.normal_subgroups(D6):
        if N.order == 6:
            pairs.append((D6, N))
    S4 = gp.symmetric_group(4)
    pairs.append((S4, _subgroup_by_order(S4, 12, lambda S: S.is_normal())))
    return pairs


def tensor_induction_corpus() -> list[tuple[gp.Subgroup, MatrixRep]]:
    """(H <= G, matrix rep of H) with |G| <= 16 and rep dimension <= 2.

    Degree-one representations are built from character values; the
    two-dimensional ones from standard generator images.
    """
    out = []
    one = Cyclotomic.rational(1)

    def add_linear(H, *values_for_gens):
        Hg = H.as_group
        mats = [[[Cyclotomic.coerce(v)]] for v in values_for_gens]
        out.append((H, rep_from_generator_images(Hg, Hg.generators, mats)))

    C4 = gp.cyclic_group(4)
    add_linear(_subgroup_by_order(C4, 2), Cyclotomic.rational(-1))
    add_linear(C4.full_subgroup(), Cyclotomic.zeta(4))
    C6 = gp.cyclic_group(6)
    add_linear(_subgroup_by_order(C6, 3), Cyclotomic.zeta(3))
    add_linear(_subgroup_by_order(C6, 2), Cyclotomic.rational(-1))
    C8 = gp.cyclic_group(8)
    add_linear(_subgroup_by_order(C8, 4), Cyclotomic.zeta(4))
    C9 = gp.cyclic_group(9)
    add_linear(_subgroup_by_order(C9, 3), Cyclotomic.zeta(3))
    S3 = gp.symmetric_group(3)
    A3 = _subgroup_by_order(S3, 3)
    add_linear(A3, Cyclotomic.zeta(3))
    C12 = gp.cyclic_group(12)
    add_linear(_subgroup_by_order(C12, 4), Cyclotomic.zeta(4))
    V4 = gp.elementary_abelian_group(2, 2)
    add_linear(gp.generated_subgroup(V4, [V4.index[(1, 0)]]),
               Cyclotomic.rational(-1))

    # two-dimensional: dihedral rotation/flip images inside C2 x D4
    i4 = Cyclotomic.zeta(4)
    zero = Cyclotomic.rational(0)
    mone = Cyclotomic.rational(-1)
    D4 = gp.dihedral_group(4)
    G16 = gp.direct_product(gp.cyclic_group(2), D4)
    d4_inside = gp.generated_subgroup(
        G16, [G16.index[(0, g)] for g in D4.generators]
    )
    Hg = d4_inside.as_group
    # rotation -> [[i,0],[0,-i]], flip -> [[0,1],[1,0]]
    imgs = []
    for gidx in Hg.generators:
        if Hg.element_order(gidx) == 4:
            imgs.append(((i4, zero), (zero, -i4)))
        else:
            imgs.append(((zero, one), (one, zero)))
    out.append((d4_inside, rep_from_generator_images(Hg, Hg.generators, imgs)))

    # quaternion 2-dim inside C2 x Q8
    Q8 = gp.quaternion_group()
    G16q = gp.direct_product(gp.cyclic_group(2), Q8)
    q_inside = gp.generated_subgroup(
        G16q, [G16q.index[(0, g)] for g in Q8.generators]
    )
    Hq = q_inside.as_group
    imgs = []
    for gidx in Hq.generators:
        _, q_idx = G16q.elements[Hq.elements[gidx]]
        if Q8.elements[q_idx] == (1, 0):    # x: order 4
            imgs.append(((i4, zero), (zero, -i4)))
        elif Q8.elements[q_idx] == (0, 1):  # y
            imgs.append(((zero, one), (mone, zero)))
        else:
            raise AssertionError("unexpected generator")
    out.append((q_inside, rep_from_generator_images(Hq, Hq.generators, imgs)))

    # H = G edge case: S3 as subgroup of itself with the 2-dim irreducible
    w = Cyclotomic.zeta(3)
    s3_full = S3.full_subgroup()
    Hs = s3_full.as_group
    imgs = []
    for gidx in Hs.generators:
        if Hs.element_order(gidx) == 3:
            imgs.append(((w, zero), (zero, w * w)))
        else:
            imgs.append(((zero, one), (one, zero)))
    out.append((s3_full, rep_from_generator_images(Hs, Hs.generators, imgs)))
    return out


# -- group zoo for dimension statistics ---------------------------------------------


@lru_cache(maxsize=1)
def group_zoo_up_to_100() -> tuple[gp.FiniteGroup, ...]:
    """At least 25 groups of order <= 100 with the required named members."""
    zoo = [
        gp.cyclic_group(2), gp.cyclic_group(3), gp.cyclic_group(5),
        gp.cyclic_group(8), gp.cyclic_group(12), gp.cyclic_group(30),
        gp.elementary_abelian_group(2, 2), gp.elementary_abelian_group(2, 3),
        gp.elementary_abelian_group(3, 2),
        gp.direct_product(gp.cyclic_group(2), gp.cyclic_group(4)),
        gp.direct_product(gp.cyclic_group(4), gp.cyclic_group(4)),
        gp.symmetric_group(3), gp.symmetric_group(4),
        gp.alternating_group(4), gp.alternating_group(5),
        gp.dihedral_group(4), gp.dihedral_group(5), gp.dihedral_group(6),
        gp.dihedral_group(7), gp.dihedral_group(10),
        gp.quaternion_group(),
        gp.heisenberg_group(3),
        gp.extraspecial_exponent_p2_group(3),
        gp.direct_product(gp.cyclic_group(2), gp.symmetric_group(3)),
        gp.direct_product(gp.cyclic_group(3), gp.symmetric_group(3)),
        gp.direct_product(gp.cyclic_group(2), gp.quaternion_group()),
        gp.direct_product(gp.symmetric_group(3), gp.symmetric_group(3)),
        gp.wreath_cyclic(gp.cyclic_group(3), 2).group(),
        gp.wreath_cyclic(gp.cyclic_group(2), 3).group(),
    ]
    assert all(G.order <= 100 for G in zoo)
    return tuple(zoo)


# -- rank-one operator corpus ---------------------------------------------------------


def random_rank_one_operator(rng: random.Random, p: int) -> RankOneOperator:
    coeffs = []
    length = rng.randrange(1, 6)
    for _ in range(length):
        if rng.random() < 0.3:
            coeffs.append(Fraction(0))
            continue
        num = rng.randrange(-24, 25)
        den = rng.choice([d for d in range(1, 10) if d % p])
        coeffs.append(Fraction(num, den))
    return RankOneOperator.make(p, coeffs)


def rank_one_corpus(count: int = 50, seed: int = 4099) -> list[RankOneOperator]:
    rng = random.Random(seed)
    ops = [RankOneOperator.make(2, [0, 1])]  # forces the p = 2 threshold case
    primes = [2, 3, 5]
    while len(ops) < count:
        ops.append(random_rank_one_operator(rng, primes[len(ops) % 3]))
    return ops


# -- predicate corpora ------------------------------------------------------------------


def prime_power_chain_corpus() -> list[tuple[BreakChain, int]]:
    """Chains whose wild subgroup is a p-group, paired with p."""
    out = []
    Q8 = gp.quaternion_group()
    out.append((BreakChain(Q8, (Fraction(1, 2),), (Q8.full_subgroup(),)), 2))
    zq = gp.generated_subgroup(Q8, [Q8.index[(2, 0)]])
    out.append((BreakChain(Q8, (Fraction(1, 2),), (zq,)), 2))
    D4 = gp.dihedral_group(4)
    out.append((BreakChain(D4, (Fraction(1, 2),), (D4.full_subgroup(),)), 2))
    H27 = gp.heisenberg_group(3)
    zh = gp.generated_subgroup(H27, [H27.index[(0, 0, 1)]])
    out.append((BreakChain(H27, (Fraction(1, 3),), (H27.full_subgroup(),)), 3))
    out.append((BreakChain(H27, (Fraction(1, 3),), (zh,)), 3))
    ES = gp.extraspecial_exponent_p2_group(3)
    out.append((BreakChain(ES, (Fraction(2, 3),), (ES.full_subgroup(),)), 3))
    S4 = gp.symmetric_group(4)
    v4 = next(N for N in gp.normal_subgroups(S4) if N.order == 4)
    out.append((BreakChain(S4, (Fraction(1, 2),), (v4,)), 2))
    return out


def fractional_break_chain_corpus() -> list[BreakChain]:
    """Chains with only fractional breaks for the slope-zero existence check."""
    out = []
    Q8 = gp.quaternion_group()
    zq = gp.generated_subgroup(Q8, [Q8.index[(2, 0)]])
    out.append(BreakChain(Q8, (Fraction(1, 2),), (zq,)))
    out.append(BreakChain(Q8, (Fraction(1, 2), Fraction(3, 4)),
                          (Q8.full_subgroup(), zq)))
    H27 = gp.heisenberg_group(3)
    zh = gp.generated_subgroup(H27, [H27.index[(0, 0, 1)]])
    out.append(BreakChain(H27, (Fraction(1, 3),), (zh,)))
    D4 = gp.dihedral_group(4)
    zd = next(N for N in gp.normal_subgroups(D4) if N.order == 2)
    out.append(BreakChain(D4, (Fraction(1, 2),), (zd,)))
    ES = gp.extraspecial_exponent_p2_group(3)
    zes = next(N for N in gp.normal_subgroups(ES) if N.order == 3)
    out.append(BreakChain(ES, (Fraction(2, 3),), (zes,)))
    # hypothesis-failing instances stay vacuously true
    C2 = gp.cyclic_group(2)
    out.append(BreakChain(C2, (Fraction(1),), (C2.full_subgroup(),)))
    S3 = gp.symmetric_group(3)
    a3 = next(N for N in gp.normal_subgroups(S3) if N.order == 3)
    out.append(BreakChain(S3, (Fraction(1, 2),), (a3,)))
    return out
