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
        for _ in range(12):
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


def abelian_chain_corpus(seed: int) -> list[LowerChain]:
    """Twenty realizable abelian lower chains."""
    return [random_realizable_abelian_lower_chain(seed * 1000 + i)
            for i in range(20)]


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

    def add(H, image):
        """H with the representation that sends each generator g of
        Hg = H.as_group to the matrix image(Hg, g)."""
        Hg = H.as_group
        mats = [image(Hg, g) for g in Hg.generators]
        out.append((H, rep_from_generator_images(Hg, Hg.generators, mats)))

    def linear(value):
        return lambda Hg, g: [[value]]

    C4 = gp.cyclic_group(4)
    add(_subgroup_by_order(C4, 2), linear(Cyclotomic.rational(-1)))
    add(C4.full_subgroup(), linear(Cyclotomic.zeta(4)))
    C6 = gp.cyclic_group(6)
    add(_subgroup_by_order(C6, 3), linear(Cyclotomic.zeta(3)))
    add(_subgroup_by_order(C6, 2), linear(Cyclotomic.rational(-1)))
    C8 = gp.cyclic_group(8)
    add(_subgroup_by_order(C8, 4), linear(Cyclotomic.zeta(4)))
    C9 = gp.cyclic_group(9)
    add(_subgroup_by_order(C9, 3), linear(Cyclotomic.zeta(3)))
    S3 = gp.symmetric_group(3)
    add(_subgroup_by_order(S3, 3), linear(Cyclotomic.zeta(3)))
    C12 = gp.cyclic_group(12)
    add(_subgroup_by_order(C12, 4), linear(Cyclotomic.zeta(4)))
    V4 = gp.elementary_abelian_group(2, 2)
    add(gp.generated_subgroup(V4, [V4.index[(1, 0)]]),
        linear(Cyclotomic.rational(-1)))

    # two-dimensional, each generator's image chosen by its order
    i4, w = Cyclotomic.zeta(4), Cyclotomic.zeta(3)
    rotation, flip = ((i4, 0), (0, -i4)), ((0, 1), (1, 0))

    def by_order(images):
        return lambda Hg, g: images[Hg.element_order(g)]

    def inside_c2_times(K):
        """K as the subgroup 1 x K of C2 x K."""
        G = gp.direct_product(gp.cyclic_group(2), K)
        return gp.generated_subgroup(G, [G.index[(0, g)] for g in K.generators])

    # dihedral rotation/flip inside C2 x D4
    add(inside_c2_times(gp.dihedral_group(4)), by_order({4: rotation, 2: flip}))
    # quaternion x, y inside C2 x Q8, both of order 4, told apart in Q8
    Q8 = gp.quaternion_group()
    q_inside = inside_c2_times(Q8)
    q_images = {Q8.index[(1, 0)]: rotation, Q8.index[(0, 1)]: ((0, 1), (-1, 0))}
    add(q_inside, lambda Hg, g:
        q_images[q_inside.parent.elements[Hg.elements[g]][1]])
    # H = G edge case: S3 as subgroup of itself with the 2-dim irreducible
    add(S3.full_subgroup(), by_order({3: ((w, 0), (0, w * w)), 2: flip}))
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


def rank_one_corpus(seed: int) -> list[RankOneOperator]:
    """Fifty rank-one operators over p = 2, 3 and 5."""
    rng = random.Random(seed)
    ops = [RankOneOperator.make(2, [0, 1])]  # forces the p = 2 threshold case
    primes = [2, 3, 5]
    while len(ops) < 50:
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
