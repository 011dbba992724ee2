"""Named verification suites over the seeded corpora.

Each suite runs one batch of property checks and returns its detail line, or
raises SuiteFailure at the first violated property.  `SUITES` gives each suite
its time budget; `run_suite` times a run and builds its SuiteResult, and
`run_suites` drives them sequentially or across a process pool.  All checks
are exact.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from operator import add, mul

from . import corpus
from . import groups as gp
from .filtered import (graded_pieces_disjoint, hasse_arf_check,
                       prime_power_dim_check, slope_decomposition,
                       slope_zero_existence_check, swan_conductor,
                       swan_lower_oracle, tensor_bound_check, upper_from_lower)
from .newton import polygon_from_slopes
from .reptheory import (character_table, conjugate_character, induce,
                        induced_matrix_rep, irreducible_dims_gcd, mackey_check,
                        restrict, tensor_induce, tensor_induced_matrix_rep,
                        tind_summand_check)
from .robba import (RankOneOperator, character_order, is_tame,
                    kummer_pullback, p_power_reduce, reduce as robba_reduce,
                    residue, slope as robba_slope, tensor as robba_tensor)
from .weyl import build_root_system, check_2m_rho, weyl_dim


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    elapsed: float
    time_limit: float

    @property
    def within_time(self) -> bool:
        return self.elapsed < self.time_limit

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail} ({self.elapsed:.2f}s / limit {self.time_limit:.0f}s)"


class SuiteFailure(Exception):
    """A violated property; the message is the suite's detail line."""


# -- 1: Weyl dimension identity --------------------------------------------------


def suite_weyl(seed: int = 0) -> str:
    cases = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2)]
    checked = 0
    for family, rank in cases:
        rs = build_root_system(family, rank)
        for m in (1, 2, 3):
            if not check_2m_rho(rs, m):
                raise SuiteFailure(f"{family}{rank} m={m}")
            checked += 1
    a2 = build_root_system("A", 2)
    if weyl_dim(a2, a2.rho_multiple(2)) != 27:
        raise SuiteFailure("A2 spot value")
    g2 = build_root_system("G", 2)
    if weyl_dim(g2, g2.rho_multiple(4)) != 15625:
        raise SuiteFailure("G2 spot value")
    return f"{checked} family/m pairs + 2 spot values"


# -- 2 and 3: abelian chains: integrality and the Swan oracle ---------------------


def suite_hasse_arf(seed: int = 2024) -> str:
    chains = corpus.abelian_chain_corpus(seed)
    pairs = 0
    for lc in chains:
        bc = upper_from_lower(lc)
        table = character_table(lc.group)
        for chi in table.irreducibles:
            sw = swan_conductor(bc, chi)
            if sw.denominator != 1:
                raise SuiteFailure(f"{lc.group.name}: fractional Swan {sw}")
            if not hasse_arf_check(bc, chi):
                raise SuiteFailure(f"{lc.group.name}: non-integral polygon")
            pairs += 1
    return f"{len(chains)} chains, {pairs} integral Swans"


def suite_swan_oracle(seed: int = 2024) -> str:
    chains = corpus.abelian_chain_corpus(seed)
    pairs = 0
    for lc in chains:
        bc = upper_from_lower(lc)
        table = character_table(lc.group)
        for chi in table.irreducibles:
            if swan_conductor(bc, chi) != swan_lower_oracle(lc, chi):
                raise SuiteFailure(f"{lc.group.name}: oracle mismatch")
            pairs += 1
    return f"{pairs} (chain, irreducible) pairs agree"


# -- 4: Mackey identity and restriction formulas -----------------------------------


def suite_mackey(seed: int = 11) -> str:
    rng = random.Random(seed)
    pairs = corpus.mackey_pair_corpus()
    count = 0
    for G, H in pairs:
        tH = character_table(H.as_group)
        irr = list(tH.irreducibles)
        for _ in range(2):
            V = rng.choice(irr)
            W = rng.choice(irr)
            ok, witness = mackey_check(V, W, H)
            if not ok:
                raise SuiteFailure(f"{G.name}/{H.order}: {witness}")
            count += 1
        transversal = gp.CosetAction(H).transversal
        for chi in irr:
            conjugates = [conjugate_character(chi, H, gamma)
                          for gamma in transversal]
            if restrict(induce(chi, H), H) != reduce(add, conjugates):
                raise SuiteFailure(f"{G.name}: additive restriction formula")
            if restrict(tensor_induce(chi, H), H) != reduce(mul, conjugates):
                raise SuiteFailure(f"{G.name}: multiplicative restriction formula")
            count += 1
    return f"{len(pairs)} normal pairs, {count} identities"


# -- 5: tensor induction against the matrix oracle ---------------------------------


def suite_tensor_induction(seed: int = 0) -> str:
    cases = corpus.tensor_induction_corpus()
    count = 0
    for H, rep in cases:
        chi = rep.character()
        ti = tensor_induce(chi, H)
        if tensor_induced_matrix_rep(rep, H).character() != ti:
            raise SuiteFailure(f"{H.parent.name}: trace oracle mismatch")
        n = H.parent.order // H.order
        if int(ti.degree) != int(chi.degree) ** n:
            raise SuiteFailure(f"{H.parent.name}: degree law")
        if rep.dimension * n <= 8:
            if induced_matrix_rep(rep, H).character() != induce(chi, H):
                raise SuiteFailure(f"{H.parent.name}: induced trace oracle")
        if not tind_summand_check(chi, H):
            raise SuiteFailure(f"{H.parent.name}: summand check")
        count += 1
    return f"{count} (G, H, rep) triples"


# -- 6: Newton polygon additivity ----------------------------------------------------


def suite_newton_additivity(seed: int = 31337) -> str:
    rng = random.Random(seed)
    for i in range(100):
        a = corpus.random_slope_multiset(rng)
        b = corpus.random_slope_multiset(rng)
        pa, pb, pab = (polygon_from_slopes(x) for x in (a, b, a + b))
        if pab.height != pa.height + pb.height:
            raise SuiteFailure(f"height additivity case {i}")
        if pab.vertices[-1][0] != pa.vertices[-1][0] + pb.vertices[-1][0]:
            raise SuiteFailure(f"width additivity case {i}")
        # monoid sum of polygons: slopes with multiplicity merge
        merged = {}
        for s, m in list(a.entries) + list(b.entries):
            merged[s] = merged.get(s, 0) + m
        if dict((s, m) for s, m in (a + b).entries) != merged:
            raise SuiteFailure(f"merge case {i}")
        # duality holds trivially: rebuilding from the same data is invariant
        if polygon_from_slopes(a) != pa:
            raise SuiteFailure(f"dual invariance case {i}")
        if a + b != b + a:
            raise SuiteFailure(f"commutativity case {i}")
    return "100 random multiset pairs"


# -- 7: slope filtration realization ---------------------------------------------------


def suite_filtration(seed: int = 7177) -> str:
    chains = corpus.filtered_group_corpus(count=15, seed=seed)
    drop_seen = False
    checked = 0
    for chain in chains:
        G = chain.group
        table = character_table(G)
        slopes = {}
        for chi in table.irreducibles:
            dec = slope_decomposition(chain, chi)
            if len(dec.entries) != 1:
                raise SuiteFailure(f"{G.name}: irreducible with several slopes")
            if dec.total_dimension != int(chi.degree):
                raise SuiteFailure(f"{G.name}: multiplicity sum")
            slopes[chi] = dec.entries[0][0]
        for chi in table.irreducibles:
            if not graded_pieces_disjoint(chain, chi, table):
                raise SuiteFailure(f"{G.name}: graded pieces overlap")
        irr = table.irreducibles
        if not graded_pieces_disjoint(chain, sum(irr[1:], irr[0]), table):
            raise SuiteFailure(f"{G.name}: graded pieces of the regular sum")
        for chi in table.irreducibles:
            for psi in table.irreducibles:
                if not tensor_bound_check(chain, chi, psi):
                    raise SuiteFailure(f"{G.name}: tensor bound")
                checked += 1
                if slopes[chi] == slopes[psi] > 0:
                    prod_dec = slope_decomposition(chain, chi * psi)
                    if any(s < slopes[chi] for s, _ in prod_dec.entries):
                        drop_seen = True
    if not drop_seen:
        raise SuiteFailure("no equal-slope drop instance found")
    return f"{len(chains)} chains, {checked} tensor pairs, drop seen"


# -- 8: Kummer scaling -------------------------------------------------------------------


def suite_kummer(seed: int = 7177) -> str:
    chains = corpus.filtered_group_corpus(count=8, seed=seed)
    rng = random.Random(seed)
    checked = 0
    for chain in chains:
        table = character_table(chain.group)
        for chi in table.irreducibles:
            for n in (1, 2, 3, 4, 5):
                scaled = chain.scaled(n)
                if swan_conductor(scaled, chi) != n * swan_conductor(chain, chi):
                    raise SuiteFailure(f"{chain.group.name}: swan scaling n={n}")
                if slope_decomposition(scaled, chi) != slope_decomposition(chain, chi).scale(n):
                    raise SuiteFailure(f"{chain.group.name}: decomposition scaling")
                checked += 1
    for _ in range(50):
        ms = corpus.random_slope_multiset(rng)
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        if ms.scale(m * n) != ms.scale(n).scale(m):
            raise SuiteFailure("scale functoriality")
    return f"{checked} swan scalings + 50 functoriality cases"


# -- 9: rank-one operators ---------------------------------------------------------------


def _p_power_brute(op: RankOneOperator) -> int:
    current = op
    for k in range(40):
        if is_tame(current):
            return k
        scaled = current
        for _ in range(op.p - 1):
            scaled = robba_tensor(scaled, current)
        current = scaled
    raise AssertionError("brute-force p-power search exceeded 40 steps")


def suite_robba(seed: int = 4099) -> str:
    ops = corpus.rank_one_corpus(seed)
    for op in ops:
        red = robba_reduce(op)
        if robba_reduce(red) != red:
            raise SuiteFailure("reduce not idempotent")
        if robba_slope(op) != robba_slope(red):
            raise SuiteFailure("slope changed by reduction")
        if robba_slope(red) != Fraction(max(0, red.pole_order - 1)):
            raise SuiteFailure("slope is not pole order - 1")
        n_min, tame_res = p_power_reduce(op)
        if n_min != _p_power_brute(op):
            raise SuiteFailure(f"p-power minimality p={op.p}")
        if tame_res != (op.p**n_min * op.coefficient(1)) % 1:
            raise SuiteFailure("p-power residue")
        for n in (1, 2, 3, 4, 5):
            pulled = kummer_pullback(op, n)
            if robba_slope(pulled) != n * robba_slope(op):
                raise SuiteFailure(f"pullback slope n={n}")
            if residue(pulled) != (n * op.coefficient(1)) % 1:
                raise SuiteFailure(f"pullback residue n={n}")
        if is_tame(op):
            m = character_order(op)
            if m < 1 or (m * robba_reduce(op).coefficient(1)).denominator != 1:
                raise SuiteFailure("character order not finite")
    special = RankOneOperator.make(2, [0, 1])
    if p_power_reduce(special)[0] != 2:
        raise SuiteFailure("p=2 threshold case")
    return f"{len(ops)} operators over p in (2,3,5)"


# -- 10: wreath classification --------------------------------------------------------------


def suite_wreath_classification(seed: int = 0) -> str:
    A5 = gp.alternating_group(5)
    W = gp.wreath_cyclic(A5, 2)
    G = W.group()
    report = gp.classify_wreath_subgroup(W, G)
    if report.case != "full_wreath" or not report.trichotomy_ok:
        raise SuiteFailure("order-7200 full wreath classification")
    if report.normal_subgroup_orders != (1, 3600, 7200):
        raise SuiteFailure(f"normal orders {report.normal_subgroup_orders}")
    if not report.chain_bound_ok:
        raise SuiteFailure("normal chain bound")

    # brute force against subspace enumeration for prime cyclic bases
    for q in (3, 5, 7):
        H = gp.cyclic_group(q)
        for ell in (2, 3):
            agree = _goursat_brute_force_agrees(H, q, ell)
            if not agree:
                raise SuiteFailure(f"goursat brute force q={q} ell={ell}")

    # semidirect case with ell = 3 not dividing |Out(A5)| = 2
    if gp.outer_automorphism_order(A5) != 2:
        raise SuiteFailure("outer automorphism count of A5")
    W3 = gp.wreath_cyclic(A5, 3)
    gens3 = [W3.top_element((1, 2, 0))]
    gens3 += [W3.base_element((g, g, g)) for g in A5.generators]
    Gbar3 = W3.subgroup_from_raw(gens3, name="diag3")
    rep3 = gp.classify_wreath_subgroup(W3, Gbar3)
    if rep3.case != "semidirect" or rep3.direct_product is not True:
        raise SuiteFailure("direct product detection")
    if not rep3.chain_bound_ok:
        raise SuiteFailure("semidirect chain bound")
    return "7200-group trichotomy, brute-force goursat, direct product"


def _all_subspaces(q: int, ell: int) -> list[frozenset]:
    """Every subgroup of (C_q)^ell, enumerated through reduced echelon bases."""
    from itertools import combinations, product as iter_product

    spaces = [frozenset({(0,) * ell})]
    for rank in range(1, ell + 1):
        for pivots in combinations(range(ell), rank):
            free_positions = [
                (i, j)
                for i in range(rank)
                for j in range(ell)
                if j > pivots[i] and j not in pivots
            ]
            for assignment in iter_product(range(q), repeat=len(free_positions)):
                rows = [[0] * ell for _ in range(rank)]
                for i in range(rank):
                    rows[i][pivots[i]] = 1
                for (i, j), val in zip(free_positions, assignment):
                    rows[i][j] = val
                span = set()
                for coeffs in iter_product(range(q), repeat=rank):
                    vec = [0] * ell
                    for c, row in zip(coeffs, rows):
                        for j in range(ell):
                            vec[j] = (vec[j] + c * row[j]) % q
                    span.add(tuple(vec))
                spaces.append(frozenset(span))
    return spaces


def _goursat_brute_force_agrees(H: gp.FiniteGroup, q: int, ell: int) -> bool:
    # vector entries are powers of the generator: entry a is gen^a
    walk = H.powers(H.generators[0])
    for S in _all_subspaces(q, ell):
        tuples = [tuple([walk[a] for a in v]) for v in S]
        tset = set(tuples)
        shifted = {t[1:] + t[:1] for t in tset}
        if shifted != tset:
            continue
        if {t[0] for t in tset} != set(range(q)):
            continue
        try:
            result = gp.goursat_classify(tuples, H, ell)
        except gp.GoursatDichotomyError:
            # correct refusal exactly when the subgroup is neither full nor
            # a graph (abelian base, ell > 2: e.g. the sum-zero hyperplane)
            if len(tset) in (q, q**ell):
                return False
            continue
        if result.full != (len(tset) == q**ell):
            return False
        if not result.full:
            if len(tset) != q:
                return False
            rebuilt = {
                tuple([h] + [phi[h] for phi in result.automorphisms])
                for h in range(q)
            }
            if rebuilt != tset:
                return False
    return True


# -- 11: irreducible dimension statistics ------------------------------------------------------


def suite_dimension_gcd(seed: int = 0) -> str:
    zoo = corpus.group_zoo_up_to_100()
    if len(zoo) < 25:
        raise SuiteFailure("corpus too small")
    for G in zoo:
        table = character_table(G)
        degs = table.degrees
        if sum(d * d for d in degs) != G.order:
            raise SuiteFailure(f"{G.name}: degree squares")
        if any(G.order % d for d in degs):
            raise SuiteFailure(f"{G.name}: degree divisibility")
        if irreducible_dims_gcd(G) != 1:
            raise SuiteFailure(f"{G.name}: gcd")
    return f"{len(zoo)} groups of order <= 100"


# -- 12: structural predicates --------------------------------------------------------------------


def suite_predicates(seed: int = 0) -> str:
    count = 0
    for chain, p in corpus.prime_power_chain_corpus():
        table = character_table(chain.group)
        for chi in table.irreducibles:
            if not prime_power_dim_check(chain, chi, p):
                raise SuiteFailure(f"{chain.group.name}: p-power dimension")
            count += 1
    for chain in corpus.fractional_break_chain_corpus():
        table = character_table(chain.group)
        if not slope_zero_existence_check(chain, table):
            raise SuiteFailure(f"{chain.group.name}: slope-zero existence")
        count += 1
    return f"{count} predicate instances"


# name: (suite, time budget in seconds).  The budgets are gates: never loosen them.
SUITES = {
    "weyl-dimension": (suite_weyl, 1.0),
    "hasse-arf-integrality": (suite_hasse_arf, 10.0),
    "swan-oracle": (suite_swan_oracle, 10.0),
    "mackey-decomposition": (suite_mackey, 30.0),
    "tensor-induction-oracle": (suite_tensor_induction, 30.0),
    "newton-additivity": (suite_newton_additivity, 1.0),
    "filtration-realization": (suite_filtration, 30.0),
    "kummer-scaling": (suite_kummer, 5.0),
    "rank-one-operators": (suite_robba, 5.0),
    "wreath-classification": (suite_wreath_classification, 60.0),
    "dimension-gcd": (suite_dimension_gcd, 60.0),
    "structural-predicates": (suite_predicates, 30.0),
}


def run_suite(name: str, seed: int | None = None) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    fn, limit = SUITES[name]
    t0 = time.perf_counter()
    try:
        detail = fn() if seed is None else fn(seed)
        passed = True
    except SuiteFailure as exc:
        detail, passed = str(exc), False
    return SuiteResult(name, passed, detail, time.perf_counter() - t0, limit)


def run_suites(names=None, jobs: int = 1,
               seed: int | None = None) -> list[SuiteResult]:
    """Run suites by name; a non-None seed reseeds every corpus uniformly.

    At most one worker process runs per suite, whatever `jobs` asks for.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    names = list(names) if names else list(SUITES)
    jobs = min(jobs, len(names))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(partial(run_suite, seed=seed), names))
    return [run_suite(n, seed) for n in names]
