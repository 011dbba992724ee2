"""The benchmark's three workloads, their seeded inputs and their checks.

Each workload is built by ``setup(seed, workdir)`` into a list of operations.
An operation is a callable timed on its own plus a check of its result; a
pass runs the whole list once, in order, one operation at a time (a closed
loop with a single client).  Inputs come from the seed alone: the seed
relabels permutation generators, draws chains, characters and payloads, and
shuffles the order, but never changes how many operations of each kind a
pass holds, so the cost of a pass barely depends on the seed.

The program is always reached through module attributes (``gp.normal_subgroups``
and not a name imported from it), so that the tracer's wrappers see the call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from slopeforge import cli
from slopeforge import filtered as fl
from slopeforge import groups as gp
from slopeforge import reptheory as rt

CATALOGUE_PATH = Path(__file__).with_name("malformed.json")


@dataclass
class Op:
    """One timed call and the check of what it returned.

    ``check(result, tally)`` returns whether the result is right; it may add
    counts to ``tally`` (a Counter) for the per-layer report.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any, Counter], bool]


@dataclass
class Workload:
    ops: list[Op]
    inputs: Any  # plain data describing every generated input
    probe: list[Op] = field(default_factory=list)  # known-defect requests


@dataclass
class PassResult:
    latencies: list[float]
    failed: int
    tally: Counter


def run_pass(ops: list[Op], tracer=None, between=None) -> PassResult:
    """Run each operation once; a raise or a failed check counts as failed.

    ``between()``, if given, is called before each operation, outside its time.
    """
    pause = tracer.paused if tracer is not None else contextlib.nullcontext
    latencies = []
    failed = 0
    tally: Counter = Counter()
    for op in ops:
        if between is not None:
            between()
        t0 = perf_counter()
        try:
            result = op.run()
            raised = False
        except Exception:
            result, raised = None, True
        latencies.append(perf_counter() - t0)
        with pause():
            try:
                ok = not raised and op.check(result, tally) is True
            except Exception:
                ok = False
        failed += not ok
    return PassResult(latencies, failed, tally)


# -- permutations, computed here so that inputs do not depend on the program --


def compose(a, b):
    """a after b, on 0-indexed image tuples."""
    return tuple(a[x] for x in b)


def relabel(perm, pi):
    """The conjugate pi . perm . pi^-1: the same action on renamed points."""
    out = [0] * len(perm)
    for i, x in enumerate(perm):
        out[pi[i]] = pi[x]
    return tuple(out)


def random_relabel(gens, rng):
    n = len(gens[0])
    pi = list(range(n))
    rng.shuffle(pi)
    return [relabel(g, pi) for g in gens]


def perm_closure(gens) -> list[tuple[int, ...]]:
    """Elements in slopeforge's canonical order: identity, then sorted."""
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return [identity] + sorted(seen - {identity})


def cycle(n):
    return tuple(list(range(1, n)) + [0])


def dihedral_gens(n):
    return [cycle(n), tuple((n - i) % n for i in range(n))]


def symmetric_gens(n):
    return [tuple([1, 0] + list(range(2, n))), cycle(n)]


def alternating_gens(n):
    three = tuple([1, 2, 0] + list(range(3, n)))
    big = cycle(n) if n % 2 else tuple([0] + list(range(2, n)) + [1])
    return [three, big]


def psl27_gens():
    """PSL(2,7) on the projective line over F_7 (point 7 is infinity)."""
    s = [0] * 8
    s[0], s[7] = 7, 0
    for x in range(1, 7):
        s[x] = (-pow(x, -1, 7)) % 7
    return [tuple([(x + 1) % 7 for x in range(7)] + [7]), tuple(s)]


def hyperoctahedral_gens(n):
    """C2 wr S_n on 2n points (signed permutations), order 2^n n!."""
    swap = [1, 0] + list(range(2, 2 * n))
    shift = [(i + 2) % (2 * n) for i in range(2 * n)]
    transp = [2, 3, 0, 1] + list(range(4, 2 * n))
    return [tuple(swap), tuple(shift), tuple(transp)]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- wreath-lattice -----------------------------------------------------------------
#
# Lattice jobs on cyclic wreath products and permutation groups of order
# 120-7200.  The order-7200 anchor A5 wr C2 dominates (its normal subgroup
# lattice), so this workload is where the group core (mul, subgroup closure,
# Subgroup validation) shows; it never touches exactnum, filtered or reptheory.

# (label, kind, generators, ell, expected normal orders or None)
#   kind "perm": G from the generators; normal_subgroups
#   kind "wreath": C_ell wr H with H from the generators; normal_subgroups
#   kind "wreath-classify": the full wreath product, classify_wreath_subgroup
#   kind "diagonal": the diagonal copy of H with the rotation, classify
#   kind "outer": outer_automorphism_order of H
LATTICE_JOBS = [
    ("A5wrC2", "wreath-classify", alternating_gens(5), 2, (1, 3600, 7200)),
    ("A5diagC3", "diagonal", alternating_gens(5), 3, None),
    ("A5out", "outer", alternating_gens(5), 0, None),
    ("C11wrC2", "wreath-classify", [cycle(11)], 2, None),
    ("C13wrC2", "wreath-classify", [cycle(13)], 2, None),
    ("C5wrC3", "wreath-classify", [cycle(5)], 3, None),
    ("S3wrC3", "wreath", symmetric_gens(3), 3, None),
    ("A4wrC2", "wreath", alternating_gens(4), 2, None),
    ("S4wrC2", "wreath", symmetric_gens(4), 2, None),
    ("S5", "perm", symmetric_gens(5), 0, (1, 60, 120)),
    ("A6", "perm", alternating_gens(6), 0, (1, 360)),
    ("S6", "perm", symmetric_gens(6), 0, (1, 360, 720)),
    ("PSL27", "perm", psl27_gens(), 0, (1, 168)),
]
NONABELIAN_SIMPLE = {"A5wrC2", "A5diagC3"}


def _check_normals(G, normals, expected) -> bool:
    orders = tuple(S.order for S in normals)
    elements = {S.elements for S in normals}
    return (all(S.is_normal() for S in normals)
            and (0,) in elements
            and tuple(range(G.order)) in elements
            and all(G.order % k == 0 for k in orders)
            and (expected is None or orders == expected))


def _check_classes(G, classes) -> bool:
    return (classes[0] == (0,)
            and sorted(x for c in classes for x in c) == list(range(G.order))
            and all(G.order % len(c) == 0 for c in classes))


def _lattice_ops(job: dict) -> list[Op]:
    label, kind, gens, ell, expected = (job["label"], job["kind"], job["gens"],
                                        job["ell"], job["expected"])
    state: dict[str, Any] = {}

    def build():
        H = gp.group_from_permutations(gens)
        if kind in ("perm", "outer"):
            state["G"] = H
            return H
        W = gp.wreath_cyclic(H, ell)
        if kind == "diagonal":
            raws = [W.top_element(gp.cyclic_rotations(ell)[1])]
            raws += [W.base_element((g,) * ell) for g in H.generators]
            G = W.subgroup_from_raw(raws)
        else:
            G = W.group()
        state.update(W=W, H=H, G=G)
        return G

    def check_build(G, tally):
        if kind == "diagonal":
            return G.order == ell * state["H"].order
        if kind in ("wreath", "wreath-classify"):
            return G.order == ell * state["H"].order ** ell
        return G.order == len(perm_closure(gens))

    ops = [Op(f"{label}:build", build, check_build)]
    if kind == "outer":
        ops.append(Op(f"{label}:outer", lambda: gp.outer_automorphism_order(state["G"]),
                      lambda n, tally: n == 2))
        return ops
    ops.append(Op(f"{label}:classes", lambda: state["G"].conjugacy_classes,
                  lambda classes, tally: _check_classes(state["G"], classes)))
    if kind in ("perm", "wreath"):
        ops.append(Op(f"{label}:normals", lambda: gp.normal_subgroups(state["G"]),
                      lambda normals, tally: _check_normals(state["G"], normals,
                                                            expected)))
        return ops

    def check_report(report, tally):
        G = state["G"]
        if not _check_normals(G, report.normal_subgroups, expected):
            return False
        if report.normal_subgroup_orders != tuple(S.order for S in report.normal_subgroups):
            return False
        if kind == "diagonal":
            return report.case == "semidirect" and report.direct_product is True
        if report.case != "full_wreath":
            return False
        if label in NONABELIAN_SIMPLE:
            return report.trichotomy_ok is True and report.chain_bound_ok is True
        return report.abelian_base is True
    ops.append(Op(f"{label}:classify",
                  lambda: gp.classify_wreath_subgroup(state["W"], state["G"]),
                  check_report))
    return ops


def setup_wreath_lattice(seed: int, workdir: Path) -> Workload:
    rng = _rng("wreath-lattice", seed)
    jobs = []
    for label, kind, gens, ell, expected in LATTICE_JOBS:
        jobs.append({"label": label, "kind": kind, "gens": random_relabel(gens, rng),
                     "ell": ell, "expected": expected})
    rng.shuffle(jobs)
    ops = [op for job in jobs for op in _lattice_ops(job)]
    return Workload(ops, jobs)


# -- swan-corpus -------------------------------------------------------------------
#
# The read path: slope decompositions, Swan conductors and their predicates on
# seeded chains, with every character table built during set-up, so that each
# lookup is a cache hit and the work sits in filtered and exactnum.  The group
# core only serves cached data here and modp/jsonio/cli are not reached.

def _abelian_catalogue():
    C = gp.cyclic_group
    E = gp.elementary_abelian_group
    return [C(4), C(6), C(8), C(9), C(10), C(12), E(2, 2), E(2, 3), E(2, 4), E(3, 2),
            gp.direct_product(C(2), C(4)), gp.direct_product(C(2), C(6))]


def _fractional_catalogue():
    return [gp.symmetric_group(3), gp.dihedral_group(4), gp.dihedral_group(5),
            gp.dihedral_group(6), gp.quaternion_group(), gp.alternating_group(4),
            gp.heisenberg_group(3), gp.cyclic_group(6), gp.cyclic_group(10),
            gp.extraspecial_exponent_p2_group(3), gp.elementary_abelian_group(2, 3),
            gp.direct_product(gp.cyclic_group(2), gp.symmetric_group(3))]


def _random_descending(G, rng, max_len=3):
    """Strictly descending non-trivial subgroups starting at G itself."""
    chain = [G.full_subgroup()]
    current = chain[0]
    for _ in range(rng.randrange(1, max_len + 1)):
        if current.order <= 2:
            break
        for _attempt in range(12):
            gens = [current.elements[rng.randrange(current.order)]
                    for _ in range(rng.randrange(1, min(4, current.order)))]
            sub = gp.generated_subgroup(G, gens)
            if 1 < sub.order < current.order and sub.element_set < current.element_set:
                chain.append(sub)
                current = sub
                break
        else:
            break
    return chain


def _expected_slope(chain, chi) -> Fraction:
    """The single slope of an irreducible: the last break whose subgroup acts
    non-trivially (a normal subgroup fixes all of V or none of it)."""
    one = chi.values[0]
    slope = Fraction(0)
    for b, H in zip(chain.breaks, chain.subgroups):
        if any(chi.value_at(h) != one for h in H.elements):
            slope = b
    return slope


TENSOR_PAIRS_PER_CHAIN = 24


def _swan_chain_ops(idx, G, upper, lower, table, rng) -> list[Op]:
    irr = table.irreducibles
    slopes = [_expected_slope(upper, chi) for chi in irr]
    ops = [Op(f"chain{idx}:table", lambda: rt.character_table(G),
              lambda t, tally: (sum(d * d for d in t.degrees) == G.order
                                and len(t.irreducibles) == len(G.conjugacy_classes)))]
    for k, chi in enumerate(irr):
        deg = int(chi.degree)
        want = slopes[k] * deg

        def swan(chi=chi):
            oracle = fl.swan_lower_oracle(lower, chi) if lower is not None else None
            return fl.swan_conductor(upper, chi), oracle, fl.hasse_arf_check(upper, chi)

        def check_swan(res, tally, want=want):
            sw, oracle, hasse_arf = res
            if lower is not None and not (oracle == sw and sw.denominator == 1):
                return False
            return sw == want and hasse_arf is (want.denominator == 1)

        def decompose(chi=chi):
            return (fl.slope_decomposition(upper, chi),
                    fl.graded_pieces_disjoint(upper, chi, table))

        def check_decompose(res, tally, k=k, deg=deg):
            dec, disjoint = res
            return dec.entries == ((slopes[k], deg),) and disjoint is True

        ops.append(Op(f"chain{idx}:swan{k}", swan, check_swan))
        ops.append(Op(f"chain{idx}:slopes{k}", decompose, check_decompose))
    r = len(irr)
    pairs = [(a, b) for a in range(r) for b in range(r)]
    if len(pairs) > TENSOR_PAIRS_PER_CHAIN:
        pairs = rng.sample(pairs, TENSOR_PAIRS_PER_CHAIN)
    for a, b in pairs:
        ops.append(Op(f"chain{idx}:tensor{a},{b}",
                      lambda a=a, b=b: fl.tensor_bound_check(upper, irr[a], irr[b]),
                      lambda ok, tally: ok is True))
    return ops


def setup_swan_corpus(seed: int, workdir: Path) -> Workload:
    rng = _rng("swan-corpus", seed)
    chains = []  # (G, upper chain, lower chain or None)
    for G in _abelian_catalogue():
        # realizable: integer upper breaks pushed through the inverse transition
        subs = _random_descending(G, rng)
        breaks, b = [], 0
        for _ in subs:
            b += rng.randrange(1, 4)
            breaks.append(Fraction(b))
        lower = fl.lower_from_upper(fl.BreakChain(G, tuple(breaks), tuple(subs)))
        chains.append((G, fl.upper_from_lower(lower), lower))
    for G in _fractional_catalogue():
        normals = sorted((N for N in gp.normal_subgroups(G) if N.order > 1),
                         key=lambda N: -N.order)
        subs = [normals[rng.randrange(len(normals))]]
        for N in normals:
            if N.element_set < subs[-1].element_set and len(subs) < 3 and rng.random() < 0.6:
                subs.append(N)
        breaks = sorted(rng.sample([Fraction(n, d) for d in (2, 3, 4, 6) for n in range(1, 4 * d)
                                    if gcd(n, d) == 1], len(subs)))
        chains.append((G, fl.BreakChain(G, tuple(breaks), tuple(subs)), None))
    ops = []
    described = []
    for idx, (G, upper, lower) in enumerate(chains):
        table = rt.character_table(G)  # warm-up: the timed lookups hit the cache
        ops.extend(_swan_chain_ops(idx, G, upper, lower, table, rng))
        described.append({
            "group": G.name, "order": G.order,
            "breaks": [str(b) for b in upper.breaks],
            "subgroups": [list(H.elements) for H in upper.subgroups],
            "lower": None if lower is None else [list(H.elements) for H in lower.subgroups],
        })
    rng.shuffle(ops)
    return Workload(ops, {"chains": described, "ops": [op.label for op in ops]})


# -- cli-requests -------------------------------------------------------------------
#
# A stream of JSON requests through slopeforge.cli.main with --input/--output
# files.  Every request parses a fresh group, so no table is ever reused: the
# build side (Dixon-Schneider, modp, class matrices) and JSON parse/emit do the
# work, the counterpart of swan-corpus.

TABLE_GROUPS = [
    ("S4", symmetric_gens(4)), ("A5", alternating_gens(5)), ("S5", symmetric_gens(5)),
    ("D7", dihedral_gens(7)), ("D9", dihedral_gens(9)), ("D12", dihedral_gens(12)),
    ("D15", dihedral_gens(15)), ("C24", [cycle(24)]), ("PSL27", psl27_gens()),
    ("B3", hyperoctahedral_gens(3)), ("B4", hyperoctahedral_gens(4)),
    ("S3xS3", [(1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 3, 5), (0, 1, 2, 4, 5, 3)]),
]
POSITIVE_ROOTS = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
                  "C": lambda n: n * n, "D": lambda n: n * (n - 1), "G": lambda n: 6}


def _one_indexed(perms):
    return [[x + 1 for x in p] for p in perms]


def _cyc(n, t):
    """zeta_n^t as a JSON cyclotomic."""
    t %= n
    if t == 0:
        return "1"
    return {"conductor": n, "coefficients": ["0"] * t + ["1"]}


def _cyclic_powers(gen, elements):
    """index of gen^k in the element list, for k = 0 .. order-1."""
    index = {e: i for i, e in enumerate(elements)}
    out, x = [], elements[0]
    while True:
        out.append(index[x])
        x = compose(x, gen)
        if x == elements[0]:
            return out


def _req_table(rng, option):
    name, gens = option
    order = len(perm_closure(gens))
    argv = ["--gcd"] if rng.random() < 0.5 else []

    def check(out):
        degrees = out["degrees"]
        return (out["order"] == order and sum(d * d for d in degrees) == order
                and len(out["irreducibles"]) == len(out["class_sizes"]) == len(degrees)
                and sum(out["class_sizes"]) == order)
    payload = {"group": {"permutation_generators": _one_indexed(random_relabel(gens, rng))}}
    return "table", payload, argv, check


def _cyclic_chain(rng, n):
    """C_n on n points, a descending chain of its subgroups (by order) and
    integer upper breaks."""
    gen = random_relabel([cycle(n)], rng)[0]
    elements = perm_closure([gen])
    powers = _cyclic_powers(gen, elements)  # powers[k] = index of gen^k
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    orders = [n]
    while len(orders) < 3:
        smaller = [d for d in divisors if d < orders[-1] and orders[-1] % d == 0]
        if not smaller or rng.random() < 0.3:
            break
        orders.append(rng.choice(smaller))
    breaks, b = [], 0
    for _ in orders:
        b += rng.randrange(1, 4)
        breaks.append(b)
    subgroup = {d: sorted(powers[k] for k in range(0, n, n // d)) for d in orders}
    return gen, powers, orders, breaks, subgroup


def _req_swan(rng, n):
    gen, powers, orders, breaks, subgroup = _cyclic_chain(rng, n)
    j = rng.randrange(n)
    values = [None] * n
    for k in range(n):
        values[powers[k]] = _cyc(n, j * k)
    # chi_j is trivial on the subgroup of order d iff d divides j
    slope = max((b for b, d in zip(breaks, orders) if j % d), default=0)
    payload = {"group": {"permutation_generators": _one_indexed([gen])},
               "breaks": [str(b) for b in breaks],
               "subgroups": [subgroup[d] for d in orders],
               "character": {"values": values}}
    return "swan", payload, [], lambda out: out["swan"] == str(slope)


def _req_herbrand(rng, n):
    gen, powers, orders, breaks, subgroup = _cyclic_chain(rng, n)
    lower = [list(range(n))]
    psi, prev = Fraction(0), 0
    for b, d in zip(breaks, orders):
        psi += (b - prev) * Fraction(n, d)
        prev = b
        while len(lower) <= psi:
            lower.append(subgroup[d])
    payload = {"group": {"permutation_generators": _one_indexed([gen])}, "lower": lower}
    want = [str(b) for b in breaks]
    return "herbrand", payload, [], lambda out: out["upper"]["breaks"] == want


def _dihedral_with_rotations(rng, n):
    gens = random_relabel(dihedral_gens(n), rng)
    elements = perm_closure(gens)
    powers = _cyclic_powers(gens[0], elements)
    H = sorted(powers)  # the normal rotation subgroup, as parent indices
    where = {idx: k for k, idx in enumerate(powers)}

    def linear(j):
        """chi_j(rot^k) = zeta_n^(jk), listed by H's own element order."""
        return {"values": [_cyc(n, j * where[h]) for h in H]}
    return {"permutation_generators": _one_indexed(gens)}, H, linear


def _req_induce(rng, n):
    group, H, linear = _dihedral_with_rotations(rng, n)
    payload = {"group": group, "subgroup": H, "character": linear(rng.randrange(n))}
    return "induce", payload, [], lambda out: out["degree"] == "2"


def _req_tind(rng, n):
    group, H, linear = _dihedral_with_rotations(rng, n)
    payload = {"group": group, "subgroup": H, "character": linear(rng.randrange(n))}
    return "tind", payload, [], lambda out: out["degree"] == "1"


def _req_mackey(rng, n):
    group, H, linear = _dihedral_with_rotations(rng, n)
    payload = {"group": group, "subgroup": H, "left": linear(rng.randrange(n)),
               "right": linear(rng.randrange(n))}
    return "mackey", payload, [], lambda out: out["pass"] is True


def _req_np(rng, count):
    pairs = [[Fraction(rng.randrange(0, 12), rng.randrange(1, 7)), rng.randrange(1, 5)]
             for _ in range(count)]
    height = sum(s * m for s, m in pairs)
    payload = {"slopes": [[str(s), m] for s, m in pairs]}
    return "np", payload, [], lambda out: Fraction(out["height"]) == height


def _req_robba(rng, p):
    coeffs = [str(Fraction(rng.randrange(-24, 25),
                           rng.choice([d for d in range(1, 10) if d % p])))
              for _ in range(rng.randrange(1, 6))]

    def check(out):
        return (out["reduced"]["p"] == p and Fraction(out["slope"]) >= 0
                and isinstance(out["p_power_N"], int))
    return "robba", {"p": p, "coefficients": coeffs}, [], check


def _req_weyl(rng, option):
    family, rank = option
    m = rng.randrange(1, 4)
    want = (2 * m + 1) ** POSITIVE_ROOTS[family](rank)
    argv = ["--family", family, "--rank", str(rank), "--weight", f"{2 * m}rho"]
    return "weyl-dim", None, argv, lambda out: out["dimension"] == want


def _req_wreath(rng, option):
    gens, ell = option
    h = len(perm_closure(gens))
    payload = {"base": {"permutation_generators": _one_indexed(random_relabel(gens, rng))},
               "ell": ell}
    return "wreath", payload, [], lambda out: out["order"] == ell * h ** ell


def _req_classify(rng, option):
    p, full = option
    gen = random_relabel([cycle(p)], rng)[0]
    g = perm_closure([gen]).index(gen)
    payload = {"wreath": {"base": {"permutation_generators": _one_indexed([gen])}, "ell": 2},
               "generators": [[1, [0, 0]], [0, [g, 0] if full else [g, g]]]}

    def check(out):
        if full:
            return out["case"] == "full_wreath" and out["subgroup_order"] == 2 * p * p
        return (out["case"] == "semidirect" and out["direct_product"] is True
                and out["subgroup_order"] == 2 * p)
    return "classify", payload, [], check


# kind: (maker, the options it cycles through, requests per pass).  Each
# option is used equally often, so the mix and the cost of a pass do not
# depend on the seed; 10 malformed requests make 5% of the 198.
REQUESTS = {
    "table": (_req_table, TABLE_GROUPS, 60),
    "swan": (_req_swan, (6, 8, 9, 10, 12, 16), 18),
    "herbrand": (_req_herbrand, (4, 6, 8, 9, 12, 16), 12),
    "induce": (_req_induce, (5, 6, 7, 8, 9, 10, 12), 14),
    "tind": (_req_tind, (5, 6, 7, 8, 9, 10, 12), 14),
    "mackey": (_req_mackey, (5, 6, 7, 8, 9, 10, 12), 14),
    "np": (_req_np, (1, 2, 3, 4), 20),
    "robba": (_req_robba, (2, 3, 5), 15),
    "weyl-dim": (_req_weyl, (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                             ("C", 3), ("D", 4), ("G", 2)), 9),
    "wreath": (_req_wreath, (([cycle(3)], 3), ([cycle(5)], 2), ([cycle(5)], 3),
                             ([cycle(7)], 2), (symmetric_gens(3), 2),
                             (symmetric_gens(3), 3)), 6),
    "classify": (_req_classify, ((3, True), (3, False), (5, True), (5, False),
                                 (7, True), (7, False)), 6),
}
MALFORMED_PER_PASS = 10


def load_catalogue() -> list[dict]:
    with open(CATALOGUE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["requests"]


@dataclass
class CliResult:
    code: int | None
    traceback: str | None


def _cli_op(label, command, argv, in_path, out_path, expected_exit, check_output) -> Op:
    args = [command]
    if in_path is not None:
        args += ["--input", str(in_path)]
    args += ["--output", str(out_path)] + list(argv)

    def run():
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                return CliResult(cli.main(args), None)
            except SystemExit as exc:  # argparse usage errors exit with code 2
                return CliResult(exc.code, None)
            except Exception:
                return CliResult(None, traceback.format_exc())

    def check(res, tally):
        if res.traceback is not None:
            tally["cli.traceback"] += 1
            return False
        tally[f"cli.exit{res.code}"] += 1
        if res.code != expected_exit:
            return False
        if expected_exit != 0:
            return True
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(out_path)
        tally["cli.bytes_out"] += len(text.encode("utf-8"))
        out = json.loads(text)
        return out.get("format") == 1 and check_output(out)

    return Op(label, run, check)


def _write_request(path: Path, payload) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def setup_cli_requests(seed: int, workdir: Path) -> Workload:
    rng = _rng("cli-requests", seed)
    catalogue = load_catalogue()
    sound = [entry for entry in catalogue if not entry.get("known_defect")]
    stream = [(kind, options[k % len(options)])
              for kind, (_, options, count) in REQUESTS.items() for k in range(count)]
    stream += [("malformed", rng.choice(sound)) for _ in range(MALFORMED_PER_PASS)]
    rng.shuffle(stream)
    ops, described = [], []
    for i, (kind, option) in enumerate(stream):
        if kind == "malformed":
            command, payload = option["command"], option.get("payload")
            argv, expected, check_output = option.get("argv", []), option["expected_exit"], None
            label = f"req{i}:malformed:{option['id']}"
        else:
            command, payload, argv, check_output = REQUESTS[kind][0](rng, option)
            expected, label = 0, f"req{i}:{kind}"
        in_path = None
        if payload is not None:
            in_path = workdir / f"req{i}.json"
            _write_request(in_path, payload)
        ops.append(_cli_op(label, command, argv, in_path, workdir / f"out{i}.json",
                           expected, check_output))
        described.append({"command": command, "payload": payload, "argv": argv,
                          "expected_exit": expected})
    probe = []
    for entry in catalogue:
        if entry.get("known_defect"):
            in_path = workdir / f"defect-{entry['id']}.json"
            _write_request(in_path, entry["payload"])
            probe.append(_cli_op(f"defect:{entry['id']}", entry["command"],
                                 entry.get("argv", []), in_path,
                                 workdir / f"defect-{entry['id']}.out.json",
                                 entry["expected_exit"], lambda out: True))
    return Workload(ops, described, probe)


WORKLOADS = {
    "wreath-lattice": setup_wreath_lattice,
    "swan-corpus": setup_swan_corpus,
    "cli-requests": setup_cli_requests,
}
