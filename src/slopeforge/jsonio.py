"""JSON wire formats shared by the command line front-end.

All numeric payloads are exact strings ("3/4"), never floats.  Parsers raise
InputError with a positional path so malformed documents are diagnosed
precisely; emitted documents carry a top-level "format": 1 field.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .exactnum import (Cyclotomic, past_digit_limit, rational_from_str,
                       rational_to_str)
from .filtered import BreakChain, LowerChain
from .groups import (DEFAULT_MAX_ORDER, FiniteGroup, Subgroup,
                     group_from_cayley_table, group_from_permutations)
from .newton import NewtonPolygon, SlopeMultiset
from .reptheory import ClassFunction
from .robba import RankOneOperator

FORMAT_VERSION = 1

# The largest p a rank-one operator request may name: primality and every
# p-adic valuation are tested by trial division, in time that grows as sqrt(p).
MAX_PRIME = 2**31 - 1


class InputError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise InputError(path, message)


def is_int(obj) -> bool:
    """A JSON integer: true and false are bools, not integers."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def parse_rational(obj, path: str) -> Fraction:
    _expect(isinstance(obj, str) or is_int(obj), path, "expected a rational string")
    try:
        return rational_from_str(str(obj))
    except ValueError as exc:
        raise InputError(path, str(exc)) from None


# -- slope multisets and polygons -------------------------------------------------


def parse_slope_multiset(obj, path: str = "$") -> SlopeMultiset:
    _expect(isinstance(obj, dict), path, "expected an object")
    slopes = obj.get("slopes")
    _expect(isinstance(slopes, list), f"{path}.slopes", "expected a list")
    # a coordinate of the polygon is a sum of at most len(slopes) terms mult
    # or slope * mult, each below 2 ** top over a divisor of den, the lcm of
    # the slopes' denominators; so 2 ** (bits of den + top + bits of the
    # length) bounds its numerator and denominator, checked before any sum
    pairs = []
    den, top, terms = 1, 0, len(slopes).bit_length()
    for i, entry in enumerate(slopes):
        epath = f"{path}.slopes[{i}]"
        _expect(isinstance(entry, list) and len(entry) == 2, epath,
                "expected [slope, multiplicity]")
        slope = parse_rational(entry[0], f"{epath}[0]")
        _expect(is_int(entry[1]) and entry[1] >= 1, f"{epath}[1]",
                "expected a positive integer multiplicity")
        pairs.append((slope, entry[1]))
        den = lcm(den, slope.denominator)
        top = max(top, slope.numerator.bit_length() + entry[1].bit_length())
        limit = past_digit_limit((1 << (den.bit_length() + top + terms)) - 1)
        _expect(not limit, f"{path}.slopes",
                f"the polygon's coordinates may pass {limit} digits")
    try:
        return SlopeMultiset.from_pairs(pairs)
    except ValueError as exc:
        raise InputError(f"{path}.slopes", str(exc)) from None


def slope_multiset_json(ms: SlopeMultiset) -> dict:
    return {"slopes": [[rational_to_str(s), m] for s, m in ms.entries]}


def polygon_json(np: NewtonPolygon) -> dict:
    return {
        "vertices": [[rational_to_str(x), rational_to_str(y)] for x, y in np.vertices],
        "height": rational_to_str(np.height),
        "integral": np.is_integral(),
    }


# -- cyclotomics and class functions ------------------------------------------------


def parse_cyclotomic(obj, path: str, max_conductor: int) -> Cyclotomic:
    """A rational string or {conductor, coefficients}; a conductor above
    max_conductor is refused before Phi_n, quadratic in n, is computed."""
    if isinstance(obj, (str, int)):
        return Cyclotomic.rational(parse_rational(obj, path))
    _expect(isinstance(obj, dict), path, "expected a rational string or an object")
    _expect("conductor" in obj and "coefficients" in obj, path,
            "expected keys conductor, coefficients")
    n = obj["conductor"]
    _expect(is_int(n) and n >= 1, f"{path}.conductor",
            "expected a positive integer")
    _expect(n <= max_conductor, f"{path}.conductor",
            f"expected a conductor of at most {max_conductor}")
    coeffs = obj["coefficients"]
    _expect(isinstance(coeffs, list), f"{path}.coefficients", "expected a list")
    vals = []
    den = 1
    for i, c in enumerate(coeffs):
        vals.append(parse_rational(c, f"{path}.coefficients[{i}]"))
        den = lcm(den, vals[-1].denominator)
        limit = past_digit_limit(den)
        _expect(not limit, f"{path}.coefficients",
                f"the denominators' lcm passes {limit} digits")
    return Cyclotomic(n, [q.numerator * (den // q.denominator) for q in vals], den)


def cyclotomic_json(v: Cyclotomic):
    coeffs = v.coefficient_strs()
    if v.is_rational:
        return coeffs[0]
    return {"conductor": v.conductor, "coefficients": coeffs}


def parse_class_function(obj, G: FiniteGroup, path: str) -> ClassFunction:
    """Values on the classes of G.  Every character value of G lies in
    Q(zeta_n) with n dividing lcm(2, exponent of G), so a conductor above
    2|G| is refused, and so are values whose conductors have an lcm above
    2|G|: sums over several classes would be computed in Q(zeta_lcm)."""
    _expect(isinstance(obj, dict), path, "expected an object")
    vals = obj.get("values")
    _expect(isinstance(vals, list), f"{path}.values", "expected a list")
    r = len(G.conjugacy_classes)
    _expect(len(vals) == r, f"{path}.values",
            f"expected {r} values (one per conjugacy class)")
    bound = 2 * G.order
    parsed = tuple(parse_cyclotomic(v, f"{path}.values[{i}]", bound)
                   for i, v in enumerate(vals))
    n = 1
    for v in parsed:
        n = lcm(n, v.conductor)
        _expect(n <= bound, path,
                f"the values' conductors have an lcm above 2|G| = {bound}")
    return ClassFunction(G, parsed)


def class_function_json(chi: ClassFunction) -> dict:
    return {"values": [cyclotomic_json(v) for v in chi.values]}


# -- groups and subgroups ----------------------------------------------------------------


def parse_group(obj, path: str = "$.group",
                max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """A group given by permutation generators or a Cayley table, refused
    when its order exceeds max_order."""
    _expect(isinstance(obj, dict), path, "expected an object")
    if "permutation_generators" in obj:
        gens = obj["permutation_generators"]
        _expect(isinstance(gens, list), f"{path}.permutation_generators",
                "expected a list of permutations")
        perms = []
        for i, g in enumerate(gens):
            gpath = f"{path}.permutation_generators[{i}]"
            _expect(isinstance(g, list) and all(is_int(x) for x in g),
                    gpath, "expected a list of 1-indexed images")
            _expect(sorted(g) == list(range(1, len(g) + 1)), gpath,
                    "not a permutation of 1..n")
            perms.append(tuple(x - 1 for x in g))
        try:
            return group_from_permutations(perms, max_order=max_order)
        except ValueError as exc:
            raise InputError(path, str(exc)) from None
    if "cayley_table" in obj:
        table = obj["cayley_table"]
        _expect(isinstance(table, list)
                and all(isinstance(row, list) and all(is_int(x) for x in row)
                        for row in table),
                f"{path}.cayley_table", "expected a list of rows of integers")
        _expect(len(table) <= max_order, f"{path}.cayley_table",
                f"group order {len(table)} exceeds bound {max_order}")
        try:
            return group_from_cayley_table(table)
        except ValueError as exc:
            raise InputError(f"{path}.cayley_table", str(exc)) from None
    raise InputError(path, "expected permutation_generators or cayley_table")


def parse_subgroup(obj, G: FiniteGroup, path: str) -> Subgroup:
    _expect(isinstance(obj, list) and all(is_int(x) for x in obj),
            path, "expected a list of element indices")
    _expect(all(0 <= x < G.order for x in obj), path,
            f"indices must lie in 0..{G.order - 1}")
    try:
        return G.subgroup(obj)
    except ValueError as exc:
        raise InputError(path, str(exc)) from None


# -- chains ------------------------------------------------------------------------------


def parse_break_chain(obj, path: str = "$", max_order: int = DEFAULT_MAX_ORDER
                      ) -> tuple[FiniteGroup, BreakChain]:
    _expect(isinstance(obj, dict), path, "expected an object")
    G = parse_group(obj.get("group"), f"{path}.group", max_order)
    breaks = obj.get("breaks")
    subs = obj.get("subgroups")
    _expect(isinstance(breaks, list), f"{path}.breaks", "expected a list")
    _expect(isinstance(subs, list), f"{path}.subgroups", "expected a list")
    _expect(len(breaks) == len(subs), f"{path}.subgroups",
            "need one subgroup per break")
    bvals = tuple(parse_rational(b, f"{path}.breaks[{i}]")
                  for i, b in enumerate(breaks))
    svals = tuple(parse_subgroup(s, G, f"{path}.subgroups[{i}]")
                  for i, s in enumerate(subs))
    try:
        return G, BreakChain(G, bvals, svals)
    except ValueError as exc:
        raise InputError(path, str(exc)) from None


def break_chain_json(chain: BreakChain) -> dict:
    return {
        "breaks": [rational_to_str(b) for b in chain.breaks],
        "subgroups": [list(H.elements) for H in chain.subgroups],
    }


def parse_lower_chain(obj, path: str = "$", max_order: int = DEFAULT_MAX_ORDER
                      ) -> tuple[FiniteGroup, LowerChain]:
    _expect(isinstance(obj, dict), path, "expected an object")
    G = parse_group(obj.get("group"), f"{path}.group", max_order)
    lower = obj.get("lower")
    _expect(isinstance(lower, list) and lower, f"{path}.lower",
            "expected a non-empty list of element-index lists")
    subs = tuple(parse_subgroup(s, G, f"{path}.lower[{i}]")
                 for i, s in enumerate(lower))
    try:
        return G, LowerChain(G, subs)
    except ValueError as exc:
        raise InputError(f"{path}.lower", str(exc)) from None


# -- rank-one operators ----------------------------------------------------------------------


def parse_rank_one_operator(obj, path: str = "$") -> RankOneOperator:
    _expect(isinstance(obj, dict), path, "expected an object")
    p = obj.get("p")
    _expect(is_int(p) and p >= 2, f"{path}.p", "expected a prime")
    _expect(p <= MAX_PRIME, f"{path}.p",
            f"expected a prime of at most {MAX_PRIME}")
    coeffs = obj.get("coefficients")
    _expect(isinstance(coeffs, list), f"{path}.coefficients", "expected a list")
    vals = [parse_rational(c, f"{path}.coefficients[{i}]")
            for i, c in enumerate(coeffs)]
    try:
        return RankOneOperator.make(p, vals)
    except ValueError as exc:
        raise InputError(path, str(exc)) from None


def rank_one_operator_json(op: RankOneOperator) -> dict:
    return {"p": op.p, "coefficients": [rational_to_str(c) for c in op.coeffs]}
