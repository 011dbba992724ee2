"""JSON wire formats shared by the command line front-end.

All numeric payloads are exact strings ("3/4"), never floats.  Parsers raise
InputError with a positional path so malformed documents are diagnosed
precisely; emitted documents carry a top-level "format": 1 field.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .exactnum import (Cyclotomic, past_digit_limit, rational_from_str,
                       rational_to_str)
from .filtered import BreakChain, LowerChain
from .groups import (FiniteGroup, Subgroup, group_from_cayley_table,
                     group_from_permutations)
from .newton import NewtonPolygon, SlopeMultiset
from .reptheory import ClassFunction, conductor_bound
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


def _call_at(path: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ValueError it raises refused at path."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise InputError(path, str(exc)) from None


def is_int(obj) -> bool:
    """A JSON integer: true and false are bools, not integers."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def parse_rational(obj, path: str) -> Fraction:
    _expect(isinstance(obj, str) or is_int(obj), path, "expected a rational string")
    return _call_at(path, rational_from_str, str(obj))


_INTEGER = re.compile(r"[-+]?\d+")


def _integer_or_none(obj) -> int | None:
    """The int that parse_rational reads from obj when obj is a plain integer
    string or a JSON integer, without a Fraction; None for anything else,
    which is left to parse_rational.  A string past the interpreter's digit
    limit (read at the call, as past_digit_limit does) is left to it too, to
    be refused there with its message."""
    if type(obj) is str and _INTEGER.fullmatch(obj):
        try:
            return int(obj)
        except ValueError:
            return None
    if is_int(obj) and not past_digit_limit(obj):
        return obj
    return None


# -- slope multisets and polygons -------------------------------------------------


def parse_slope_multiset(obj) -> SlopeMultiset:
    _expect(isinstance(obj, dict), "$", "expected an object")
    slopes = obj.get("slopes")
    _expect(isinstance(slopes, list), "$.slopes", "expected a list")
    # a coordinate of the polygon is a sum of at most len(slopes) terms mult
    # or slope * mult, each below 2 ** top over a divisor of den, the lcm of
    # the slopes' denominators; so 2 ** (bits of den + top + bits of the
    # length) bounds its numerator and denominator, checked before any sum
    pairs = []
    den, top, terms = 1, 0, len(slopes).bit_length()
    for i, entry in enumerate(slopes):
        epath = f"$.slopes[{i}]"
        _expect(isinstance(entry, list) and len(entry) == 2, epath,
                "expected [slope, multiplicity]")
        slope = parse_rational(entry[0], f"{epath}[0]")
        _expect(is_int(entry[1]) and entry[1] >= 1, f"{epath}[1]",
                "expected a positive integer multiplicity")
        pairs.append((slope, entry[1]))
        den = lcm(den, slope.denominator)
        top = max(top, slope.numerator.bit_length() + entry[1].bit_length())
        limit = past_digit_limit((1 << (den.bit_length() + top + terms)) - 1)
        _expect(not limit, "$.slopes",
                f"the polygon's coordinates may pass {limit} digits")
    return _call_at("$.slopes", SlopeMultiset.from_pairs, pairs)


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
        q = _integer_or_none(obj)
        return Cyclotomic.rational(parse_rational(obj, path) if q is None else q)
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
    # an integer coefficient leaves the denominators' lcm as it is, so the
    # lcm is only taken, and its digits checked, at the others
    vals = []
    den = 1
    for i, c in enumerate(coeffs):
        q = _integer_or_none(c)
        if q is None:
            q = parse_rational(c, f"{path}.coefficients[{i}]")
            den = lcm(den, q.denominator)
            limit = past_digit_limit(den)
            _expect(not limit, f"{path}.coefficients",
                    f"the denominators' lcm passes {limit} digits")
        vals.append(q)
    return Cyclotomic(n, [q.numerator * (den // q.denominator) for q in vals], den)


def cyclotomic_json(v: Cyclotomic):
    coeffs = v.coefficient_strs()
    if v.is_rational:
        return coeffs[0]
    return {"conductor": v.conductor, "coefficients": coeffs}


def parse_class_function(obj, G: FiniteGroup, path: str) -> ClassFunction:
    """Values on the classes of G.  A conductor above `conductor_bound(G)` =
    2|G| is refused, and so is a function with no integer view
    (`ClassFunction.int_view`, on which sums over several classes are
    computed): one whose values' least conductors have, with the exponent of
    G, an lcm above 2|G|."""
    _expect(isinstance(obj, dict), path, "expected an object")
    vals = obj.get("values")
    _expect(isinstance(vals, list), f"{path}.values", "expected a list")
    r = len(G.conjugacy_classes)
    _expect(len(vals) == r, f"{path}.values",
            f"expected {r} values (one per conjugacy class)")
    bound = conductor_bound(G)
    chi = ClassFunction(G, tuple(parse_cyclotomic(v, f"{path}.values[{i}]", bound)
                                 for i, v in enumerate(vals)))
    # conductors dividing 2|G| have a view: the exponent divides |G|
    if any(bound % v.conductor for v in chi.values):
        _call_at(path, lambda: chi.int_view)
    return chi


def class_function_json(chi: ClassFunction) -> dict:
    return {"values": [cyclotomic_json(v) for v in chi.values]}


# -- groups and subgroups ----------------------------------------------------------------


def parse_group(obj, path: str, max_order: int) -> FiniteGroup:
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
        return _call_at(path, group_from_permutations, perms, max_order=max_order)
    if "cayley_table" in obj:
        table = obj["cayley_table"]
        _expect(isinstance(table, list)
                and all(isinstance(row, list) and all(is_int(x) for x in row)
                        for row in table),
                f"{path}.cayley_table", "expected a list of rows of integers")
        _expect(len(table) <= max_order, f"{path}.cayley_table",
                f"group order {len(table)} exceeds bound {max_order}")
        return _call_at(f"{path}.cayley_table", group_from_cayley_table, table)
    raise InputError(path, "expected permutation_generators or cayley_table")


def parse_subgroup(obj, G: FiniteGroup, path: str) -> Subgroup:
    _expect(isinstance(obj, list) and all(is_int(x) for x in obj),
            path, "expected a list of element indices")
    _expect(all(0 <= x < G.order for x in obj), path,
            f"indices must lie in 0..{G.order - 1}")
    return _call_at(path, G.subgroup, obj)


# -- chains ------------------------------------------------------------------------------


def parse_break_chain(obj, max_order: int) -> BreakChain:
    _expect(isinstance(obj, dict), "$", "expected an object")
    G = parse_group(obj.get("group"), "$.group", max_order)
    breaks = obj.get("breaks")
    subs = obj.get("subgroups")
    _expect(isinstance(breaks, list), "$.breaks", "expected a list")
    _expect(isinstance(subs, list), "$.subgroups", "expected a list")
    _expect(len(breaks) == len(subs), "$.subgroups",
            "need one subgroup per break")
    bvals = tuple(parse_rational(b, f"$.breaks[{i}]")
                  for i, b in enumerate(breaks))
    svals = tuple(parse_subgroup(s, G, f"$.subgroups[{i}]")
                  for i, s in enumerate(subs))
    return _call_at("$", BreakChain, G, bvals, svals)


def break_chain_json(chain: BreakChain) -> dict:
    return {
        "breaks": [rational_to_str(b) for b in chain.breaks],
        "subgroups": [list(H.elements) for H in chain.subgroups],
    }


def parse_lower_chain(obj, max_order: int) -> LowerChain:
    _expect(isinstance(obj, dict), "$", "expected an object")
    G = parse_group(obj.get("group"), "$.group", max_order)
    lower = obj.get("lower")
    _expect(isinstance(lower, list) and lower, "$.lower",
            "expected a non-empty list of element-index lists")
    subs = tuple(parse_subgroup(s, G, f"$.lower[{i}]")
                 for i, s in enumerate(lower))
    return _call_at("$.lower", LowerChain, G, subs)


# -- rank-one operators ----------------------------------------------------------------------


def parse_rank_one_operator(obj) -> RankOneOperator:
    _expect(isinstance(obj, dict), "$", "expected an object")
    p = obj.get("p")
    _expect(is_int(p) and p >= 2, "$.p", "expected a prime")
    _expect(p <= MAX_PRIME, "$.p",
            f"expected a prime of at most {MAX_PRIME}")
    coeffs = obj.get("coefficients")
    _expect(isinstance(coeffs, list), "$.coefficients", "expected a list")
    vals = [parse_rational(c, f"$.coefficients[{i}]")
            for i, c in enumerate(coeffs)]
    return _call_at("$", RankOneOperator.make, p, vals)


def rank_one_operator_json(op: RankOneOperator) -> dict:
    return {"p": op.p, "coefficients": [rational_to_str(c) for c in op.coeffs]}
