"""Command line front-end: JSON in, JSON (or SVG) out.

`main` is the one driver of every subcommand: it reads the JSON payload from
--input PATH or stdin ("-"), calls ``cmd_<name>(payload, args)`` for the
report and writes the report to --output PATH or stdout.  Exit codes: 0
success, 1 a report with "pass": false (a verification failure), 2 an input
error.  Subcommands only compute.  `main` may be called many times in one
process: the argument parser is built once, and ``cmd_<name>`` is looked up
in this module at each call.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction
from math import lcm

from . import jsonio
from .exactnum import is_prime, rational_from_str, rational_to_str, shown
from .filtered import herbrand_phi, slope_decomposition, upper_from_lower
from .groups import (DEFAULT_MAX_ORDER, GroupError, classify_wreath_subgroup,
                     is_simple, rotation, wreath_cyclic)
from .jsonio import InputError
from .newton import polygon_from_slopes
from .reptheory import (DEFAULT_TABLE_BOUND, RepTheoryError, character_table,
                        induce, irreducible_dims_gcd, mackey_check, tensor_induce)
from .robba import (character_order, is_tame, p_power_reduce,
                    reduce as robba_reduce, residue, slope as robba_slope)
from .verify import SUITES, run_suites
from .weyl import (_POSITIVE_ROOT_COUNTS, _VALID_RANKS, build_root_system,
                   weyl_dim)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT_ERROR = 2

# Lattice dots an SVG draws at most; a larger polygon is drawn without them.
SVG_MAX_LATTICE_DOTS = 10_000

# Bytes an "input error:" line takes at most, its newline included.
MAX_ERROR_LINE = 300


def _echo_error(path: str, before: str, value, after: str) -> InputError:
    """The refusal `before + value + after` at `path`, echoing `value` whole
    when the printed line fits in MAX_ERROR_LINE bytes and cut past that."""
    line = f"input error: {path}: {before}...{after}\n"
    return InputError(path, before + shown(value, MAX_ERROR_LINE - len(line.encode()))
                      + after)


def _int_or_float(literal: str):
    """A JSON integer literal; past `int`'s digit limit it is read as a float,
    which every integer and rational check refuses where its path is known."""
    try:
        return int(literal)
    except ValueError:
        return float(literal)


def _integer_option(text: str) -> int:
    """The `type=` of every integer option: argparse's own refusal of a
    value past `int`'s digit limit would echo the whole value."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {shown(text)!r}") from None


def _family_option(text: str) -> str:
    """The `type=` of --family, refusing what `choices` would refuse, with
    the value shown bounded."""
    if text not in _VALID_RANKS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {shown(text)!r} "
            f"(choose from {', '.join(map(repr, _VALID_RANKS))})")
    return text


def _read_payload(args) -> dict:
    source = args.input or "-"
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError("$", f"cannot read input: {exc}") from None
    try:
        payload = json.loads(text, parse_int=_int_or_float)
    except json.JSONDecodeError as exc:
        raise InputError(f"$:{exc.lineno}:{exc.colno}", exc.msg) from None
    if not isinstance(payload, dict):
        raise InputError("$", "top-level JSON must be an object")
    fmt = payload.get("format", jsonio.FORMAT_VERSION)
    if not jsonio.is_int(fmt) or fmt != jsonio.FORMAT_VERSION:
        raise InputError("$.format", f"unsupported format {shown(fmt)}")
    return payload


def _write_payload(args, payload: dict):
    payload = {"format": jsonio.FORMAT_VERSION, **payload}
    text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    target = args.output or "-"
    if target == "-":
        sys.stdout.write(text)
        return
    try:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _echo_error("--output", "cannot write ", target,
                          f": {exc.strerror}") from None


# -- SVG rendering of Newton polygons ---------------------------------------------


def render_polygon_svg(np_obj) -> str:
    """Static 480 x 360 picture: axes, the polygon, its vertices and, up to
    SVG_MAX_LATTICE_DOTS of them, the integer lattice dots."""
    width, height = 480, 360
    xs = [float(x) for x, _ in np_obj.vertices]
    ys = [float(y) for _, y in np_obj.vertices]
    x_max = max(max(xs), 1.0)
    y_max = max(max(ys), 1.0)
    pad = 40.0

    def sx(x):
        return pad + (width - 2 * pad) * x / x_max

    def sy(y):
        return height - pad - (height - 2 * pad) * y / y_max

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{sy(0)}" x2="{width - pad / 2}" y2="{sy(0)}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{sx(0)}" y1="{height - pad}" x2="{sx(0)}" y2="{pad / 2}" '
        'stroke="black" stroke-width="1"/>',
    ]
    if (int(x_max) + 1) * (int(y_max) + 1) <= SVG_MAX_LATTICE_DOTS:
        for ix in range(int(x_max) + 1):
            for iy in range(int(y_max) + 1):
                parts.append(
                    f'<circle cx="{sx(ix):.2f}" cy="{sy(iy):.2f}" r="1.5" fill="#bbbbbb"/>'
                )
    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#004488" stroke-width="2"/>'
    )
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3.5" fill="#cc2200"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _write_svg(path: str, text: str):
    """Write through a temporary file beside `path` and rename it into place,
    so `path` never holds a partial picture.  A path that exists and is not a
    regular file (a device such as /dev/stdout, a pipe) is written in place."""
    in_place = os.path.exists(path) and not os.path.isfile(path)
    tmp = path if in_place else f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not in_place:
            os.replace(tmp, path)
    except OSError as exc:
        if not in_place:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise _echo_error("--svg", "cannot write ", path, f": {exc.strerror}") from None


# -- subcommands: each turns the payload and options into a report ------------------


def cmd_np(payload, args) -> dict:
    ms = jsonio.parse_slope_multiset(payload)
    poly = polygon_from_slopes(ms)
    out = jsonio.polygon_json(poly)
    if args.svg:
        try:
            svg = render_polygon_svg(poly)
        except OverflowError:  # a coordinate past the float range
            raise InputError("$.slopes", "polygon too large to draw") from None
        _write_svg(args.svg, svg)
        out["svg"] = args.svg
    return out


def cmd_swan(payload, args) -> dict:
    G, chain = jsonio.parse_break_chain(payload, max_order=args.max_order)
    chi = jsonio.parse_class_function(payload.get("character"), G, "$.character")
    try:
        dec = slope_decomposition(chain, chi)
    except ValueError as exc:  # a class function that is not a character
        raise InputError("$.character", str(exc)) from None
    # the polygon of the decomposition: its height is the Swan conductor and
    # its integrality the Hasse-Arf property
    poly = polygon_from_slopes(dec)
    return {
        "slopes": jsonio.slope_multiset_json(dec)["slopes"],
        "polygon": jsonio.polygon_json(poly),
        "swan": rational_to_str(poly.height),
        "hasse_arf": poly.is_integral(),
    }


def cmd_herbrand(payload, args) -> dict:
    G, lower = jsonio.parse_lower_chain(payload, max_order=args.max_order)
    phi = herbrand_phi(lower)
    return {
        "phi": {
            "breakpoints": [[rational_to_str(x), rational_to_str(y)]
                            for x, y in phi.vertices],
            "final_slope": rational_to_str(phi.final_slope),
        },
        "upper": jsonio.break_chain_json(upper_from_lower(lower)),
    }


def _induced(payload, args, operation) -> dict:
    G = jsonio.parse_group(payload.get("group"), max_order=args.max_order)
    H = jsonio.parse_subgroup(payload.get("subgroup"), G, "$.subgroup")
    chi = jsonio.parse_class_function(payload.get("character"), H.as_group,
                                      "$.character")
    result = operation(chi, H)
    return {"character": jsonio.class_function_json(result),
            "degree": rational_to_str(result.degree)}


def cmd_induce(payload, args) -> dict:
    return _induced(payload, args, induce)


def cmd_tind(payload, args) -> dict:
    return _induced(payload, args, tensor_induce)


def cmd_mackey(payload, args) -> dict:
    G = jsonio.parse_group(payload.get("group"), max_order=args.max_order)
    H = jsonio.parse_subgroup(payload.get("subgroup"), G, "$.subgroup")
    V = jsonio.parse_class_function(payload.get("left"), H.as_group, "$.left")
    W = jsonio.parse_class_function(payload.get("right"), H.as_group, "$.right")
    # each side is bounded alone, but conj(V) * W is computed in Q(zeta_lcm)
    bound = 2 * H.order
    if lcm(*(v.conductor for v in V.values + W.values)) > bound:
        raise InputError("$.right", "the left and right conductors have an lcm "
                         f"above 2|H| = {bound}")
    try:
        ok, witness = mackey_check(V, W, H)
    except RepTheoryError as exc:
        raise InputError("$.subgroup", str(exc)) from None
    return {"pass": ok, "witness": witness}


def cmd_wreath(payload, args) -> dict:
    base = jsonio.parse_group(payload.get("base"), "$.base", args.max_order)
    ell = payload.get("ell")
    if not jsonio.is_int(ell) or ell < 1:
        raise InputError("$.ell", "expected a positive integer")
    # the order ell * |base|^ell against the bound, before any of the ell
    # rotations of ell points is built: ell^2 <= the order, and for
    # |base| >= 2 the power alone is past the bound once 2^ell is, so it is
    # only computed for an ell below the bound's bit length
    bound = args.max_order
    if ell * ell > bound or (base.order > 1 and (ell >= bound.bit_length()
                                                 or ell * base.order**ell > bound)):
        raise InputError("$.ell", f"wreath product order exceeds bound {bound}")
    G = wreath_cyclic(base, ell).group(max_order=args.max_order)
    return {"order": G.order, "class_count": len(G.conjugacy_classes)}


def cmd_classify(payload, args) -> dict:
    wreath_obj = payload.get("wreath")
    if not isinstance(wreath_obj, dict):
        raise InputError("$.wreath", "expected an object")
    base = jsonio.parse_group(wreath_obj.get("base"), "$.wreath.base",
                              args.max_order)
    ell = wreath_obj.get("ell")
    if not jsonio.is_int(ell) or ell < 2:
        raise InputError("$.wreath.ell", "expected an integer >= 2")
    # the rule of `wreath`: ell rotations of ell points and closures of
    # 2 * ell entries are not built, nor ell tested for primality, past it
    if ell * ell > args.max_order:
        raise InputError("$.wreath.ell", f"ell * ell exceeds bound {args.max_order}")
    if not is_prime(ell):
        raise InputError("$.wreath.ell", f"top degree ell = {ell} must be prime")
    if not is_simple(base):
        raise InputError("$.wreath.base", "base group is not simple")
    gens = payload.get("generators")
    if not isinstance(gens, list) or not gens:
        raise InputError("$.generators", "expected a non-empty list")
    raws = []
    for i, g in enumerate(gens):
        if (not isinstance(g, list) or len(g) != 2
                or not jsonio.is_int(g[0])
                or not isinstance(g[1], list)
                or len(g[1]) != ell
                or not all(jsonio.is_int(x) and 0 <= x < base.order
                           for x in g[1])):
            raise InputError(f"$.generators[{i}]",
                             "expected [rotation, [base indices...]]")
        raws.append((rotation(ell, g[0] % ell), tuple(g[1])))
    W = wreath_cyclic(base, ell)
    try:
        gbar = W.subgroup_from_raw(raws, max_order=args.max_order)
        report = classify_wreath_subgroup(W, gbar)
    except GroupError as exc:
        raise InputError("$.generators", str(exc)) from None
    return {
        "case": report.case,
        "abelian_base": report.abelian_base,
        "goursat_full": report.goursat.full,
        "subgroup_order": gbar.order,
        "normal_subgroup_orders": list(report.normal_subgroup_orders),
        "max_normal_chain_length": report.max_normal_chain_length,
        "chain_bound_ok": report.chain_bound_ok,
        "trichotomy_ok": report.trichotomy_ok,
        "direct_product": report.direct_product,
    }


def cmd_table(payload, args) -> dict:
    G = jsonio.parse_group(payload.get("group"), max_order=args.max_order)
    out = table_report(G, args.max_order)
    if args.gcd:
        try:
            out["nontrivial_dims_gcd"] = irreducible_dims_gcd(G, args.max_order)
        except RepTheoryError as exc:  # the trivial group
            raise InputError("$.group", str(exc)) from None
    return out


def table_report(G, max_order: int = DEFAULT_TABLE_BOUND) -> dict:
    """The report of `table` on the group G, without the --gcd entry."""
    table = character_table(G, max_order=max_order)
    out = {
        "order": G.order,
        "class_representatives": list(G.class_representatives),
        "class_sizes": [len(c) for c in G.conjugacy_classes],
        "degrees": list(table.degrees),
        "irreducibles": [jsonio.class_function_json(chi)
                         for chi in table.irreducibles],
    }
    return out


def cmd_robba(payload, args) -> dict:
    op = jsonio.parse_rank_one_operator(payload)
    red = robba_reduce(op)
    n_power, tame_res = p_power_reduce(op)
    return {
        "reduced": jsonio.rank_one_operator_json(red),
        "slope": rational_to_str(robba_slope(op)),
        "residue": rational_to_str(residue(op)),
        "tame": is_tame(op),
        "p_power_N": n_power,
        "p_power_residue": rational_to_str(tame_res),
        "character_order": character_order(op) if is_tame(op) else None,
    }


def _parse_weight(text: str, rs):
    text = text.strip()
    try:
        if not text.endswith("rho"):
            return tuple(rational_from_str(c) for c in text.split(","))
        mult = rational_from_str(text[:-3]) if text[:-3] else Fraction(1)
    except ValueError:
        raise InputError("$.weight",
                         "expected 'Nrho' or comma-separated coordinates") from None
    if mult.denominator != 1:
        raise InputError("$.weight", "rho multiples must be integers")
    return rs.rho_multiple(mult.numerator)


def cmd_weyl_dim(payload, args) -> dict:
    # closing the roots costs time polynomial in their number, so a system
    # with more positive roots than E8 is refused before any root is built
    family, rank = args.family, args.rank
    if (_VALID_RANKS[family](rank)
            and _POSITIVE_ROOT_COUNTS[family](rank) > _POSITIVE_ROOT_COUNTS["E"](8)):
        raise InputError("--rank",
                         f"{family}{shown(rank)} has more positive roots than E8")
    try:
        rs = build_root_system(args.family, args.rank)
    except ValueError as exc:
        raise InputError("$.family", str(exc)) from None
    weight = _parse_weight(args.weight, rs)
    try:
        dim = weyl_dim(rs, weight)
    except ValueError as exc:
        raise InputError("$.weight", str(exc)) from None
    return {
        "family": args.family,
        "rank": args.rank,
        "positive_roots": rs.num_positive_roots,
        "dimension": dim,
    }


def cmd_verify(payload, args) -> dict:
    names = args.suite
    if not names or "all" in names:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise _echo_error("$.suite", "unknown suites: ", ", ".join(unknown),
                          f"; known: {', '.join(SUITES)}")
    if args.jobs < 1:
        raise InputError("--jobs", f"expected a positive integer, got {args.jobs}")
    results = run_suites(names, jobs=args.jobs, seed=args.seed)
    for r in results:
        print(r.line(), file=sys.stderr)
    return {
        "pass": all(r.passed and r.within_time for r in results),
        "suites": [
            {"name": r.name, "pass": r.passed, "elapsed": round(r.elapsed, 3),
             "time_limit": r.time_limit, "within_time": r.within_time,
             "detail": r.detail}
            for r in results
        ],
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process; it holds no
    command function, so `main` dispatches on the module's current cmd_*."""
    parser = argparse.ArgumentParser(
        prog="slopeforge",
        description="Exact computations with slope data on finite groups, "
                    "Newton polygons, rank-one p-adic operators and root systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def io_command(name, help, max_order=DEFAULT_MAX_ORDER):
        """A JSON-in, JSON-out subcommand; max_order=None: no group is parsed."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--input", default="-", help="input JSON path or - for stdin")
        p.add_argument("--output", default="-", help="output JSON path or - for stdout")
        if max_order is not None:
            p.add_argument("--max-order", type=_integer_option, default=max_order,
                           help=f"group enumeration bound (default {max_order})")
        return p

    io_command("np", "slope multiset -> Newton polygon", max_order=None
               ).add_argument("--svg", default=None, help="also render an SVG here")
    io_command("swan", "break chain + character -> Swan data")
    io_command("herbrand", "lower chain -> transition + upper chain")
    io_command("induce", "induced character")
    io_command("tind", "tensor-induced character")
    io_command("mackey", "product-of-inductions identity check")
    io_command("wreath", "cyclic wreath product summary")
    io_command("classify", "classify a subgroup of a cyclic wreath")
    io_command("table", "character table", max_order=DEFAULT_TABLE_BOUND
               ).add_argument("--gcd", action="store_true",
                              help="append the gcd of non-trivial degrees")
    io_command("robba", "rank-one operator analysis", max_order=None)

    wd = sub.add_parser("weyl-dim", help="Weyl dimension of a highest weight")
    wd.add_argument("--family", required=True, type=_family_option,
                    choices=list(_VALID_RANKS))
    wd.add_argument("--rank", required=True, type=_integer_option)
    wd.add_argument("--weight", required=True,
                    help="'2rho' style multiples of rho, or coordinates 'a,b,c'")
    wd.add_argument("--output", default="-")

    vf = sub.add_parser("verify", help="run named acceptance suites")
    vf.add_argument("--suite", action="append", default=None,
                    help="suite name (repeatable); default: all")
    vf.add_argument("--jobs", type=_integer_option, default=1,
                    help="parallel suite workers")
    vf.add_argument("--seed", type=_integer_option, default=None,
                    help="reseed every corpus (default: built-in seeds)")
    vf.add_argument("--output", default="-")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = _read_payload(args) if "input" in args else None
        command = globals()["cmd_" + args.command.replace("-", "_")]
        report = command(payload, args)
        _write_payload(args, report)
    except ValueError as exc:  # InputError, GroupError, RepTheoryError, ...
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_VERIFY_FAIL if report.get("pass") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
