"""Command line front-end: JSON in, JSON (or SVG) out.

Exit codes: 0 success, 1 verification failure, 2 input error.  Inputs come
from --input PATH or stdin ("-"); outputs go to --output PATH or stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import jsonio
from .exactnum import is_prime, rational_from_str
from .filtered import (hasse_arf_check, herbrand_phi, newton_polygon,
                       slope_decomposition, swan_conductor, upper_from_lower)
from .groups import (GroupError, classify_wreath_subgroup, cyclic_rotations,
                     wreath_cyclic)
from .jsonio import InputError
from .newton import polygon_from_slopes
from .reptheory import (RepTheoryError, character_table, induce,
                        irreducible_dims_gcd, mackey_check, tensor_induce)
from .robba import (character_order, is_tame, p_power_reduce,
                    reduce as robba_reduce, residue, slope as robba_slope)
from .verify import SUITES, run_suites
from .weyl import build_root_system, weyl_dim

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT_ERROR = 2


def _read_payload(args) -> dict:
    source = getattr(args, "input", None) or "-"
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError("$", f"cannot read input: {exc}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"$:{exc.lineno}:{exc.colno}", exc.msg) from None
    if not isinstance(payload, dict):
        raise InputError("$", "top-level JSON must be an object")
    fmt = payload.get("format", jsonio.FORMAT_VERSION)
    if not jsonio.is_int(fmt) or fmt != jsonio.FORMAT_VERSION:
        raise InputError("$.format", f"unsupported format {fmt}")
    return payload


def _write_payload(args, payload: dict):
    payload = {"format": jsonio.FORMAT_VERSION, **payload}
    text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    target = getattr(args, "output", None) or "-"
    if target == "-":
        sys.stdout.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- SVG rendering of Newton polygons ---------------------------------------------


def render_polygon_svg(np_obj, width: int = 480, height: int = 360) -> str:
    """Static picture: axes, the polygon, its vertices, integer lattice dots."""
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


# -- subcommands -------------------------------------------------------------------


def cmd_np(args) -> int:
    payload = _read_payload(args)
    ms = jsonio.parse_slope_multiset(payload)
    poly = polygon_from_slopes(ms)
    out = jsonio.polygon_json(poly)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_polygon_svg(poly))
        out["svg"] = args.svg
    _write_payload(args, out)
    return EXIT_OK


def cmd_swan(args) -> int:
    payload = _read_payload(args)
    G, chain = jsonio.parse_break_chain(payload, max_order=args.max_order)
    chi = jsonio.parse_class_function(payload.get("character"), G, "$.character")
    dec = slope_decomposition(chain, chi)
    poly = newton_polygon(chain, chi)
    _write_payload(args, {
        "slopes": jsonio.slope_multiset_json(dec)["slopes"],
        "polygon": jsonio.polygon_json(poly),
        "swan": jsonio.rational_json(swan_conductor(chain, chi)),
        "hasse_arf": hasse_arf_check(chain, chi),
    })
    return EXIT_OK


def cmd_herbrand(args) -> int:
    payload = _read_payload(args)
    G, lower = jsonio.parse_lower_chain(payload, max_order=args.max_order)
    phi = herbrand_phi(lower)
    upper = upper_from_lower(lower)
    _write_payload(args, {
        "phi": {
            "breakpoints": [[jsonio.rational_json(x), jsonio.rational_json(y)]
                            for x, y in phi.vertices],
            "final_slope": jsonio.rational_json(phi.final_slope),
        },
        "upper": jsonio.break_chain_json(upper),
    })
    return EXIT_OK


def _parse_induction_payload(args):
    payload = _read_payload(args)
    G = jsonio.parse_group(payload.get("group"), max_order=args.max_order)
    H = jsonio.parse_subgroup(payload.get("subgroup"), G, "$.subgroup")
    chi = jsonio.parse_class_function(payload.get("character"), H.as_group,
                                      "$.character")
    return G, H, chi


def cmd_induce(args) -> int:
    G, H, chi = _parse_induction_payload(args)
    result = induce(chi, H)
    _write_payload(args, {"character": jsonio.class_function_json(result),
                          "degree": jsonio.rational_json(result.degree)})
    return EXIT_OK


def cmd_tind(args) -> int:
    G, H, chi = _parse_induction_payload(args)
    result = tensor_induce(chi, H)
    _write_payload(args, {"character": jsonio.class_function_json(result),
                          "degree": jsonio.rational_json(result.degree)})
    return EXIT_OK


def cmd_mackey(args) -> int:
    payload = _read_payload(args)
    G = jsonio.parse_group(payload.get("group"), max_order=args.max_order)
    H = jsonio.parse_subgroup(payload.get("subgroup"), G, "$.subgroup")
    V = jsonio.parse_class_function(payload.get("left"), H.as_group, "$.left")
    W = jsonio.parse_class_function(payload.get("right"), H.as_group, "$.right")
    try:
        ok, witness = mackey_check(V, W, H)
    except RepTheoryError as exc:
        raise InputError("$.subgroup", str(exc)) from None
    _write_payload(args, {"pass": ok, "witness": witness})
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_wreath(args) -> int:
    payload = _read_payload(args)
    base = jsonio.parse_group(payload.get("base"), "$.base", args.max_order)
    ell = payload.get("ell")
    if not jsonio.is_int(ell) or ell < 1:
        raise InputError("$.ell", "expected a positive integer")
    W = wreath_cyclic(base, ell)
    try:
        G = W.group(max_order=args.max_order)
    except GroupError as exc:
        raise InputError("$.ell", str(exc)) from None
    _write_payload(args, {
        "order": G.order,
        "class_count": len(G.conjugacy_classes),
    })
    return EXIT_OK


def cmd_classify(args) -> int:
    payload = _read_payload(args)
    wreath_obj = payload.get("wreath")
    if not isinstance(wreath_obj, dict):
        raise InputError("$.wreath", "expected an object")
    base = jsonio.parse_group(wreath_obj.get("base"), "$.wreath.base",
                              args.max_order)
    ell = wreath_obj.get("ell")
    if not jsonio.is_int(ell) or ell < 2:
        raise InputError("$.wreath.ell", "expected an integer >= 2")
    if not is_prime(ell):
        raise InputError("$.wreath.ell", f"top degree ell = {ell} must be prime")
    W = wreath_cyclic(base, ell)
    gens = payload.get("generators")
    if not isinstance(gens, list) or not gens:
        raise InputError("$.generators", "expected a non-empty list")
    raws = []
    for i, g in enumerate(gens):
        path = f"$.generators[{i}]"
        if (not isinstance(g, list) or len(g) != 2
                or not jsonio.is_int(g[0])
                or not isinstance(g[1], list)
                or len(g[1]) != ell
                or not all(jsonio.is_int(x) and 0 <= x < base.order
                           for x in g[1])):
            raise InputError(path, "expected [rotation, [base indices...]]")
        rot = cyclic_rotations(ell)[g[0] % ell]
        raws.append((rot, tuple(g[1])))
    gbar = W.subgroup_from_raw(raws, max_order=args.max_order)
    report = classify_wreath_subgroup(W, gbar)
    _write_payload(args, {
        "case": report.case,
        "abelian_base": report.abelian_base,
        "goursat_full": report.goursat.full,
        "subgroup_order": gbar.order,
        "normal_subgroup_orders": list(report.normal_subgroup_orders),
        "max_normal_chain_length": report.max_normal_chain_length,
        "chain_bound_ok": report.chain_bound_ok,
        "trichotomy_ok": report.trichotomy_ok,
        "direct_product": report.direct_product,
    })
    return EXIT_OK


def cmd_table(args) -> int:
    payload = _read_payload(args)
    G = jsonio.parse_group(payload.get("group"), max_order=args.max_order)
    table = character_table(G, max_order=args.max_order)
    out = {
        "order": G.order,
        "class_representatives": list(G.class_representatives),
        "class_sizes": [len(c) for c in G.conjugacy_classes],
        "degrees": list(table.degrees),
        "irreducibles": [jsonio.class_function_json(chi)
                         for chi in table.irreducibles],
    }
    if args.gcd:
        out["nontrivial_dims_gcd"] = irreducible_dims_gcd(G)
    _write_payload(args, out)
    return EXIT_OK


def cmd_robba(args) -> int:
    payload = _read_payload(args)
    op = jsonio.parse_rank_one_operator(payload)
    red = robba_reduce(op)
    n_power, tame_res = p_power_reduce(op)
    out = {
        "reduced": jsonio.rank_one_operator_json(red),
        "slope": jsonio.rational_json(robba_slope(op)),
        "residue": jsonio.rational_json(residue(op)),
        "tame": is_tame(op),
        "p_power_N": n_power,
        "p_power_residue": jsonio.rational_json(tame_res),
        "character_order": character_order(op) if is_tame(op) else None,
    }
    _write_payload(args, out)
    return EXIT_OK


def _parse_weight(text: str, rs):
    text = text.strip()
    if text.endswith("rho"):
        head = text[:-3]
        mult = rational_from_str(head) if head else Fraction(1)
        if mult.denominator != 1:
            raise InputError("$.weight", "rho multiples must be integers")
        return rs.rho_multiple(mult.numerator)
    try:
        return tuple(rational_from_str(c) for c in text.split(","))
    except ValueError:
        raise InputError("$.weight",
                         "expected 'Nrho' or comma-separated coordinates") from None


def cmd_weyl_dim(args) -> int:
    try:
        rs = build_root_system(args.family, args.rank)
    except ValueError as exc:
        raise InputError("$.family", str(exc)) from None
    weight = _parse_weight(args.weight, rs)
    try:
        dim = weyl_dim(rs, weight)
    except ValueError as exc:
        raise InputError("$.weight", str(exc)) from None
    _write_payload(args, {
        "family": args.family,
        "rank": args.rank,
        "positive_roots": rs.num_positive_roots,
        "dimension": dim,
    })
    return EXIT_OK


def cmd_verify(args) -> int:
    names = args.suite
    if not names or "all" in names:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise InputError("$.suite", f"unknown suites: {', '.join(unknown)}; "
                         f"known: {', '.join(SUITES)}")
    if args.jobs < 1:
        raise InputError("--jobs", f"expected a positive integer, got {args.jobs}")
    results = run_suites(names, jobs=args.jobs, seed=args.seed)
    for r in results:
        print(r.line(), file=sys.stderr)
    ok = all(r.passed and r.within_time for r in results)
    _write_payload(args, {
        "pass": ok,
        "suites": [
            {"name": r.name, "pass": r.passed, "elapsed": round(r.elapsed, 3),
             "time_limit": r.time_limit, "within_time": r.within_time,
             "detail": r.detail}
            for r in results
        ],
    })
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopeforge",
        description="Exact computations with slope data on finite groups, "
                    "Newton polygons, rank-one p-adic operators and root systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def io_args(p, svg=False):
        p.add_argument("--input", default="-", help="input JSON path or - for stdin")
        p.add_argument("--output", default="-", help="output JSON path or - for stdout")
        p.add_argument("--seed", type=int, default=0, help="corpus seed")
        p.add_argument("--max-order", type=int, default=10000,
                       help="group enumeration bound")
        if svg:
            p.add_argument("--svg", default=None, help="also render an SVG here")
        return p

    io_args(sub.add_parser("np", help="slope multiset -> Newton polygon"), svg=True
            ).set_defaults(func=cmd_np)
    io_args(sub.add_parser("swan", help="break chain + character -> Swan data")
            ).set_defaults(func=cmd_swan)
    io_args(sub.add_parser("herbrand", help="lower chain -> transition + upper chain")
            ).set_defaults(func=cmd_herbrand)
    io_args(sub.add_parser("induce", help="induced character")
            ).set_defaults(func=cmd_induce)
    io_args(sub.add_parser("tind", help="tensor-induced character")
            ).set_defaults(func=cmd_tind)
    io_args(sub.add_parser("mackey", help="product-of-inductions identity check")
            ).set_defaults(func=cmd_mackey)
    io_args(sub.add_parser("wreath", help="cyclic wreath product summary")
            ).set_defaults(func=cmd_wreath)
    io_args(sub.add_parser("classify", help="classify a subgroup of a cyclic wreath")
            ).set_defaults(func=cmd_classify)
    table_parser = io_args(sub.add_parser("table", help="character table"))
    table_parser.add_argument("--gcd", action="store_true",
                              help="append the gcd of non-trivial degrees")
    table_parser.set_defaults(func=cmd_table, max_order=2000)
    io_args(sub.add_parser("robba", help="rank-one operator analysis")
            ).set_defaults(func=cmd_robba)

    wd = sub.add_parser("weyl-dim", help="Weyl dimension of a highest weight")
    wd.add_argument("--family", required=True, choices=list("ABCDEFG"))
    wd.add_argument("--rank", required=True, type=int)
    wd.add_argument("--weight", required=True,
                    help="'2rho' style multiples of rho, or coordinates 'a,b,c'")
    wd.add_argument("--output", default="-")
    wd.set_defaults(func=cmd_weyl_dim)

    vf = sub.add_parser("verify", help="run named acceptance suites")
    vf.add_argument("--suite", action="append", default=None,
                    help="suite name (repeatable); default: all")
    vf.add_argument("--jobs", type=int, default=1, help="parallel suite workers")
    vf.add_argument("--seed", type=int, default=None,
                    help="reseed every corpus (default: built-in seeds)")
    vf.add_argument("--output", default="-")
    vf.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (GroupError, RepTheoryError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
