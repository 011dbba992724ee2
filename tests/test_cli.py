import argparse
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from slopeforge import cli, verify
from slopeforge.cli import main
from slopeforge.corpus import abelian_groups_up_to_64, group_zoo_up_to_100
from slopeforge.groups import (DEFAULT_MAX_ORDER, alternating_group,
                               cyclic_group, dihedral_group, direct_product,
                               elementary_abelian_group, group_from_permutations,
                               heisenberg_group, quaternion_group, symmetric_group)
from slopeforge.exactnum import Cyclotomic, euler_phi, lift_coeffs
from slopeforge.jsonio import (InputError, parse_cyclotomic, parse_group,
                               parse_rational)
from slopeforge.reptheory import DEFAULT_TABLE_BOUND, character_table
from slopeforge.verify import run_suites


def run_cli(args, capsys, payload=None, monkeypatch=None, tmp_path=None):
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        args = args + ["--input", str(path)]
    code = main(args)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    return code, out, captured.err


class TestNewtonCommand:
    def test_polygon(self, capsys, tmp_path):
        code, out, _ = run_cli(["np"], capsys, {"slopes": [["1/2", 2]]},
                               tmp_path=tmp_path)
        assert code == 0
        assert out["vertices"] == [["0", "0"], ["2", "1"]]
        assert out["height"] == "1"
        assert out["integral"] is True
        assert out["format"] == 1

    def test_svg(self, capsys, tmp_path):
        svg_path = tmp_path / "poly.svg"
        code, out, _ = run_cli(["np", "--svg", str(svg_path)], capsys,
                               {"slopes": [["0", 1], ["2", 2]]},
                               tmp_path=tmp_path)
        assert code == 0
        text = svg_path.read_text()
        assert text.startswith("<svg") and "polyline" in text
        # vertices (0,0), (1,0), (3,4): a 4 x 5 lattice of dots
        assert text.count('r="1.5"') == 4 * 5
        # written through a temporary file that is renamed into place
        assert sorted(p.name for p in tmp_path.iterdir()) == ["input.json", "poly.svg"]

    def test_svg_past_the_dot_budget(self, capsys, tmp_path):
        # height 90000: 301 x 90001 lattice points, far past the budget
        svg_path = tmp_path / "tall.svg"
        start = time.perf_counter()
        code, out, _ = run_cli(["np", "--svg", str(svg_path)], capsys,
                               {"slopes": [["300", 300]]}, tmp_path=tmp_path)
        assert time.perf_counter() - start < 2
        assert code == 0 and out["height"] == "90000"
        text = svg_path.read_text()
        assert text.startswith("<svg") and text.endswith("</svg>")
        assert "polyline" in text and 'r="1.5"' not in text

    def test_svg_past_the_float_range(self, capsys, tmp_path):
        svg_path = tmp_path / "huge.svg"
        code, out, err = run_cli(["np", "--svg", str(svg_path)], capsys,
                                 {"slopes": [["1" + "0" * 400, 1]]}, tmp_path=tmp_path)
        assert code == 2 and out is None and not svg_path.exists()
        assert err.startswith("input error: $.slopes: polygon too large to draw")

    # the height 9...9 * 10^k has 2k digits: 4000 are written, 8000 would
    # pass the 4300 that str(int) allows
    @pytest.mark.parametrize("k", [2000, 4000])
    def test_height_past_the_digit_limit_is_refused_at_the_slopes(
            self, capsys, tmp_path, k):
        start = time.perf_counter()
        code, out, err = run_cli(["np"], capsys, {"slopes": [["9" * k, 10**k]]},
                                 tmp_path=tmp_path)
        assert time.perf_counter() - start < 0.5
        if k == 2000:
            assert code == 0 and out["height"] == "9" * k + "0" * k
            assert out["vertices"][1] == [str(10**k), "9" * k + "0" * k]
        else:
            assert code == 2 and out is None
            assert err == ("input error: $.slopes: the polygon's coordinates "
                           "may pass 4300 digits\n")

    @pytest.mark.parametrize("option", ["--output", "--svg"])
    def test_unwritable_path_exits_2(self, capsys, tmp_path, option):
        target = str(tmp_path / "missing" / "out")
        code, out, err = run_cli(["np", option, target], capsys,
                                 {"slopes": [["1/2", 2]]}, tmp_path=tmp_path)
        assert code == 2 and out is None
        assert err.startswith(f"input error: {option}: cannot write {target}")

    def test_malformed_input_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(["np"], capsys, {"slopes": [["x", 2]]},
                               tmp_path=tmp_path)
        assert code == 2
        assert "slopes[0][0]" in err

    def test_invalid_json_position(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"slopes\": [")
        code = main(["np", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and "input error" in err


class TestSwanCommand:
    def test_sign_character(self, capsys, tmp_path):
        payload = {
            "group": {"permutation_generators": [[2, 1]]},
            "breaks": ["1"],
            "subgroups": [[0, 1]],
            "character": {"values": ["1", "-1"]},
        }
        code, out, _ = run_cli(["swan"], capsys, payload, tmp_path=tmp_path)
        assert code == 0
        assert out["swan"] == "1"
        assert out["hasse_arf"] is True
        assert out["slopes"] == [["1", 1]]

    def test_fractional_break(self, capsys, tmp_path):
        payload = {
            "group": {"permutation_generators": [[2, 1]]},
            "breaks": ["1/2"],
            "subgroups": [[0, 1]],
            "character": {"values": ["1", "-1"]},
        }
        code, out, _ = run_cli(["swan"], capsys, payload, tmp_path=tmp_path)
        assert code == 0
        assert out["swan"] == "1/2"
        assert out["hasse_arf"] is False


class TestHerbrandCommand:
    def test_c4_chain(self, capsys, tmp_path):
        payload = {
            "group": {"permutation_generators": [[2, 3, 4, 1]]},
            "lower": [[0, 1, 2, 3]] * 3 + [[0, 2]] * 3,
        }
        code, out, _ = run_cli(["herbrand"], capsys, payload, tmp_path=tmp_path)
        assert code == 0
        assert out["phi"]["breakpoints"] == [["0", "0"], ["2", "2"], ["5", "7/2"]]
        assert out["phi"]["final_slope"] == "1/4"
        assert out["upper"]["breaks"] == ["2", "7/2"]
        assert out["upper"]["subgroups"] == [[0, 1, 2, 3], [0, 2]]


class TestInductionCommands:
    def _s3_payload(self):
        return {
            "group": {"permutation_generators": [[2, 1, 3], [2, 3, 1]]},
            "subgroup": [0, 3, 4],
        }

    def test_induce(self, capsys, tmp_path):
        payload = self._s3_payload()
        payload["character"] = {"values": [
            "1",
            {"conductor": 3, "coefficients": ["0", "1"]},
            {"conductor": 3, "coefficients": ["-1", "-1"]},
        ]}
        code, out, _ = run_cli(["induce"], capsys, payload, tmp_path=tmp_path)
        assert code == 0
        assert out["degree"] == "2"
        assert out["character"]["values"] == ["2", "0", "-1"]

    def test_tind_degree(self, capsys, tmp_path):
        payload = self._s3_payload()
        payload["character"] = {"values": [
            "1",
            {"conductor": 3, "coefficients": ["0", "1"]},
            {"conductor": 3, "coefficients": ["-1", "-1"]},
        ]}
        code, out, _ = run_cli(["tind"], capsys, payload, tmp_path=tmp_path)
        assert code == 0
        assert out["degree"] == "1"

    def test_mackey_pass(self, capsys, tmp_path):
        payload = self._s3_payload()
        omega = {"values": [
            "1",
            {"conductor": 3, "coefficients": ["0", "1"]},
            {"conductor": 3, "coefficients": ["-1", "-1"]},
        ]}
        payload["left"] = omega
        payload["right"] = omega
        code, out, _ = run_cli(["mackey"], capsys, payload, tmp_path=tmp_path)
        assert code == 0
        assert out["pass"] is True

    def test_induce_wire_format_of_non_integral_values_is_pinned(self, capsys,
                                                                 tmp_path):
        payload = self._s3_payload()
        payload["character"] = {"values": [
            "1",
            {"conductor": 3, "coefficients": ["1/2", "-2/3"]},
            {"conductor": 3, "coefficients": ["-1", "-1"]},
        ]}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert main(["induce", "--input", str(path)]) == 0
        assert capsys.readouterr().out == (
            '{\n  "format": 1,\n  "character": {\n    "values": [\n'
            '      "2",\n      "0",\n      {\n        "conductor": 3,\n'
            '        "coefficients": [\n          "-1/2",\n          "-5/3"\n'
            '        ]\n      }\n    ]\n  },\n  "degree": "2"\n}\n')

    def test_mackey_witness_of_non_integral_values_is_pinned(self, capsys,
                                                             tmp_path):
        payload = self._s3_payload()
        payload["left"] = {"values": [
            "1",
            {"conductor": 3, "coefficients": ["1/2", "-2/3"]},
            {"conductor": 3, "coefficients": ["-1", "-1"]},
        ]}
        payload["right"] = {"values": [
            "1",
            {"conductor": 3, "coefficients": ["0", "1"]},
            {"conductor": 3, "coefficients": ["-1", "-1"]},
        ]}
        code, out, _ = run_cli(["mackey"], capsys, payload, tmp_path=tmp_path)
        assert code == 0
        assert out["witness"] == {"lhs": ["4", "0", "z3:[1/2,5/3]"],
                                  "rhs": ["4", "0", "z3:[1/2,5/3]"]}


def broken_c400_table():
    """C400's table with one intercalate swapped: still a Latin square with
    an identity, but not associative."""
    table = [[(a + b) % 400 for b in range(400)] for a in range(400)]
    # rows and columns 1 and 201 meet in 2 and 202, crosswise
    table[1][1] = table[201][201] = 202
    table[1][201] = table[201][1] = 2
    return table


class TestGroupCommands:
    def test_index_two_chain_of_a_large_elementary_abelian_group(self, capsys,
                                                                 tmp_path):
        # E2^12 on 24 points; checking the index-2 subgroup on all |H|^2
        # products made this request take over a minute
        gens = [[j ^ 1 if j // 2 == i else j for j in range(24)] for i in range(12)]
        G = group_from_permutations([tuple(g) for g in gens])
        half = [i for i, p in enumerate(G.elements) if p[0] == 0]
        payload = {"group": {"permutation_generators": [[x + 1 for x in g]
                                                        for g in gens]},
                   "lower": [list(range(G.order)), half]}
        start = time.perf_counter()
        code, out, _ = run_cli(["herbrand"], capsys, payload, tmp_path=tmp_path)
        assert time.perf_counter() - start < 2
        assert code == 0
        assert out["upper"] == {"breaks": ["1/2"], "subgroups": [half]}

    def test_wreath_summary(self, capsys, tmp_path):
        payload = {"base": {"permutation_generators": [[2, 3, 1]]}, "ell": 2}
        code, out, _ = run_cli(["wreath"], capsys, payload, tmp_path=tmp_path)
        assert code == 0
        assert out["order"] == 18 and out["class_count"] == 9

    def test_classify_abelian_diagonal(self, capsys, tmp_path):
        payload = {
            "wreath": {"base": {"permutation_generators": [[2, 3, 1]]}, "ell": 2},
            "generators": [[1, [0, 0]], [0, [1, 1]]],
        }
        code, out, _ = run_cli(["classify"], capsys, payload, tmp_path=tmp_path)
        assert code == 0
        assert out["case"] == "semidirect"
        assert out["abelian_base"] is True
        assert out["direct_product"] is True

    def test_table_with_gcd(self, capsys, tmp_path):
        payload = {"group": {"permutation_generators": [[2, 1, 3], [2, 3, 1]]}}
        code, out, _ = run_cli(["table", "--gcd"], capsys, payload,
                               tmp_path=tmp_path)
        assert code == 0
        assert sorted(out["degrees"]) == [1, 1, 2]
        assert out["nontrivial_dims_gcd"] == 1
        assert sum(d * d for d in out["degrees"]) == out["order"]

    def test_table_bound(self, capsys, tmp_path):
        payload = {"group": {"permutation_generators": [[2, 1, 3], [2, 3, 1]]}}
        code, _, err = run_cli(["table", "--max-order", "2"], capsys, payload,
                               tmp_path=tmp_path)
        assert code == 2 and "bound" in err

    def test_gcd_reads_the_max_order_bound(self, capsys, tmp_path):
        # A7, of order 2520, is past the default table bound 2000
        payload = {"group": {"permutation_generators": [[2, 3, 1, 4, 5, 6, 7],
                                                        [2, 3, 4, 5, 6, 7, 1]]}}
        code, out, err = run_cli(["table", "--gcd", "--max-order", "3000"], capsys,
                                 payload, tmp_path=tmp_path)
        assert code == 0, err
        assert out["order"] == 2520 and out["nontrivial_dims_gcd"] == 1


class TestRobbaCommand:
    def test_wild_operator(self, capsys, tmp_path):
        payload = {"p": 3, "coefficients": ["1/2", "1"]}
        code, out, _ = run_cli(["robba"], capsys, payload, tmp_path=tmp_path)
        assert code == 0
        assert out["slope"] == "1"
        assert out["p_power_N"] == 1
        assert out["tame"] is False
        assert out["character_order"] is None

    def test_tame_operator(self, capsys, tmp_path):
        payload = {"p": 3, "coefficients": ["1/2", "9"]}
        code, out, _ = run_cli(["robba"], capsys, payload, tmp_path=tmp_path)
        assert code == 0
        assert out["slope"] == "0"
        assert out["tame"] is True
        assert out["character_order"] == 2
        assert out["reduced"]["coefficients"] == ["1/2"]

    def test_large_prime_is_refused_before_any_primality_test(self, capsys, tmp_path):
        # 10^18 + 3 is prime: trial division up to its square root never ends
        payload = {"p": 1_000_000_000_000_000_003, "coefficients": ["1/2"]}
        start = time.perf_counter()
        code, out, err = run_cli(["robba"], capsys, payload, tmp_path=tmp_path)
        assert time.perf_counter() - start < 1
        assert code == 2 and out is None
        assert err.startswith("input error: $.p:") and len(err.encode()) < 200

    def test_prime_at_the_bound_is_accepted(self, capsys, tmp_path):
        payload = {"p": 2**31 - 1, "coefficients": ["1/2", "1"]}
        code, out, _ = run_cli(["robba"], capsys, payload, tmp_path=tmp_path)
        assert code == 0 and out["reduced"]["p"] == 2**31 - 1


class TestWeylCommand:
    def test_two_rho(self, capsys):
        code = main(["weyl-dim", "--family", "A", "--rank", "2", "--weight", "2rho"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["dimension"] == 27

    def test_explicit_coordinates(self, capsys):
        code = main(["weyl-dim", "--family", "A", "--rank", "1",
                     "--weight", "1,-1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["dimension"] == 3

    def test_invalid_family(self, capsys):
        code = main(["weyl-dim", "--family", "D", "--rank", "2",
                     "--weight", "2rho"])
        assert code == 2

    @pytest.mark.parametrize("family, rank", [("A", 16), ("B", 11), ("A", 10**9)])
    def test_more_positive_roots_than_e8_are_refused(self, capsys, family, rank):
        # A16 has 136 positive roots, B11 121 and E8 120
        start = time.perf_counter()
        code = main(["weyl-dim", "--family", family, "--rank", str(rank),
                     "--weight", "2rho"])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("input error: --rank:")
        assert len(captured.err.encode()) < 200

    def test_rank_at_the_bound_is_accepted(self, capsys):
        # B10 has 100 positive roots; dim V(2 rho) = 3^100
        code = main(["weyl-dim", "--family", "B", "--rank", "10", "--weight", "2rho"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["dimension"] == 3**100

    @pytest.mark.parametrize("weight", ["-" + "9" * 400 + ",1", "-1,1"],
                             ids=["400-digits", "short"])
    def test_weight_that_is_not_dominant_is_shown_bounded(self, capsys, weight):
        code = main(["weyl-dim", "--family", "A", "--rank", "1", f"--weight={weight}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("input error: $.weight: weight ")
        assert captured.err.count("\n") == 1 and len(captured.err.encode()) <= 300
        assert "Fraction(" not in captured.err

    def test_unparsed_rho_multiple_names_the_weight(self, capsys):
        code = main(["weyl-dim", "--family", "A", "--rank", "1", "--weight", "xrho"])
        assert code == 2
        assert capsys.readouterr().err.startswith("input error: $.weight:")

    @pytest.mark.parametrize("argv", [
        ["weyl-dim", "--family", "A", "--weight", "2rho", "--rank"],
        ["table", "--max-order"],
        ["verify", "--suite", "weyl-dimension", "--jobs"],
        ["verify", "--suite", "weyl-dimension", "--seed"],
        ["weyl-dim", "--rank", "1", "--weight", "2rho", "--family"],
    ], ids=["rank", "max-order", "jobs", "seed", "family"])
    def test_option_past_the_digit_limit_is_shown_bounded(self, capsys, argv):
        # argparse echoes a refused value whole: 5000 digits made 5197 bytes
        value = "9" * 5000
        with pytest.raises(SystemExit) as exc:
            main(argv + [value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage: slopeforge ") and f"{argv[-1]}: invalid " in err
        assert len(err.encode()) < 300

    # dim V(k rho) = (k + 1)^120 on E8: 10^35 rho has 4201 digits, 10^36 rho
    # would have 4321, past the 4300 that str(int) allows; 10^36 omega_1
    # pairs with 15 of A15's 120 coroots, and C(10^36 + 15, 15) has 530
    @pytest.mark.parametrize("family, rank, weight, dim", [
        ("E", "8", f"1{'0' * 35}rho", (10**35 + 1) ** 120),
        ("E", "8", f"1{'0' * 36}rho", None),
        ("A", "15", ",".join([str(10**36)] + ["0"] * 15), math.comb(10**36 + 15, 15)),
    ], ids=["E8-35", "E8-36", "A15-omega1"])
    def test_dimension_past_the_digit_limit_is_refused_at_the_weight(
            self, capsys, family, rank, weight, dim):
        start = time.perf_counter()
        got = main(["weyl-dim", "--family", family, "--rank", rank, "--weight", weight])
        captured = capsys.readouterr()
        assert got == (2 if dim is None else 0) and time.perf_counter() - start < 0.5
        if dim is not None:
            assert json.loads(captured.out)["dimension"] == dim
        else:
            assert captured.out == ""
            assert captured.err.startswith("input error: $.weight: the dimension ")
            assert captured.err.count("\n") == 1 and len(captured.err.encode()) <= 300

    def test_rank_below_the_digit_limit_gets_the_rank_refusal(self, capsys):
        code = main(["weyl-dim", "--family", "A", "--rank", "9" * 4000,
                     "--weight", "2rho"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("input error: --rank:")
        assert err.count("\n") == 1 and len(err.encode()) < 200


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code = main(["verify", "--suite", "weyl-dimension"])
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert code == 0
        assert out["pass"] is True
        assert out["suites"][0]["name"] == "weyl-dimension"
        assert "PASS weyl-dimension" in captured.err

    def test_unknown_suite(self, capsys):
        code = main(["verify", "--suite", "nonsense"])
        assert code == 2

    @pytest.mark.parametrize("argv, prefix, whole", [
        (["verify", "--suite", "x" * 1000], "input error: $.suite: unknown suites: ",
         None),
        (["np", "--output", "/nonexistent/" + "y" * 1000],
         "input error: --output: cannot write ", None),
        (["verify", "--suite", "weyl", "--suite", "xyz"],
         "input error: $.suite: unknown suites: ", "weyl, xyz;"),
        (["np", "--output", "/nonexistent/" + "y" * 180],
         "input error: --output: cannot write ", "/nonexistent/" + "y" * 180 + ":"),
    ], ids=["suite", "output", "short-suite", "short-output"])
    def test_long_echo_is_shown_bounded(self, capsys, tmp_path, argv, prefix, whole):
        # the whole value was echoed: 1285 bytes for the suite, 1077 for the
        # path; a value is still echoed whole while the line fits
        if argv[0] == "np":
            path = tmp_path / "input.json"
            path.write_text(json.dumps({"slopes": [["1/2", 2]]}))
            argv = argv + ["--input", str(path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(prefix + (whole or ""))
        assert ("..." in captured.err) == (whole is None)
        assert captured.err.count("\n") == 1 and len(captured.err.encode()) <= 300


S3_GENS = [[2, 1, 3], [2, 3, 1]]
C3_BASE = {"permutation_generators": [[2, 3, 1]]}
C12_GEN = list(range(2, 13)) + [1]


class TestRedundantGenerators:
    @pytest.mark.parametrize("command, plain, redundant", [
        # (1 3) lies in <(1 2), (1 2 3)>, and (1 2) is given twice
        ("table", {"group": {"permutation_generators": S3_GENS}},
         {"group": {"permutation_generators": S3_GENS + [[3, 2, 1], [2, 1, 3]]}}),
        ("wreath", {"base": {"permutation_generators": S3_GENS}, "ell": 2},
         {"base": {"permutation_generators": S3_GENS + [[3, 2, 1]]}, "ell": 2}),
        # S3 inside C3 wr C2 from the swap and a base element it inverts;
        # their product, given third, is generated by them
        ("classify", {"wreath": {"base": C3_BASE, "ell": 2},
                      "generators": [[1, [0, 0]], [0, [1, 2]]]},
         {"wreath": {"base": C3_BASE, "ell": 2},
          "generators": [[1, [0, 0]], [0, [1, 2]], [1, [1, 2]]]}),
    ])
    def test_s3_reports_the_same_with_a_redundant_generator(
            self, capsys, tmp_path, command, plain, redundant):
        reports = [run_cli([command], capsys, payload, tmp_path=tmp_path)
                   for payload in (plain, redundant)]
        assert reports[0] == reports[1] and reports[0][0] == 0
        assert command != "classify" or reports[0][1]["subgroup_order"] == 6


class TestInputBoundary:
    """Malformed payloads exit 2 with an error naming the JSON path, never a
    traceback; JSON true/false are not integers."""

    @pytest.mark.parametrize("command, payload, path", [
        ("table", {"group": {"cayley_table": [1, 2]}}, "$.group.cayley_table"),
        ("table", {"group": {"cayley_table": [[True, False], [False, True]]}},
         "$.group.cayley_table"),
        ("np", {"slopes": [["1/2", True]]}, "$.slopes[0][1]"),
        ("np", {"format": True, "slopes": [["1/2", 2]]}, "$.format"),
        ("np", {"slopes": [[True, 1]]}, "$.slopes[0][0]"),
        ("table", {"group": {"permutation_generators": [[2, True]]}},
         "$.group.permutation_generators[0]"),
        ("induce", {"group": {"permutation_generators": S3_GENS},
                    "subgroup": [False, 3, 4],
                    "character": {"values": ["1", "1", "1"]}}, "$.subgroup"),
        ("induce", {"group": {"permutation_generators": S3_GENS},
                    "subgroup": [0, 3, 4],
                    "character": {"values": [
                        "1", {"conductor": True, "coefficients": ["1"]}, "1"]}},
         "$.character.values[1].conductor"),
        ("robba", {"p": True, "coefficients": ["1"]}, "$.p"),
        ("wreath", {"base": C3_BASE, "ell": True}, "$.ell"),
        ("classify", {"wreath": {"base": C3_BASE, "ell": True},
                      "generators": [[1, [0, 0]]]}, "$.wreath.ell"),
        ("classify", {"wreath": {"base": C3_BASE, "ell": 2},
                      "generators": [[True, [0, 0]]]}, "$.generators[0]"),
        ("classify", {"wreath": {"base": C3_BASE, "ell": 2},
                      "generators": [[1, [0, True]]]}, "$.generators[0]"),
        # raised below the parsers: a composite ell, an order past the
        # bound (9 * 3^9 = 177147), a subgroup that is not normal
        ("classify", {"wreath": {"base": C3_BASE, "ell": 4},
                      "generators": [[1, [0, 0, 0, 0]]]}, "$.wreath.ell"),
        ("wreath", {"base": C3_BASE, "ell": 9}, "$.ell"),
        ("mackey", {"group": {"permutation_generators": S3_GENS},
                    "subgroup": [0, 1], "left": {"values": ["1", "1"]},
                    "right": {"values": ["1", "1"]}}, "$.subgroup"),
        # the refusals of the wreath classifier: a base that is not simple
        # (C4), generators that miss the top rotation, a closure past the
        # bound (C3 wr C7 has order 7 * 3^7 = 15309)
        ("classify", {"wreath": {"base": {"permutation_generators": [[2, 3, 4, 1]]},
                                 "ell": 2},
                      "generators": [[1, [0, 0]]]}, "$.wreath.base"),
        ("classify", {"wreath": {"base": C3_BASE, "ell": 2},
                      "generators": [[0, [1, 0]]]}, "$.generators"),
        ("classify", {"wreath": {"base": C3_BASE, "ell": 7},
                      "generators": [[1, [0] * 7], [0, [1] + [0] * 6]]}, "$.generators"),
        # class functions that are not characters: a value 1/3 on C12, a
        # value zeta_3 on C2, a degree zeta_3 on C2
        ("swan", {"group": {"permutation_generators": [C12_GEN]}, "breaks": ["1"],
                  "subgroups": [list(range(12))],
                  "character": {"values": ["1", "1/3"] + ["1"] * 10}}, "$.character"),
        ("swan", {"group": {"permutation_generators": [[2, 1]]}, "breaks": ["1"],
                  "subgroups": [[0, 1]],
                  "character": {"values": ["1", {"conductor": 3,
                                                 "coefficients": ["0", "1"]}]}},
         "$.character"),
        ("swan", {"group": {"permutation_generators": [[2, 1]]}, "breaks": ["1"],
                  "subgroups": [[0, 1]],
                  "character": {"values": [{"conductor": 3,
                                            "coefficients": ["0", "1"]}, "1"]}},
         "$.character"),
        # exponents, "_" and decimals are not rationals of the wire format
        ("np", {"slopes": [["1e4000", 1]]}, "$.slopes[0][0]"),
        ("np", {"slopes": [["1e10000000", 1]]}, "$.slopes[0][0]"),
        ("np", {"slopes": [["1_0", 1]]}, "$.slopes[0][0]"),
        ("np", {"slopes": [["0.5", 1]]}, "$.slopes[0][0]"),
        # a negative slope refused below the parser, shown in bounded form
        ("np", {"slopes": [["-" + "9" * 4000, 1]]}, "$.slopes"),
        # values at coprime conductors 7, 9, 11, 13, 15 on C8 need Q(zeta_n)
        # with n = 360360, but the chain only reaches classes 0 and 4
        ("swan", {"group": {"permutation_generators": [list(range(2, 9)) + [1]]},
                  "breaks": ["1"], "subgroups": [[0, 4]],
                  "character": {"values": ["1", "1"] + [
                      {"conductor": n, "coefficients": ["0", "1"]}
                      for n in (7, 9, 11, 13, 15)] + ["1"]}}, "$.character"),
        # the same values on the chain [C8], which reaches every class: the
        # lcm 360360 of their conductors is above 2|G| = 16, so they are
        # refused before any sum in Q(zeta_360360)
        ("swan", {"group": {"permutation_generators": [list(range(2, 9)) + [1]]},
                  "breaks": ["1"], "subgroups": [list(range(8))],
                  "character": {"values": ["1", "1"] + [
                      {"conductor": n, "coefficients": ["0", "1"]}
                      for n in (7, 9, 11, 13, 15)] + ["1"]}}, "$.character"),
        # refusals that echo an input value show it in bounded form
        ("np", {"format": "x" * 400, "slopes": [["1/2", 2]]}, "$.format"),
        ("np", {"format": list(range(200)), "slopes": [["1/2", 2]]}, "$.format"),
        ("robba", {"p": 3, "coefficients": ["1/" + "9" * 300]}, "$"),
        ("robba", {"p": 10**3000, "coefficients": ["1"]}, "$.p"),
        # a Latin square with an identity that is not associative: sampling
        # 4096 triples above order 64 took it for a group of order 400
        ("wreath", {"base": {"cayley_table": broken_c400_table()}, "ell": 1},
         "$.base.cayley_table"),
        ("table", {"group": {"cayley_table": broken_c400_table()}},
         "$.group.cayley_table"),
        # raised below the parsers: the trivial group has no --gcd
        ("table --gcd", {"group": {"permutation_generators": [[1]]}}, "$.group"),
        # a value zeta_5 on S3: lcm(6, 5) = 30 is above 2|G| = 12, though the
        # chain's invariant dimensions are non-negative integers
        ("swan", {"group": {"permutation_generators": [[2, 3, 1], [2, 1, 3]]},
                  "breaks": ["1"], "subgroups": [[0, 3, 4]],
                  "character": {"values": ["2", {"conductor": 5,
                                                 "coefficients": ["0", "1"]},
                                           "-1"]}}, "$.character"),
        # C100's table holds up to 100 * 2502 coefficients, past the bound
        ("table", {"group": {"permutation_generators": [list(range(2, 101)) + [1]]}},
         "$.group"),
    ])
    def test_exit_2_names_path(self, capsys, tmp_path, command, payload, path):
        code, out, err = run_cli(command.split(), capsys, payload, tmp_path=tmp_path)
        assert code == 2 and out is None
        assert f"input error: {path}:" in err
        assert len(err.encode()) < 200
        assert "ClassFunction(" not in err and "Cyclotomic(" not in err

    @pytest.mark.parametrize("conductor", [27720, 720720])
    def test_conductor_is_bounded_by_twice_the_order(self, capsys, tmp_path, conductor):
        # Phi_n costs time quadratic in n; on C2 no conductor above 4 is read
        payload = {"group": {"permutation_generators": [[2, 1]]}, "breaks": ["1"],
                   "subgroups": [[0, 1]],
                   "character": {"values": ["1", {"conductor": conductor,
                                                  "coefficients": ["0", "1"]}]}}
        start = time.perf_counter()
        code, out, err = run_cli(["swan"], capsys, payload, tmp_path=tmp_path)
        assert time.perf_counter() - start < 1
        assert code == 2 and out is None
        assert err.startswith("input error: $.character.values[1].conductor:")
        assert len(err.encode()) < 200

    def test_denominators_past_the_digit_limit_are_refused(self, capsys, tmp_path):
        # 200 coprime 2000-digit denominators: their lcm took 10 s to build
        coeffs = [f"1/{10**1999 + 2 * k + 1}" for k in range(200)]
        payload = {"group": {"permutation_generators": [[2, 3, 1]]}, "breaks": ["1"],
                   "subgroups": [[0, 1, 2]],
                   "character": {"values": ["1", {"conductor": 3,
                                                  "coefficients": coeffs}, "1"]}}
        start = time.perf_counter()
        code, out, err = run_cli(["swan"], capsys, payload, tmp_path=tmp_path)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out is None
        assert err == ("input error: $.character.values[1].coefficients: "
                       "the denominators' lcm passes 4300 digits\n")

    @staticmethod
    def _mackey(gens, classes, left, right):
        """mackey on H = G, each side zeta at its conductor on class 1."""
        def side(conductor):
            zeta = {"conductor": conductor, "coefficients": ["0", "1"]}
            return {"values": ["1", zeta] + ["0"] * (classes - 2)}
        n = len(gens[0])
        return {"group": {"permutation_generators": gens},
                "subgroup": list(range(n)), "left": side(left), "right": side(right)}

    @pytest.mark.parametrize("gens, classes, left, right, path, message", [
        # a side whose conductor and the exponent of C_n have an lcm above
        # 2n is refused at parse: lcm(10, 7) = 70, lcm(150, 293) = 43950
        ([list(range(2, 11)) + [1]], 10, 4, 7, "$.right",
         "the values' least conductors and the exponent have an lcm above "
         "2|G| = 20"),
        ([list(range(2, 151)) + [1]], 150, 293, 283, "$.left",
         "the values' least conductors and the exponent have an lcm above "
         "2|G| = 300"),
        # on C2 x C2 (exponent 2) each side is within 2|H| = 8, lcm(2, 3) = 6
        # and lcm(2, 8) = 8, but conj(V) * W is computed in Q(zeta_24)
        ([[2, 1, 4, 3], [3, 4, 1, 2]], 4, 3, 8, "$.right",
         "the left and right conductors have an lcm above 2|H| = 8"),
    ], ids=["10-4-7", "150-293-283", "C2xC2-3-8"])
    def test_mackey_conductors_are_bounded_together(self, capsys, tmp_path, gens,
                                                    classes, left, right, path,
                                                    message):
        start = time.perf_counter()
        code, out, err = run_cli(["mackey"], capsys,
                                 self._mackey(gens, classes, left, right),
                                 tmp_path=tmp_path)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out is None
        assert err == f"input error: {path}: {message}\n"

    C6_GENS = [[2, 3, 4, 5, 6, 1]]

    @classmethod
    def _c6_order_three_character_at(cls, conductor):
        """An order-3 character of C6, each zeta_3 written at `conductor`."""
        G = parse_group({"permutation_generators": cls.C6_GENS}, "$", 100)
        psi = next(chi for chi in character_table(G).irreducibles
                   if all(v**3 == 1 for v in chi.values)
                   and not all(v.is_rational for v in chi.values))

        def value(v):
            v = v.at_least_conductor()
            if v.is_rational:
                return v.coefficient_strs()[0]
            coeffs = lift_coeffs(v.nums, 3, conductor)
            return {"conductor": conductor, "coefficients": [str(x) for x in coeffs]}
        return {"values": [value(v) for v in psi.values]}

    @pytest.mark.parametrize("command", ["swan", "induce", "tind", "mackey"])
    def test_a_character_past_its_least_conductor_is_accepted(self, capsys,
                                                              tmp_path, command):
        # an order-3 character of C6 with zeta_3 written at conductor 9, where
        # lcm(6, 9) = 18 is above 2|G| = 12: accepted, with the values it has
        # at conductor 3
        gens = self.C6_GENS

        def at(conductor):
            chi = self._c6_order_three_character_at(conductor)
            payload = {"group": {"permutation_generators": gens}}
            if command == "swan":
                return {**payload, "breaks": ["1"], "subgroups": [list(range(6))],
                        "character": chi}
            if command == "mackey":
                return {**payload, "subgroup": list(range(6)), "left": chi,
                        "right": chi}
            return {**payload, "subgroup": list(range(6)), "character": chi}

        (code3, out3, _), (code9, out9, err9) = (
            run_cli([command], capsys, at(n), tmp_path=tmp_path) for n in (3, 9))
        assert code3 == code9 == 0, err9
        if command == "swan":
            assert out9 == out3
        elif command == "mackey":
            assert out9["pass"] is out3["pass"] is True
        else:
            values = [[parse_cyclotomic(v, "$", 100) for v in out["character"]["values"]]
                      for out in (out3, out9)]
            assert values[0] == values[1]
            assert max(v.conductor for v in values[1]) == 9

    def test_mackey_moves_both_sides_to_their_least_conductors(self, capsys,
                                                               tmp_path):
        # zeta_3 written at conductor 9 on the left and at 12 on the right:
        # lcm(9, 12) = 36 is above 2|H| = 12, the least conductors' lcm 3 is not
        payload = {"group": {"permutation_generators": self.C6_GENS},
                   "subgroup": list(range(6)),
                   "left": self._c6_order_three_character_at(9),
                   "right": self._c6_order_three_character_at(12)}
        code, out, err = run_cli(["mackey"], capsys, payload, tmp_path=tmp_path)
        assert code == 0, err
        assert out["pass"] is True

    @pytest.mark.parametrize("n, left, right", [(10, 4, 5), (10, 20, 20)])
    def test_mackey_conductors_within_the_bound_are_accepted(self, capsys,
                                                             tmp_path, n, left,
                                                             right):
        # lcm 20 = 2|H| exactly, met by the two sides together and by each
        cycle = list(range(2, n + 1)) + [1]
        code, out, _ = run_cli(["mackey"], capsys,
                               self._mackey([cycle], n, left, right),
                               tmp_path=tmp_path)
        assert code == 0 and out["pass"] is True

    @pytest.mark.parametrize("coeffs, den", [
        (["1/" + "9" * 4300, "0"], 10**4300 - 1),
        (["1/" + "9" * 4300, "1/2"], None),
    ], ids=["4300-digits", "4301-digits"])
    def test_denominator_lcm_at_the_digit_limit(self, coeffs, den):
        value = {"conductor": 3, "coefficients": coeffs}
        if den is None:
            with pytest.raises(InputError, match=r"^\$\.v\.coefficients: the "):
                parse_cyclotomic(value, "$.v", 3)
        else:
            assert parse_cyclotomic(value, "$.v", 3).den == den

    @pytest.mark.parametrize("ell, code", [(101, 2), (100, 0)])
    def test_wreath_over_the_trivial_group(self, capsys, tmp_path, ell, code):
        # the order is ell, but ell rotations of ell points are built
        payload = {"base": {"permutation_generators": [[1]]}, "ell": ell}
        got, out, err = run_cli(["wreath"], capsys, payload, tmp_path=tmp_path)
        assert got == code
        if code == 2:
            assert err.startswith("input error: $.ell:")
        else:
            assert out["order"] == ell

    def test_huge_ell_is_refused_before_the_rotations(self, capsys, tmp_path):
        # 1 + 10^9 rotations of 10^9 points each are never built, nor 2^(10^9)
        payload = {"base": {"permutation_generators": [[2, 1]]}, "ell": 1_000_000_000}
        start = time.perf_counter()
        code, out, err = run_cli(["wreath"], capsys, payload, tmp_path=tmp_path)
        assert time.perf_counter() - start < 2
        assert code == 2 and out is None
        assert err.startswith("input error: $.ell:") and len(err.encode()) < 200

    def test_huge_ell_is_refused_before_the_closure(self, capsys, tmp_path):
        # C2 wr C2003 is past the bound; its closure, of up to 10000
        # elements of 4006 entries, is never built, nor ell tested for primality
        for ell in (2003, 10**30 + 57):
            gens = [[1, [0] * 2003], [0, [1] + [0] * 2002]]
            payload = {"wreath": {"base": {"permutation_generators": [[2, 1]]},
                                  "ell": ell}, "generators": gens}
            start = time.perf_counter()
            code, out, err = run_cli(["classify"], capsys, payload, tmp_path=tmp_path)
            assert time.perf_counter() - start < 2
            assert code == 2 and out is None
            assert err.startswith("input error: $.wreath.ell:") and len(err.encode()) < 200

    @pytest.mark.parametrize("literal, path", [
        ('{"slopes": [["1/2", %s]]}', "$.slopes[0][1]"),
        ('{"slopes": [[%s, 1]]}', "$.slopes[0][0]"),
        ('{"format": %s, "slopes": [["1/2", 1]]}', "$.format"),
    ])
    def test_integer_past_the_digit_limit_names_path(self, capsys, tmp_path, literal,
                                                     path):
        # json.loads raises a plain ValueError past 4300 digits, without a path
        (tmp_path / "input.json").write_text(literal % ("7" * 5000))
        code = main(["np", "--input", str(tmp_path / "input.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"input error: {path}:") and len(err.encode()) < 200

    @pytest.mark.parametrize("command, payload, path", [
        ("induce", {"group": {"permutation_generators": [[2, 1, 3, 4], [2, 3, 4, 1]]},
                    "subgroup": [0], "character": {"values": ["1"]}}, "$.group"),
        ("table", {"group": {"cayley_table": [[(i + j) % 11 for j in range(11)]
                                              for i in range(11)]}},
         "$.group.cayley_table"),
    ])
    def test_max_order_bounds_the_parsed_group(self, capsys, tmp_path, command,
                                               payload, path):
        code, out, err = run_cli([command, "--max-order", "10"], capsys, payload,
                                 tmp_path=tmp_path)
        assert code == 2 and out is None
        assert f"input error: {path}:" in err and "bound 10" in err

    def test_table_coefficients_are_bounded_before_the_build(self, capsys, tmp_path,
                                                            monkeypatch):
        # C84 holds up to 93,240 coefficients and C90 125,460
        monkeypatch.setattr(cli, "table_report",
                            lambda G, max_order: pytest.fail("the table was built"))
        code, out, err = run_cli(["table", "--gcd"], capsys, {"group": {
            "permutation_generators": [list(range(2, 91)) + [1]]}}, tmp_path=tmp_path)
        assert code == 2 and out is None
        assert err == ("input error: $.group: a table of up to 125460 coefficients "
                       "exceeds the bound 100000\n")
        monkeypatch.undo()
        code, out, _ = run_cli(["table"], capsys, {"group": {
            "permutation_generators": [list(range(2, 85)) + [1]]}}, tmp_path=tmp_path)
        assert code == 0 and out["order"] == 84

    def test_table_coefficient_bound_bounds_the_output(self):
        # r * sum_k phi(o_k) is at least the coefficients a table report writes
        for G in abelian_groups_up_to_64() + group_zoo_up_to_100():
            written = sum(1 if isinstance(v, str) else len(v["coefficients"])
                          for chi in cli.table_report(G, DEFAULT_TABLE_BOUND)[
                              "irreducibles"] for v in chi["values"])
            bound = len(G.conjugacy_classes) * sum(
                euler_phi(G.element_order(cls[0])) for cls in G.conjugacy_classes)
            assert written <= bound <= cli.TABLE_COEFFICIENT_BOUND

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_must_be_positive(self, capsys, jobs):
        code = main(["verify", "--suite", "weyl-dimension", "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "input error: --jobs:" in captured.err

    @pytest.mark.parametrize("command", ["swan", "herbrand", "induce", "tind",
                                         "mackey", "wreath", "classify", "table"])
    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_max_order_must_be_positive(self, capsys, monkeypatch, command, bound):
        monkeypatch.setattr(cli, "_read_payload",
                            lambda args: pytest.fail("the payload was read"))
        code = main([command, "--max-order", bound])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"input error: --max-order: expected a positive "
                                f"integer, got {int(bound)}\n")

    def test_pool_is_capped_at_the_suite_count(self, monkeypatch):
        import concurrent.futures

        workers = []

        class RecordingPool:
            """Runs in this process and records the worker count asked for."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        results = run_suites(["weyl-dimension", "kummer-scaling"], jobs=64)
        assert workers == [2]
        assert [r.name for r in results] == ["weyl-dimension", "kummer-scaling"]
        run_suites(["weyl-dimension"], jobs=64)  # one suite: no pool at all
        assert workers == [2]


class TestDriver:
    """main alone reads the payload, writes the report and picks the exit
    code; options that no subcommand reads do not exist."""

    def test_successive_calls_share_no_state(self, capsys, tmp_path, monkeypatch):
        # one parser serves every call in a process: options and command
        # functions are read afresh at each call
        s3 = {"group": {"permutation_generators": S3_GENS}}
        code, out, _ = run_cli(["table", "--gcd"], capsys, s3, tmp_path=tmp_path)
        assert code == 0 and out["nontrivial_dims_gcd"] == 1
        code, out, _ = run_cli(["table"], capsys, s3, tmp_path=tmp_path)
        assert code == 0 and "nontrivial_dims_gcd" not in out
        code, out, err = run_cli(["table", "--max-order", "5"], capsys, s3,
                                 tmp_path=tmp_path)
        assert code == 2 and err.startswith("input error: $.group:")
        code, out, _ = run_cli(["table"], capsys, s3, tmp_path=tmp_path)
        assert code == 0 and out["order"] == 6

        slopes = {"slopes": [["1/2", 2]]}
        assert run_cli(["np"], capsys, slopes, tmp_path=tmp_path)[0] == 0
        monkeypatch.setattr(cli, "cmd_np", lambda payload, args: {"pass": False})
        code, out, _ = run_cli(["np"], capsys, slopes, tmp_path=tmp_path)
        assert code == 1 and out == {"format": 1, "pass": False}
        assert cli.build_parser() is cli.build_parser()

    def test_table_wire_format_is_pinned(self, capsys):
        # sha256 of the `table` output, byte for byte, on the 49 groups of
        # the two corpora, as the build that made every class matrix wrote
        # it: the split order and the lift must not change a byte
        digest = hashlib.sha256()
        for G in abelian_groups_up_to_64() + group_zoo_up_to_100():
            cli._write_payload(argparse.Namespace(output="-"),
                               cli.table_report(G, DEFAULT_TABLE_BOUND))
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == (
            "11ff9f6dd5b4626c3a828b5f6304b1543ec3dcaf4a0750b932844e1bffe9c8c2")

    def test_table_wire_format_is_pinned_for_large_moduli(self, capsys):
        # C29:C28, C31:C30 and C47:C23 split over F_ell with ell = 2437, 1861
        # and 12973, far above their 29, 31 and 25 classes; sha256 of their
        # `table` output as the seeded root finder of earlier builds wrote it
        digest = hashlib.sha256()
        for p, a in ((29, 2), (31, 3), (47, 25)):
            G = group_from_permutations([tuple((x + 1) % p for x in range(p)),
                                        tuple(a * x % p for x in range(p))])
            cli._write_payload(argparse.Namespace(output="-"),
                               cli.table_report(G, DEFAULT_TABLE_BOUND))
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == (
            "c8ba535cfe339a02d64672210ef9cbe50b2854982f497038f3c46edf8e58dbe6")

    def test_table_wire_format_is_pinned_for_cayley_tables(self, capsys, tmp_path):
        # sha256 of the `table` output on the Cayley tables of eight groups,
        # as the build that checked associativity on all n^3 triples wrote it
        digest = hashlib.sha256()
        for G in (cyclic_group(12), symmetric_group(4), quaternion_group(),
                  elementary_abelian_group(2, 4), dihedral_group(6),
                  alternating_group(5), heisenberg_group(3),
                  direct_product(cyclic_group(2), symmetric_group(3))):
            path = tmp_path / "table.json"
            table = [[G.mul(i, j) for j in range(G.order)] for i in range(G.order)]
            path.write_text(json.dumps({"group": {"cayley_table": table}}))
            assert main(["table", "--input", str(path)]) == 0
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == (
            "f64c871fb6b9a0081a2504c512d6b518f7c28ea6ad3cf4d0283f3a734ada0112")

    def test_report_that_fails_exits_1(self, capsys, tmp_path, monkeypatch):
        seen = []

        def cmd_np(payload, args):
            seen.append(payload)
            return {"pass": False, "why": "injected"}
        monkeypatch.setattr(cli, "cmd_np", cmd_np)
        code, out, err = run_cli(["np"], capsys, {"slopes": []}, tmp_path=tmp_path)
        assert seen == [{"slopes": []}]
        assert code == 1 and err == ""
        assert out == {"format": 1, "pass": False, "why": "injected"}

    @pytest.mark.parametrize("argv", [
        ["np", "--seed", "1"], ["table", "--seed", "1"], ["np", "--max-order", "5"],
        ["robba", "--max-order", "5"],
    ])
    def test_unread_options_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_max_order_defaults(self):
        parser = cli.build_parser()
        assert parser.parse_args(["wreath"]).max_order == DEFAULT_MAX_ORDER
        assert parser.parse_args(["table"]).max_order == DEFAULT_TABLE_BOUND

    def test_suite_failure_is_a_failed_result(self, monkeypatch):
        def suite(seed=0):
            raise verify.SuiteFailure(f"broken at seed {seed}")
        monkeypatch.setitem(verify.SUITES, "weyl-dimension", (suite, 1.0))
        result = verify.run_suite("weyl-dimension", seed=5)
        assert (result.passed, result.detail, result.time_limit) == (
            False, "broken at seed 5", 1.0)
        assert result.line().startswith("FAIL weyl-dimension: broken at seed 5 (")


def test_importing_the_cli_loads_no_numpy():
    # F_ell linear algebra runs on Python ints: no runtime dependency is left
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = "import sys, slopeforge.cli; sys.exit('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], timeout=60,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0


class TestDeterminism:
    def test_round_trip_and_repeatability(self, capsys, tmp_path):
        payload = {"slopes": [["1/3", 3], ["2", 1]]}
        code1, out1, _ = run_cli(["np"], capsys, payload, tmp_path=tmp_path)
        code2, out2, _ = run_cli(["np"], capsys, payload, tmp_path=tmp_path)
        assert code1 == code2 == 0
        assert out1 == out2


# -- fuzzing the JSON boundary --------------------------------------------------

OMEGA = {"values": ["1", {"conductor": 3, "coefficients": ["0", "1"]},
                    {"conductor": 3, "coefficients": ["-1", "-1"]}]}
S3_A3 = {"group": {"permutation_generators": S3_GENS}, "subgroup": [0, 3, 4]}
VALID_REQUESTS = [
    ("np", {"slopes": [["1/2", 2]]}),
    ("swan", {"group": {"permutation_generators": [[2, 1]]}, "breaks": ["1"],
              "subgroups": [[0, 1]], "character": {"values": ["1", "-1"]}}),
    ("herbrand", {"group": {"permutation_generators": [[2, 3, 4, 1]]},
                  "lower": [[0, 1, 2, 3]] * 3 + [[0, 2]] * 3}),
    ("induce", {**S3_A3, "character": OMEGA}),
    ("tind", {**S3_A3, "character": OMEGA}),
    ("mackey", {**S3_A3, "left": OMEGA, "right": OMEGA}),
    ("wreath", {"base": C3_BASE, "ell": 2}),
    ("classify", {"wreath": {"base": C3_BASE, "ell": 2},
                  "generators": [[1, [0, 0]], [0, [1, 1]]]}),
    ("table", {"group": {"permutation_generators": S3_GENS}}),
    ("robba", {"p": 3, "coefficients": ["1/2", "1"]}),
]
BOUNDED = {"swan", "herbrand", "induce", "tind", "mackey", "wreath", "classify",
           "table"}
KEYS = sorted({"format", "slopes", "group", "permutation_generators",
               "cayley_table", "breaks", "subgroups", "character", "values",
               "conductor", "coefficients", "lower", "subgroup", "left", "right",
               "base", "ell", "wreath", "generators", "p"})


class LongInteger:
    """A JSON integer literal of `digits` digits, past json.loads's limit."""

    def __init__(self, digits):
        self.digits = digits


LONG_MARK = "\x00long-integer:"


def dump_request(payload) -> str:
    """json.dumps, with each LongInteger written as a run of digits: an int
    past 4300 digits cannot be converted to text by json.dumps itself."""
    text = json.dumps(payload, default=lambda o: f"{LONG_MARK}{o.digits}")
    mark = json.dumps(LONG_MARK)[:-1]
    return re.sub(re.escape(mark) + r'(\d+)"', lambda m: "7" * int(m[1]), text)


# rationals as the wire format must refuse them: exponents, "_" separators,
# decimals, and digit runs on both sides of the int-conversion limit
rational_strings = st.one_of(
    st.from_regex(r"[-+]?[0-9]{1,3}([eE][-+]?[0-9]{1,8})?(_[0-9]{1,3})?"
                  r"(\.[0-9]{0,3})?(/[0-9]{1,3})?", fullmatch=True),
    st.builds(lambda n, tail: "9" * n + tail, st.integers(1, 4400),
              st.sampled_from(["", "/7", "e5", ".5"])),
    st.builds(lambda sign, n, tail: sign + "9" * n + tail, st.sampled_from("-+"),
              st.integers(1, 4400), st.sampled_from(["", "/7", "e5", ".5"])))
json_scalars = st.one_of(st.none(), st.booleans(),
                         st.integers(-10**12, 10**12), st.text(),
                         rational_strings,
                         st.integers(4301, 6000).map(LongInteger))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def _locations(obj, path=()):
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _locations(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _locations(value, path + (i,))


@st.composite
def mutated_requests(draw):
    """A valid request with one JSON value replaced, deleted or inserted."""
    command, payload = draw(st.sampled_from(VALID_REQUESTS))
    payload = copy.deepcopy(payload)
    path = draw(st.sampled_from(list(_locations(payload))))
    target = payload
    for step in path[:-1]:
        target = target[step]
    here = target[path[-1]] if path else payload
    ops = ["replace"] + (["delete"] if path else [])
    ops += ["insert"] if isinstance(here, (dict, list)) else []
    op = draw(st.sampled_from(ops))
    if op == "replace":
        value = draw(json_values)
        if not path:
            return command, value
        target[path[-1]] = value
    elif op == "delete":
        del target[path[-1]]
    elif isinstance(here, dict):
        key = draw(st.one_of(st.sampled_from(KEYS), st.text(max_size=4)))
        here[key] = draw(json_values)
    else:
        here.insert(draw(st.integers(0, len(here))), draw(json_values))
    return command, payload


@settings(max_examples=150, deadline=2000,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_requests())
# a long string whose repr escapes every character
@example(("np", {"slopes": [["\U000c7cd6" * 40, 1]]}))
@example(("np", {"slopes": [["1e10000000", LongInteger(5000)]]}))
@example(("np", {"format": "9" * 260 + "/7", "slopes": [["1/2", 2]]}))
def test_fuzzed_requests_keep_the_exit_code_contract(request):
    command, payload = request
    argv = [command] + (["--max-order", "64"] if command in BOUNDED else [])
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(dump_request(payload))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2)
    text = err.getvalue()
    assert text.count("\n") <= 1 and len(text.encode()) <= 300, text
    assert (code == 2) == bool(text)


# --family, --rank and --weight as a shell would pass them: valid values, digit
# runs on both sides of the int-conversion limit, and arbitrary text
weyl_families = st.one_of(st.sampled_from("ABCDEFG"), st.text(max_size=3),
                          st.integers(1, 600).map(lambda n: "A" * n))
weyl_ranks = st.one_of(st.integers(-2, 17).map(str), st.text(max_size=4),
                       st.integers(1, 6000).map(lambda n: "9" * n))
weyl_weights = st.one_of(
    st.builds(lambda k, tail: f"{k}{tail}", st.integers(-3, 9),
              st.sampled_from(["rho", "/2rho", "", ",1"])),
    st.lists(rational_strings, min_size=1, max_size=9).map(",".join),
    st.text(max_size=12))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(weyl_families, weyl_ranks, weyl_weights)
# a non-dominant weight of 400 digits; a rank past the digit limit
@example("A", "1", "-" + "9" * 400 + ",1")
@example("A", "9" * 5000, "2rho")
# a dimension past the digit limit, refused at $.weight before any product
@example("E", "8", "9" * 300 + "rho")
def test_fuzzed_weyl_dim_keeps_the_exit_code_contract(family, rank, weight):
    out, err = io.StringIO(), io.StringIO()
    argv = ["weyl-dim", f"--family={family}", f"--rank={rank}", f"--weight={weight}"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, usage = main(argv), False
        except SystemExit as exc:  # argparse refuses an option
            code, usage = exc.code, True
    text = err.getvalue()
    assert code in (0, 2)
    assert len(text.encode()) <= 300, text
    if not usage:
        assert text.count("\n") <= 1 and (code == 2) == bool(text)



# -- the report emitter and the integer coefficient route -----------------------

class TestReportEmitter:
    """`cli.json_text` writes what json.dumps(x, indent=2) writes, byte for
    byte, and refuses what it refuses."""

    @pytest.mark.parametrize("argv, payload", [
        # the README's examples
        (["np"], {"slopes": [["1/2", 2]]}),
        (["weyl-dim", "--family", "A", "--rank", "2", "--weight", "2rho"], None),
        (["robba"], {"p": 3, "coefficients": ["1/2", "1"]}),
        (["np", "--svg", "polygon.svg"], {"slopes": [["1/2", 2]]}),
        # every other subcommand; verify under --jobs has float elapsed times
        *(([command], payload) for command, payload in VALID_REQUESTS
          if command not in ("np", "robba")),
        (["table", "--gcd"], {"group": {"permutation_generators": S3_GENS}}),
        (["verify", "--jobs", "2", "--suite", "weyl-dimension",
          "--suite", "structural-predicates"], None),
    ], ids=lambda x: " ".join(x) if isinstance(x, list) else "")
    def test_reports_match_json_dumps(self, capsys, tmp_path, monkeypatch,
                                      argv, payload):
        monkeypatch.chdir(tmp_path)
        reports = []
        write = cli._write_payload
        monkeypatch.setattr(cli, "_write_payload", lambda args, report: (
            reports.append({"format": 1, **report}), write(args, report))[1])
        if payload is not None:
            Path("input.json").write_text(json.dumps(payload))
            argv = argv + ["--input", "input.json"]
        assert main(argv) == 0
        [report] = reports
        if argv[0] == "verify":
            assert {type(s["elapsed"]) for s in report["suites"]} == {float}
        assert cli.json_text(report) + "\n" == capsys.readouterr().out
        assert cli.json_text(report) == json.dumps(report, indent=2)

    @pytest.mark.parametrize("obj", [
        {}, [], (), {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {}}},
        [[], {}, [[]]], "", "naïve ☃ 𝄞 ü", "quote \" back \\ slash / nl \n tab \t",
        "\x00\x1f\x7f ", ["é", "\n", ""], True, False, None,
        [True, False, None], {"t": True, "f": False, "n": None}, 0, -1, 10**300,
        [1, 2**70, -3], [1, True], 1.5, -0.0, 1e300, 1e-7,
        [0.1, float("inf"), float("-inf"), float("nan")],
        (1, "a", (2, ())), {"t": (), "u": ("x", "y")},
        {1: "int key", 2.5: "float key", True: "bool key", None: "null key",
         "é": "non-ASCII key"},
        ["mixed", 1, None, 2.0, ["x"], {"k": "v"}, ("t",)],
    ])
    def test_matches_json_dumps_on_edge_cases(self, obj):
        assert cli.json_text(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("obj", [
        Fraction(1, 2), [Fraction(1, 2)], {"a": [1, {"b": {1, 2}}]},
        {(1, 2): "a tuple key"}, {b"k": 1}, object(), 10**5000,
    ], ids=["fraction", "nested-fraction", "set", "tuple-key", "bytes-key",
            "object", "past-digit-limit"])
    def test_refuses_what_json_dumps_refuses(self, obj):
        with pytest.raises((TypeError, ValueError)) as want:
            json.dumps(obj, indent=2)
        with pytest.raises(want.type) as got:
            cli.json_text(obj)
        assert str(got.value) == str(want.value)


def rational_route(obj, path):
    """The value parse_rational reads from obj, or the refusal it raises."""
    try:
        return parse_rational(obj, path)
    except InputError as exc:
        return exc.path, str(exc)


def cyclotomic_route(obj, path, bound):
    try:
        return parse_cyclotomic(obj, path, bound)
    except InputError as exc:
        return exc.path, str(exc)


@pytest.mark.parametrize("coefficient", [
    "+3", "-0", "007", " 4", "4 ", "٣", "1_0", "3/1", "4/2", "1/0", "1/2",
    "-", "", "9" * 5000, 7, -12, True, False, 1.5, None,
], ids=lambda c: repr(c)[:12])
def test_integer_coefficients_parse_as_the_rational_route(coefficient):
    # a value and a coefficient read equal values, or refuse at the same path
    # with the same message, whether or not the integer route takes them
    if isinstance(coefficient, (str, int)):  # a value: anything else is not one
        want = rational_route(coefficient, "$.v")
        got = cyclotomic_route(coefficient, "$.v", 6)
        assert got == (want if isinstance(want, tuple) else Cyclotomic.rational(want))
    # after a coefficient that is not an integer, so that den is 2 when it is read
    value = {"conductor": 3, "coefficients": ["1/2", coefficient]}
    want = rational_route(coefficient, "$.v.coefficients[1]")
    got = cyclotomic_route(value, "$.v", 6)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got == Fraction(1, 2) + want * Cyclotomic.zeta(3)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no digit limit before Python 3.10.7")
def test_integer_coefficients_read_the_digit_limit_at_the_call():
    text = "9" * 700
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert cyclotomic_route(text, "$.v", 6) == rational_route(text, "$.v")
        assert cyclotomic_route(text, "$.v", 6)[0] == "$.v"
        sys.set_int_max_str_digits(0)
        assert cyclotomic_route(text, "$.v", 6) == Cyclotomic.rational(int(text))
    finally:
        sys.set_int_max_str_digits(limit)
