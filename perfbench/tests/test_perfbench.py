"""Tests of the benchmark itself: seeded inputs, failure counting, tracing."""

import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from slopeforge import cli  # noqa: E402
from slopeforge import groups as gp  # noqa: E402
from slopeforge.exactnum import Cyclotomic  # noqa: E402


def _ops(workload, marker):
    return [op for op in workload.ops if marker in op.label]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    setup = workloads.WORKLOADS[name]
    first = setup(7, tmp_path)
    assert setup(7, tmp_path).inputs == first.inputs
    assert setup(8, tmp_path).inputs != first.inputs
    assert len(setup(8, tmp_path).ops) == len(first.ops)


def test_malformed_catalogue_expects_input_errors():
    entries = workloads.load_catalogue()
    assert all(entry["expected_exit"] == 2 for entry in entries)
    assert any(entry.get("known_defect") for entry in entries)
    assert sum(not entry.get("known_defect") for entry in entries) >= 10


def test_wrong_result_counts_as_failed(tmp_path, monkeypatch):
    ops = _ops(workloads.setup_wreath_lattice(3, tmp_path), "A5out")
    assert workloads.run_pass(ops).failed == 0
    monkeypatch.setattr(gp, "outer_automorphism_order", lambda G: 3)
    result = workloads.run_pass(ops)
    assert result.failed == 1 and len(result.latencies) == len(ops)


def test_swan_oracle_mismatch_counts_as_failed(tmp_path, monkeypatch):
    workload = workloads.setup_swan_corpus(3, tmp_path)
    ops = [op for op in _ops(workload, ":swan")
           if workload.inputs["chains"][int(op.label[5:op.label.index(":")])]["lower"]]
    monkeypatch.setattr(workloads.fl, "swan_lower_oracle", lambda chain, chi: Fraction(-1))
    assert workloads.run_pass(ops).failed == len(ops) > 0


def test_uncaught_exception_counts_as_failed(tmp_path, monkeypatch):
    workload = workloads.setup_cli_requests(3, tmp_path)
    ops = _ops(workload, ":np")
    assert workloads.run_pass(ops).failed == 0

    def boom(args):
        raise RuntimeError("injected")
    monkeypatch.setattr(cli, "cmd_np", boom)
    result = workloads.run_pass(ops)
    assert result.failed == len(ops) > 0
    assert result.tally["cli.traceback"] == len(ops)


def test_known_defects_are_probed_not_streamed(tmp_path):
    workload = workloads.setup_cli_requests(3, tmp_path)
    known = [e["id"] for e in workloads.load_catalogue() if e.get("known_defect")]
    streamed = {op.label.rsplit(":", 1)[1] for op in workload.ops if ":malformed:" in op.label}
    assert streamed and not streamed & set(known)
    assert [op.label for op in workload.probe] == [f"defect:{k}" for k in known]


def test_kernel_is_fixed_work():
    assert calibrate.kernel() == (2520, sum(Fraction(k, k + 1) for k in range(1, 301)))


def test_calibrator_scales_each_op_by_the_kernel_times_around_it():
    ops = [workloads.Op(f"op{i}", lambda: None, lambda result, tally: True)
           for i in range(3)]
    every_op = calibrate.Calibrator(every_s=0.0, timed=lambda: None)
    result = workloads.run_pass(ops, between=every_op.before_op)
    every_op.end_pass()
    assert every_op.marks[0] == [0, 1, 2] and len(every_op.samples) == 4
    ref = calibrate.KERNEL_REF_S
    every_op.samples = [ref, 2 * ref, 2 * ref, ref / 2]
    result.latencies = [1.0, 1.0, 1.0]
    assert every_op.scaled([result]) == [pytest.approx([1 / 1.5, 1 / 2, 1 / 1.25])]

    per_pass = calibrate.Calibrator(every_s=3600.0, timed=lambda: None)
    workloads.run_pass(ops, between=per_pass.before_op)
    per_pass.end_pass()
    workloads.run_pass(ops, between=per_pass.before_op)
    per_pass.end_pass()
    assert per_pass.marks[:2] == [[0, 0, 0], [1, 1, 1]] and len(per_pass.samples) == 3


def test_quantile_is_harrell_davis():
    assert run.quantile([3.0] * 10, 0.9) == pytest.approx(3.0)
    assert run.quantile(list(range(101)), 0.5) == pytest.approx(50.0)
    assert 89 < run.quantile(list(range(1, 101)), 0.9) < 92
    assert run.quantile([5, 1, 4, 2, 3], 0.5) == pytest.approx(3.0)


def _traced_metrics(name, seed, tmp_path, count):
    tracer = tracing.Tracer()
    tracer.install(record=False)
    try:
        workload = workloads.WORKLOADS[name](seed, tmp_path)
    finally:
        tracer.uninstall()
    tracer.install()
    try:
        result = workloads.run_pass(workload.ops[:count], tracer)
    finally:
        tracer.uninstall()
    assert result.failed == 0
    return tracer.metrics()


@pytest.mark.parametrize("name,count", [("swan-corpus", 200), ("cli-requests", 60)])
def test_count_metrics_repeat(name, count, tmp_path):
    units = {m: unit for m, unit, _ in tracing.PER_LAYER_METRICS}
    first = _traced_metrics(name, 5, tmp_path, count)
    second = _traced_metrics(name, 5, tmp_path, count)
    counted = [m for m in first if units[m] in ("count", "bytes", "ratio")]
    assert {m: first[m] for m in counted} == {m: second[m] for m in counted}
    assert first["groups.mul_calls"] > 0


def test_uninstall_restores_the_program(tmp_path):
    before = (gp.FiniteGroup.__dict__["mul"], gp.FiniteGroup.__dict__["conjugacy_classes"],
              gp.Subgroup.__dict__["__init__"], Cyclotomic.__dict__["__add__"],
              Cyclotomic.__dict__["__radd__"], cli.polygon_from_slopes,
              gp.normal_subgroups)
    tracer = tracing.Tracer()
    tracer.install()
    assert gp.FiniteGroup.__dict__["mul"] is not before[0]
    tracer.uninstall()
    after = (gp.FiniteGroup.__dict__["mul"], gp.FiniteGroup.__dict__["conjugacy_classes"],
             gp.Subgroup.__dict__["__init__"], Cyclotomic.__dict__["__add__"],
             Cyclotomic.__dict__["__radd__"], cli.polygon_from_slopes,
             gp.normal_subgroups)
    assert all(a is b for a, b in zip(before, after))


def test_every_named_metric_is_reported(tmp_path):
    metrics = _traced_metrics("cli-requests", 2, tmp_path, 30)
    names = [m for m, _, _ in tracing.PER_LAYER_METRICS]
    assert list(metrics) == [m for m in names if m != "trace.overhead_ratio"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-requests", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_target_is_skipped(monkeypatch):
    monkeypatch.setattr(tracing, "SPAN_TARGETS", tracing.SPAN_TARGETS + [
        ("groups.gone", "slopeforge.groups", "no_such_function"),
        ("groups.gone", "slopeforge.groups", "FiniteGroup.no_such_method")])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["slopeforge.groups.no_such_function",
                              "slopeforge.groups.FiniteGroup.no_such_method"]
