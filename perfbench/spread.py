"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload wreath-lattice --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --trace-seed 1 --out perfbench/BASELINE.json

For every workload (all of them when none is named) this runs
``run.py --trace 0`` once per seed, one process after another, and prints
each end-to-end metric's median, quartiles and spread (the distance between
the quartiles as a share of the median, as ``statistics.quantiles(n=4)``
gives them) next to a third of the metric's bound in BENCHMARK.json.  With
--trace-seed it adds one traced run per workload for the per-layer numbers.
--out writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable); default: every workload")
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also make one traced run per workload with this seed")
    parser.add_argument("--out", default=None, help="write the results here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "python": platform.python_version(),
              "machine": platform.machine(), "workloads": {}}
    for name in names:
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(run_once(name, seed, seconds, 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        entry = {
            "seeds": seed_list(args.seeds),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {},
        }
        for metric, bound in bounds.items():
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = s
            flag = "ok" if s["spread"] < bound / 3 else "WIDE"
            print(f"  {metric:12s} median {s['median']:.5g} {s['unit']}  "
                  f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.3f}  "
                  f"(bound/3 {bound / 3:.3f}) {flag}", flush=True)
        if args.trace_seed is not None:
            traced = run_once(name, args.trace_seed, seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed, "metrics": traced["metrics"]}
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
