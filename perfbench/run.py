"""Run one slopeforge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload swan-corpus --seed 1 --seconds 30 --trace 0

Run from anywhere inside a slopeforge checkout; the package is imported from
the checkout's ``src/`` and nowhere else.  The process serves one workload
only, so caches never carry over from one workload to another.

--trace 0  sets up SETUP_REPEATS times (setup_s is import time plus the median
           set-up), then runs passes over the workload's fixed operation list
           for about --seconds, at least MIN_PASSES passes.  Between
           operations it times calibrate.kernel and scales each operation's
           latency to the kernel's reference speed (see calibrate.py): the
           host's speed drifts too much over minutes for raw times to compare
           between runs.  An operation's typical latency is the median of its
           scaled latencies over the passes.  wall_ref_s is the sum of the
           typical latencies, one pass over the list at reference speed;
           op_p50_ref_ms and op_p90_ref_ms are percentiles of the typical
           latencies, one sample per operation of the list (38 on
           wreath-lattice, 923 on swan-corpus, 198 on cli-requests);
           peak_rss_mb is the peak resident memory of the process after set-up
           and MIN_PASSES passes.  The unscaled wall_s (median pass time),
           op_p50_ms and op_p90_ms are printed before the JSON object.
--trace 1  after one warm-up pass, runs one untraced and one traced pass (so
           the count metrics are fixed for a seed) and reports the per-layer
           metrics of the traced pass; trace.overhead_ratio is the traced
           pass's operation time over the untraced pass's.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Known-defect requests of the malformed
catalogue are sent once per cli-requests run, outside the timed stream, and
reported on their own line.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from math import exp, lgamma, log, log1p  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_PASSES = 3
MAX_MEASURE_S = 140  # stop measuring here whatever the settings, to end within 180 s

END_TO_END = [("setup_s", "s"), ("wall_ref_s", "s"), ("op_p50_ref_ms", "ms"),
              ("op_p90_ref_ms", "ms"), ("peak_rss_mb", "MB")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="wreath-lattice, swan-corpus or cli-requests")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import slopeforge from this checkout's src/, or explain why not."""
    package = SRC / "slopeforge"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"{package} not found: run from a slopeforge checkout")
    sys.path.insert(0, str(SRC))
    import slopeforge

    if Path(slopeforge.__file__).resolve().parent != package.resolve():
        raise ImportError(f"slopeforge was imported from {slopeforge.__file__}, "
                          f"not from {package}")


def set_up(workloads, name, seed, workdir):
    """Build the workload SETUP_REPEATS times; return it and the median time."""
    times, built = [], None
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload = workloads.WORKLOADS[name](seed, workdir)
        times.append(perf_counter() - t0)
        if built is not None and workload.inputs != built.inputs:
            raise RuntimeError("the same seed generated different inputs")
        built = workload
    return built, statistics.median(times)


def quantile(values, q, steps=32):
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass of each slice
    ((i-1)/n, i/n), integrated at the midpoints of ``steps`` sub-slices.  It
    moves smoothly as any one value moves, where the plain sample quantile
    jumps across the gaps between neighbouring operations (wreath-lattice has
    38, from under a millisecond to seconds)."""
    x = sorted(values)
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = lgamma(a + b) - lgamma(a) - lgamma(b)
    weights = [sum(exp(log_norm + (a - 1) * log(t) + (b - 1) * log1p(-t))
                   for t in ((i + (k + 0.5) / steps) / n for k in range(steps)))
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def measure(workloads, tracing, args, workdir, import_s):
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        # installed but not recording: it learns which tables set-up built
        tracer.install(record=False)
    try:
        workload, setup_median = set_up(workloads, args.workload, args.seed, workdir)
    finally:
        if tracer:
            tracer.uninstall()
    setup_s = import_s + setup_median
    run_pass = workloads.run_pass
    if tracer:
        warm_up = run_pass(workload.ops)  # so that both compared passes start warm
        untraced = run_pass(workload.ops)
        tracer.install()
        try:
            traced = run_pass(workload.ops, tracer)
            probe = run_pass(workload.probe, tracer)
        finally:
            tracer.uninstall()
        for key, n in (traced.tally + probe.tally).items():
            tracer.counts[key] = tracer.counts.get(key, 0) + n
        tracer.counts["cli.known_defect_failures"] = probe.failed
        for target in tracer.missing:
            print(f"note: no {target} to trace; its metrics read 0", file=sys.stderr)
        values = tracer.metrics()
        values["trace.overhead_ratio"] = sum(traced.latencies) / sum(untraced.latencies)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER_METRICS}
        passes = [warm_up, untraced, traced]
    else:
        import calibrate

        calibrator = calibrate.Calibrator()
        passes = []
        t_end = perf_counter() + args.seconds
        t_stop = perf_counter() + MAX_MEASURE_S
        while True:
            t_pass = perf_counter()
            passes.append(run_pass(workload.ops, between=calibrator.before_op))
            calibrator.end_pass()
            now = perf_counter()
            if len(passes) == MIN_PASSES:
                # a fixed amount of work, so retained memory does not grow with
                # the number of passes a machine manages in --seconds
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # start another pass only if at least half of it fits in --seconds
            if now >= t_stop or (len(passes) >= MIN_PASSES
                                 and now + (now - t_pass) / 2 >= t_end):
                break
        probe = run_pass(workload.probe)
        typical = [statistics.median(x) for x in zip(*calibrator.scaled(passes))]
        unscaled = [statistics.median(x) for x in zip(*(p.latencies for p in passes))]
        print(f"unscaled: wall_s {statistics.median(sum(p.latencies) for p in passes):.6g} s, "
              f"op_p50_ms {1000 * quantile(unscaled, 0.5):.6g} ms, "
              f"op_p90_ms {1000 * quantile(unscaled, 0.9):.6g} ms; kernel median "
              f"{1000 * statistics.median(calibrator.samples):.6g} ms over "
              f"{len(calibrator.samples)} samples")
        values = {
            "setup_s": setup_s,
            "wall_ref_s": sum(typical),
            "op_p50_ref_ms": 1000 * quantile(typical, 0.5),
            "op_p90_ref_ms": 1000 * quantile(typical, 0.9),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(workload.ops)} operations; {attempted} attempted, {failed} failed, "
          f"failed_share {failed / attempted:.6g} share")
    for name, value in values.items():
        print(f"  {name} {value:.6g} {units[name]}")
    if workload.probe:
        print(f"known-defect requests (outside the timed stream): {probe.failed} of "
              f"{len(workload.probe)} broke their exit-code contract")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = perf_counter() - START
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return measure(workloads, tracing, args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
