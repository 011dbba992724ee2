"""Scale operation latencies to a reference machine speed.

The benchmark runs on shared hosts whose speed drifts by a quarter and more
over minutes, and slowly enough that every operation of a 40-second run can
fall in a slow stretch: medians and best-of-N times within one run do not
remove it.  So the timed passes also time a fixed pure-Python kernel between
operations, before the first, at least every EVERY_S seconds and after each
pass, and each operation's latency is scaled by

    KERNEL_REF_S / (mean of the kernel times just before and just after it)

which reads as the operation's time on a machine where the kernel takes
KERNEL_REF_S.  The kernel never calls slopeforge (it composes permutations
with perfbench's own helpers and adds fractions), so a change to the program
moves the scaled times and a change of machine speed mostly does not.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

from workloads import alternating_gens, perm_closure

# About the kernel's time on the 2-vCPU Intel Xeon (2.1 GHz) KVM guest where
# the benchmark was defined, so that scaled times read close to seconds there.
KERNEL_REF_S = 0.010
EVERY_S = 0.25
_GENS = alternating_gens(7)


def kernel():
    """Close A7 under composition (2520 permutations) and add 300 fractions."""
    total = Fraction(0)
    for k in range(1, 301):
        total += Fraction(k, k + 1)
    return len(perm_closure(_GENS)), total


class Calibrator:
    """Times the kernel between operations and scales their latencies.

    Call ``before_op`` before each timed operation (run_pass does, through its
    ``between`` argument) and ``end_pass`` after each pass.
    """

    def __init__(self, every_s: float = EVERY_S, timed=kernel):
        self.every_s = every_s
        self.timed = timed
        self.samples: list[float] = []  # kernel times, in the order taken
        self.marks: list[list[int]] = [[]]  # per pass, per op: last sample before it
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = perf_counter()
        self.timed()
        self._last = perf_counter()
        self.samples.append(self._last - t0)

    def before_op(self) -> None:
        if not self.samples or perf_counter() - self._last >= self.every_s:
            self.sample()
        self.marks[-1].append(len(self.samples) - 1)

    def end_pass(self) -> None:
        self.sample()
        self.marks.append([])

    def scaled(self, passes) -> list[list[float]]:
        """Each pass's latencies, scaled to the kernel's reference time."""
        out = []
        for result, marks in zip(passes, self.marks):
            out.append([latency * KERNEL_REF_S * 2 / (self.samples[m] + self.samples[m + 1])
                        for latency, m in zip(result.latencies, marks)])
        return out
