"""Times in reference seconds, for a CPU whose speed drifts under shared load.

On a shared 2-vCPU machine the same work takes from 1x to 1.7x as long,
with swings that last seconds to minutes and that the two vCPUs do not share.
Medians over passes cannot remove drift that outlasts a run. So the
benchmark pins itself to one CPU and measures that CPU's speed with two
fixed references that do not touch biposet:

- a pure-Python loop, timed every SAMPLE_INTERVAL_S while in-process work
  runs (SIGALRM); it tracks interpreter work;
- starting an interpreter that imports numpy (`python -c "import numpy"`),
  timed before the first and after each subprocess of a group of
  subprocesses the benchmark runs one after another on the same CPU; it
  tracks process start and module import, which slow down more than the
  loop does (file-system and page-fault work).

A stretch of wall time between two samples counts as

    length * REF / (mean reference time at the two samples)

which is the time the stretch would have taken at the speed the reference
ran at when REF was measured. The import reference is used where both
samples have one, the loop otherwise. Sample windows themselves are
not counted. Each sample's reference times are first replaced by the median
of the samples within SMOOTH_S of it, so that one disturbed sample does not
skew a stretch.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time

LOOP_ITERS = 10_000
LOOP_REPEATS = 3
# reference times on an uncontended vCPU of a 2-vCPU x86_64 VM, CPython 3.11, numpy 2.4
REF_LOOP_S = 0.00060
REF_IMPORT_S = 0.125
SAMPLE_INTERVAL_S = 0.25
SMOOTH_S = 1.0


def loop_time() -> float:
    """Fastest of LOOP_REPEATS runs of the fixed loop, in seconds."""
    best = float("inf")
    for _ in range(LOOP_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(LOOP_ITERS):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def import_time() -> float:
    """Seconds to start an interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - t0


def pin_to_one_cpu() -> int:
    """Pin this process and the children it starts afterwards to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speedometer:
    """Reference samples (start, end, loop seconds, import seconds or None) on this CPU."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float, float | None]] = []
        self.held = True

    def sample(self, with_import: bool = False) -> None:
        start = time.perf_counter()
        loop = loop_time()
        imported = import_time() if with_import else None
        self.samples.append((start, time.perf_counter(), loop, imported))

    def run(self) -> None:
        """Sample now and then every SAMPLE_INTERVAL_S until hold()."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        self.sample()
        self.held = False
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def hold(self) -> None:
        """Stop periodic sampling before subprocesses; take an import sample."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.held = True
        self.sample(with_import=True)

    def ref_seconds(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Each perf_counter interval (t0, t1) in reference seconds.

        Needs samples before every t0 and after every t1.
        """
        mids = [(start + end) / 2 for start, end, _, _ in self.samples]

        def smoothed(column: int) -> list[float | None]:
            return [None if s[column] is None else statistics.median(
                        n[column] for m, n in zip(mids, self.samples)
                        if n[column] is not None and abs(m - mid) <= SMOOTH_S)
                    for mid, s in zip(mids, self.samples)]

        loops, imports = smoothed(2), smoothed(3)
        segments = []
        for k in range(len(self.samples) - 1):
            if imports[k] is not None and imports[k + 1] is not None:
                scale = REF_IMPORT_S * 2 / (imports[k] + imports[k + 1])
            else:
                scale = REF_LOOP_S * 2 / (loops[k] + loops[k + 1])
            segments.append((self.samples[k][1], self.samples[k + 1][0], scale))
        return [sum((min(t1, hi) - max(t0, lo)) * scale for lo, hi, scale in segments
                    if min(t1, hi) > max(t0, lo))
                for t0, t1 in intervals]
