"""A host-speed index, sampled in-process while a workload runs.

On the host the baseline was recorded on, the speed of one Python thread
switches between levels 1.4x or more apart, every few seconds and with
no other process of the benchmark running.  Raw wall-clock figures from two 20-second
runs therefore differ by up to 40%, far more than any change worth
measuring.

:class:`HostSampler` runs a fixed pure-Python loop for a few milliseconds
every ``interval`` seconds, from a ``SIGALRM`` handler in the measuring
thread, and records its speed.  The mean over a run, divided by
:data:`REFERENCE_RATE`, is the run's host-speed index: time-based metrics
are reported at the reference speed by dividing rates, and multiplying
times, by it.  The loop is the benchmark's own code, so a change to the
program does not move it, while a slower or faster host moves both.  The
time spent inside the handler is counted in :attr:`HostSampler.spent`
so that callers can take it out of what they time.
"""

from __future__ import annotations

import signal
import time
from typing import List

# Iterations per second of calibrate() that count as host-speed index 1.
REFERENCE_RATE = 5.0e6
SAMPLE_ITERATIONS = 10_000


def calibrate(iterations: int = SAMPLE_ITERATIONS) -> float:
    """Iterations per second of a fixed loop of interpreter work
    (arithmetic, dict stores and lookups, a call per iteration)."""
    table: dict = {}
    get = table.get
    acc = 0
    start = time.perf_counter()
    for i in range(iterations):
        table[i & 63] = acc
        acc = (acc + get(i & 31, 1) * 7) % 1009
    return iterations / (time.perf_counter() - start)


class HostSampler:
    """Samples :func:`calibrate` on a timer in the main thread."""

    def __init__(self, interval: float = 0.25) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def clock(self) -> float:
        """``perf_counter`` minus the time spent sampling."""
        return time.perf_counter() - self.spent

    def index(self) -> float:
        """Sampled speed relative to REFERENCE_RATE: a mean, because the
        run's speed is a mix of the host's levels (a median would pick
        one), trimmed by a tenth at each end against samples cut short
        by preemption."""
        return trimmed_mean(self.samples or [calibrate()]) / REFERENCE_RATE


def trimmed_mean(values: List[float]) -> float:
    ordered = sorted(values)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)
