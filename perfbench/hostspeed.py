"""Host-speed probe: times in reference seconds on a shared host.

The benchmark runs on a few cores of a shared host.  Other tenants' load
changes the speed of those cores by up to 1.7x for seconds at a time, and the
same workload's wall time moves with it; medians over a 40-second run still
differ by 15-25% between runs.  A fixed probe measures that speed where and
when the workload runs: a SIGALRM timer interrupts the measuring process every
``PERIOD_S`` and the handler times one call of ``probe()`` (an integer loop,
float formatting and a NumPy sort, kinds of work the workloads do).  Over
an interval, the mean probe time divided by ``REFERENCE_S`` is the host's
slowdown during it, and

    reference seconds = (wall time - probe time inside the interval) / slowdown

is the time the interval would have taken on a core where the probe takes
``REFERENCE_S``.  Program changes move this the same way they move wall time;
the host's drift largely cancels.  A probe that lands inside a long C call
runs when the call returns, so such calls are sampled at their ends only.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
REFERENCE_S = 500e-6  # about the probe's time on an idle vCPU of the 2-vCPU Xeon VM the benchmark was tuned on

_INTS = range(2000)
_FLOATS = np.random.default_rng(12345).random(20_000)
_FORMATTED = _FLOATS[:150].tolist()


def probe() -> float:
    """Fixed work whose duration tracks the host's speed: an integer loop,
    float formatting and a NumPy sort.  Its data stay small (160 kB), so the
    workload's own cache footprint moves its time little.  Against the three
    workloads on a noisy host it left about 4-8% error in the slowdown it
    predicts for a whole workload run, where the raw times moved by 11-17%
(standard deviations of the logarithm);
    probes that read megabytes tracked some runs better but slowed with the
    workload's cache use, which a program change could alter."""
    acc = 0
    for i in _INTS:
        acc += i * i % 7
    text = ",".join(["%r" % x for x in _FORMATTED])
    return acc + len(text) + float(np.sort(_FLOATS)[-1])


class SpeedProbe:
    """Probe samples taken on a timer in this process, with interval views."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples = []  # (time taken at, probe duration), both perf_counter seconds
        self._previous = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        probe()
        self.samples.append((t0, time.perf_counter() - t0))

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def slowdown_in(self, start: float, end: float) -> float:
        """Slowdown over the interval [start, end] (perf_counter readings),
        from the samples inside it and the nearest one on either side."""
        inside = [d for t, d in self.samples if start <= t < end]
        before = [d for t, d in self.samples if t < start][-1:]
        after = [d for t, d in self.samples if t >= end][:1]
        around = before + inside + after
        if not around:
            raise ValueError("no probe sample near the interval")
        return statistics.fmean(around) / REFERENCE_S

    def reference_s(self, start: float, end: float) -> float:
        """Reference seconds of the interval [start, end]: its wall time less
        the probes run inside it, over its slowdown."""
        probed = sum(d for t, d in self.samples if start <= t < end)
        return (end - start - probed) / self.slowdown_in(start, end)
