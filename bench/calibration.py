"""Machine-speed calibration for timings on a host whose speed drifts.

On a shared 2-vCPU host, pure-Python code can run at one of two speeds
about a factor of two apart (another tenant sharing the physical core,
most likely), switching every few seconds. Whole benchmark runs then land
mostly in one speed or the other, so raw wall times of the same code
spread by 20-40% from run to run.

While the benchmark measures, a `SpeedSampler` interrupts the process
every `INTERVAL_S` with SIGALRM and times `probe`, a fixed pure-Python
loop that touches no ontosearch code. An operation's time is its wall
time minus the probes that ran inside it, scaled by REFERENCE_S over the
mean time of the probes inside it and within WINDOW_S of it: the time it
would have taken on a machine where the probe takes REFERENCE_S. A
change to ontosearch moves the scaled time exactly as it moves the raw
one; the host's speed state mostly cancels.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

INTERVAL_S = 0.2
WINDOW_S = 0.2  # probes this far either side of an operation also describe it
# the probe's wall time in the host's fast state (Python 3.11, 2.1 GHz vCPU)
REFERENCE_S = 0.002


def probe() -> float:
    """Run the calibration loop once; returns its wall time in seconds."""
    started = perf_counter()
    counts: dict[str, int] = {}
    total = 0.0
    for i in range(6_400):
        key = "k" + str(i % 500)
        counts[key] = counts.get(key, 0) + 1
        total += (i * 0.5) ** 0.5
    sorted(counts, key=lambda k: (counts[k], k))
    return perf_counter() - started


class SpeedSampler:
    """Probe samples of the machine's speed, taken every INTERVAL_S while active."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.probing_s = 0.0  # total wall time spent inside probes
        self._previous = None

    def _sample(self, *_) -> None:
        started = perf_counter()
        duration = probe()
        self.starts.append(started)
        self.durations.append(duration)
        self.probing_s += duration

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def mark(self) -> tuple[float, float]:
        """Start of an operation: (wall clock, probe time so far)."""
        return perf_counter(), self.probing_s

    def elapsed(self, mark: tuple[float, float]) -> tuple[float, float]:
        """(end, wall time without probes) of an operation started at `mark`."""
        end = perf_counter()
        return end, end - mark[0] - (self.probing_s - mark[1])

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean probe time from WINDOW_S before `start` to WINDOW_S after `end`."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        window = self.durations[lo:hi] or self.durations[max(lo - 1, 0):lo + 1]
        return REFERENCE_S * len(window) / sum(window)
