"""Host-speed correction of measured times.

The host this benchmark was built on (a 2-core Xeon VM) drifts in speed: the
time of a fixed pure-Python loop varied by up to 2x within one minute, in
plateaus of 10 to 20 s, and the raw wall times of identical work differed by
17 to 29 % (quartile spread over 5 to 10 runs).  Every time the benchmark
reports is therefore corrected: kernel() is timed every INTERVAL_S of CPU
time while the operations run, and a wall time is multiplied by
REFERENCE_S / k, where k is the median of the samples taken within WINDOW_S
of it.  The result reads as seconds at the host speed at which kernel()
takes REFERENCE_S; on that host it cut the spread of sweep-t35's run_s from
0.17 to 0.04 (5 runs).  Raw wall times stay in the results file.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 0.0008  # about the fastest kernel() seen on that host
INTERVAL_S = 0.1  # CPU seconds between samples
WINDOW_S = 1.0  # samples this close to a measured interval correct it

_A = 3**400
_B = 7**300 + 1


def kernel() -> float:
    """Seconds of one run of a fixed big-integer multiply, divide and remainder
    loop.  Of the loops tried (dict and str work, method calls and list
    indexing, big integers), its time followed the drift of the workloads'
    operation times most closely (log-log slope 0.9)."""
    start = time.perf_counter()
    acc = 0
    for i in range(300):
        acc += (_A * _B // (_B - i)) % 1000003
    return time.perf_counter() - start


def factor(samples: list[float]) -> float:
    """Multiplier from wall seconds to reference seconds."""
    return REFERENCE_S / statistics.median(samples)


class Sampler:
    """Times kernel() every INTERVAL_S of CPU time (SIGPROF) between start()
    and stop(), and counts the seconds it spends doing so in own."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, kernel seconds)
        self.own = 0.0
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.samples.append((start, kernel()))
        self.own += time.perf_counter() - start

    def start(self) -> None:
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._sample()

    def factor(self, start: float, end: float) -> float:
        """Factor for wall seconds measured from start to end (perf_counter),
        from the samples taken within WINDOW_S of that interval."""
        near = [k for t, k in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return factor(near or [min(self.samples, key=lambda s: abs(s[0] - start))[1]])
