"""Processor speed while a run measures, for time metrics that repeat on a
shared host.

On a host shared with other tenants, a core runs this benchmark's Python
and numpy code about 1.5 times slower while another tenant uses its sibling
hardware thread, and that state flips within seconds and drifts over
minutes.  Raw wall times of identical matches then spread by 20-35% between
runs.  ``SpeedProbe`` times a fixed pure-Python loop from a SIGALRM handler
every 20 ms while the matches run.  A match's time multiplied by
``REFERENCE_S / (mean loop time during the match)`` is its time at the
speed of an undisturbed core.  Raw times are kept as well.
"""

import signal
import statistics
import time

INTERVAL_S = 0.02
# The loop's time on an undisturbed core of the 2-vCPU x86-64 host the
# benchmark was tuned on; reported times are at that speed.
REFERENCE_S = 80e-6


def _loop():
    s = 0
    for i in range(2000):
        s += i
    return s


class SpeedProbe:
    """Context manager sampling the loop time while it is active."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor_since(self, index):
        """REFERENCE_S over the mean loop time of the samples taken since
        ``samples[index]`` (all samples when there are none since)."""
        recent = self.samples[index:] or self.samples
        if not recent:
            return 1.0
        return REFERENCE_S / statistics.fmean(recent)
