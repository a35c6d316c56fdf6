"""Stage timings corrected for the machine's changing speed.

On the shared 2-vCPU VM the bounds were set on, the speed of a core changes
by up to 1.7x from one second to the next, with the load of the host's
other tenants.  The process is not descheduled meanwhile (a spinning clock
loop sees no gaps); every instruction is slower.  A stage that takes
seconds runs through many such changes, so its wall time says as much
about the other tenants as about the program.

`SpeedProbe.time(fn, ...)` therefore samples the machine's speed while the
stage runs: every PROBE_INTERVAL_S a SIGALRM handler times a fixed
pure-Python loop that does not touch marginsim.  The probe's own time is
taken out of the stage's wall time, and the rest is scaled by the mean
speed the probe saw relative to REFERENCE_PROBE_S:

    scaled_s = (wall_s - probe time) * mean(REFERENCE_PROBE_S / probe_s)

that is, the seconds the stage would have taken had the core kept the
reference speed throughout.  A change to the program moves `scaled_s` as it
moves the wall time; a change in the other tenants' load moves the probe
too, and so mostly cancels.  The probe costs about 2% of the stage's wall
time.
"""

from __future__ import annotations

import signal
from time import perf_counter

PROBE_INTERVAL_S = 0.01
PROBE_ITERATIONS = 3000
# About the probe's duration on the 2.0 GHz Xeon vCPU the bounds were set
# on, in its fast state; it only fixes the scale of `scaled_s`.
REFERENCE_PROBE_S = 1.3e-4


def probe_once() -> float:
    """Seconds one pass of the fixed probe loop takes now."""
    start = perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x += i & 7
    return perf_counter() - start


class Timing:
    """One timed call.  (A plain class: the set-up probe loads this module
    before it starts timing, and `dataclasses` would pull in modules that
    marginsim's own import should pay for.)"""

    def __init__(self, wall_s: float, probe_s: float, speed: float):
        self.wall_s = wall_s  # wall time of the call, probes included
        self.probe_s = probe_s  # time the probes took within it
        self.speed = speed  # mean probe speed relative to the reference

    @property
    def scaled_s(self) -> float:
        return (self.wall_s - self.probe_s) * self.speed


class SpeedProbe:
    """Samples the machine's speed while a timed call runs.  Main thread
    only, one timed call at a time; SIGALRM is free again between calls."""

    def __init__(self):
        self._samples: list[float] = []

    def _handler(self, signum, frame):
        self._samples.append(probe_once())

    def time(self, fn, *args):
        """`fn(*args)` with the probe running; returns (result, Timing)."""
        before = probe_once()  # outside the timed window, so even a call
        self._samples = []     # shorter than the interval gets a sample
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            wall_s = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = self._samples
        samples = [before, *inside, probe_once()]
        speed = sum(REFERENCE_PROBE_S / s for s in samples) / len(samples)
        return result, Timing(wall_s, sum(inside), speed)
