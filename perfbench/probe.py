"""A speed probe that samples how fast the machine runs while a pass runs.

On a shared virtual machine the same pass can take 1.3x to 1.7x longer
while the neighbours are busy, in swings lasting from a second to minutes;
both vCPUs slow down together, and the process's CPU time slows with its
wall time (the guest sees no steal time).  So a pass time alone measures
the neighbours as much as the program.

The probe interrupts the process every ``INTERVAL_S`` of wall time (a
SIGALRM interval timer, in the benchmark's own thread) and times a tiny
fixed Python loop.  The median of those samples over a pass says how fast
the machine ran during exactly that pass, and the benchmark reports the
pass time scaled to a machine on which the loop takes ``NOMINAL_S``:
``wall * NOMINAL_S / median sample``.  The loop does not touch priceopt,
so a change to the program moves the pass time and not the scale.  Workloads
do not all slow down exactly as the loop does, so the correction is partial;
README.md gives the measured spreads.  The sampling costs about 0.3 % of a
pass.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.01
# The loop's median time on the 2-core Intel Xeon 2.0 GHz VM (Python 3.11)
# the benchmark was written on, while quiet; it only sets the scale.
NOMINAL_S = 25e-6
_LOOP = range(300)


class SpeedProbe:
    """Context manager: samples the loop time while the block runs."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        x = 0
        for i in _LOOP:
            x += i * i
        self.samples.append(perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._sample(None, None)  # warm up, so the loop runs specialised
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        # Restart interrupted system calls rather than fail them with EINTR.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """NOMINAL_S over the median sample: below 1 when the machine ran slow."""
        if not self.samples:
            return 1.0
        return NOMINAL_S / statistics.median(self.samples)
