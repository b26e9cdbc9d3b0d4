"""Machine-speed probe: puts timings on one scale across runs.

The benchmark runs on a shared host whose speed drifts: the same code
runs up to 1.8 times slower for seconds to minutes at a time, in
interpreter and numpy work alike, in CPU time as well as wall time (so
the slowdown is not time the process waited).  A fixed probe kernel —
dict updates in the interpreter, numpy sorts, a gather and a scatter,
none of it code of the program under test — is timed right before and
right after every measured sample.  The median probe time near a
sample over ``REFERENCE_S``, the kernel's time on the reference machine,
is the sample's *slowdown*; a timing divided by its slowdown is in
reference seconds, and a rate is multiplied by it.  A change to the
program moves its timings and leaves the probe alone, so it moves the
scaled timings by the same share.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: Probe kernel time (s) on the reference machine in its fast state
#: (2-vCPU Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.0117
#: A probe older than this (s) is re-run before a new sample starts.
_STALE_S = 0.05
#: Probes this close (s) to a sample's interval count towards its slowdown.
SMOOTH_S = 1.0


class SpeedProbe:
    """Times the probe kernel; every time it took is kept."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._values = rng.random(40_000)
        self._index = rng.integers(0, self._values.size, 200_000)
        self._keys = [int(k) for k in rng.integers(0, 1 << 30, 4000)]
        #: ``(perf_counter at the end, kernel seconds)`` of every probe.
        self.samples: list[tuple[float, float]] = []
        # The first runs pay for page faults and cold caches; drop them.
        for _ in range(3):
            self.measure()
        self.samples.clear()

    def _kernel(self) -> None:
        for _ in range(8):
            counts: dict[int, int] = {}
            acc = 0
            for k in self._keys:
                counts[k] = counts.get(k, 0) + 1
                acc += k & 7
            for _ in range(4):
                np.sort(self._values)
            np.add.at(np.zeros(self._values.size), self._index[:20_000], 1.0)
            self._values[self._index].sum()

    def measure(self) -> float:
        """Run the kernel once; its time in seconds.

        The collector is held off, so a collection of the program's
        objects never lands inside the probe.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = time.perf_counter()
            self._kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append((end, end - t))
        return end - t

    def recent(self, n: int = 3) -> float:
        """Slowdown read by the last ``n`` probes (one taken now if stale)."""
        self._fresh()
        return statistics.median(
            sec for _, sec in self.samples[-n:]
        ) / REFERENCE_S

    def start(self) -> float:
        """Probe (unless a probe just ran); the sample's start time."""
        self._fresh()
        return time.perf_counter()

    def stop(self, t0: float) -> tuple[float, float]:
        """End a sample started at ``t0`` and probe; its interval."""
        t1 = time.perf_counter()
        self.measure()
        return t0, t1

    def slowdown(self, t0: float, t1: float) -> float:
        """The slowdown over ``[t0, t1]``.

        The machine's state flips within tens of milliseconds as well as
        over minutes, so one probe misreads it by ~10 % (and now and then
        by a factor of 3).  The median of every probe within ``SMOOTH_S``
        of the interval — its own two and those of the samples around
        it — reads it steadily.
        """
        near = [
            sec for end, sec in self.samples
            if t0 - SMOOTH_S <= end <= t1 + SMOOTH_S + sec
        ]
        return statistics.median(near) / REFERENCE_S

    def _fresh(self) -> None:
        if not self.samples or (
            time.perf_counter() - self.samples[-1][0] > _STALE_S
        ):
            self.measure()
