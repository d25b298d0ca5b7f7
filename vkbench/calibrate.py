"""Host-speed calibration: a fixed pure-Python slice timed between requests.

The benchmark runs on shared hosts whose speed drifts by 30-40 % for
minutes at a time, and jitters by as much from one second to the next,
so two runs of the same code can differ by more than any change worth
measuring.  A pass therefore times a fixed slice of interpreter work
(dict updates on tuple keys, a keyed sort: the kind of work vknots does)
right before every request and once after the last.  The median time of
the slices taken within ``WINDOW_S`` of a request measures the host's
speed around it, and the request's time is scaled by
``REFERENCE_SLICE_S`` over that median: it reads as seconds on a host
running at the reference speed.  The slice does not touch vknots, so a
change to vknots moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import gc
import statistics
import time

SLICE_ROUNDS, SLICE_SIZE = 6, 2000  # small, so the slices do not move peak_rss_mb
# Median slice time on a 2-core Xeon host at 2.0 GHz (CPython 3.11) in its
# usual speed mode; it only sets the unit of the scaled times.
REFERENCE_SLICE_S = 0.0085
WINDOW_S = 0.5  # slices this close to a request measure the speed around it
NEAREST = 3  # slices used when fewer lie in the window
BURST = 5  # slices right after set-up, which scale the set-up time


def _slice() -> int:
    counts: dict = {}
    total = 0
    for r in range(SLICE_ROUNDS):
        for i in range(SLICE_SIZE):
            key = (i * 7919 + r) % 251, i & 7
            counts[key] = counts.get(key, 0) + 1
        total += sorted(range(SLICE_SIZE), key=lambda x: (x * 31 + r) % 997)[100]
    return total + sum(v for v in counts.values() if v & 1)


class Calibration:
    """Slices taken in one process; turns its raw times into reference seconds."""

    def __init__(self) -> None:
        self.slices: list[tuple[float, float]] = []  # (start, end), perf_counter seconds
        self.spent_s = 0.0

    def sample(self) -> float:
        # The collector is off during the slice: a collection's cost grows
        # with the process's live objects, which belong to the workload.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _slice()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.slices.append((t0, end))
        self.spent_s += end - t0
        return end - t0

    def burst(self) -> float:
        """Scale factor from BURST slices taken now."""
        return REFERENCE_SLICE_S / statistics.median(self.sample() for _ in range(BURST))

    def scale_between(self, start: float, end: float) -> float:
        """Scale factor for a request that ran from start to end."""
        mids = [((a + b) / 2, b - a) for a, b in self.slices]
        near = [t for mid, t in mids if start - WINDOW_S <= mid <= end + WINDOW_S]
        if len(near) < NEAREST:
            mids.sort(key=lambda m: min(abs(m[0] - start), abs(m[0] - end)))
            near = [t for _, t in mids[:NEAREST]]
        return REFERENCE_SLICE_S / statistics.median(near)

    def scale(self) -> float:
        """Scale factor from every slice taken so far."""
        return REFERENCE_SLICE_S / statistics.median(b - a for a, b in self.slices)
