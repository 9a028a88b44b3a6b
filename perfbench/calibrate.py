"""A fixed pure-Python workload that measures the host's current speed.

On a shared host the speed a process gets swings by up to ~2x within
seconds (CPU time slows as much as wall time, so it is not time stolen
from the process but slower execution).  The benchmark runs `calibrate()`
before and after every timed segment and divides the segment's time by
the mean of the two: the ratio measures the program's work in units of
this loop, which slows with the host the way the simulator does (event
objects on a heap, dicts, string formatting, `json.dumps`).  Multiplied
by `REFERENCE_S` the ratio reads as seconds on a reference host.

The loop imports nothing from `canxlnet`, so a change to the simulator
cannot change the yardstick.  Changing this file changes every reported
time; do it only in a change that also re-baselines the benchmark.
"""

from __future__ import annotations

import heapq
import json
import random
import time

# Seconds that `calibrate()` takes on the reference host: a 2-vCPU Intel
# Xeon VM running Python 3.11, in its fast periods.  Reported times are
# host seconds scaled so that the loop takes this long.
REFERENCE_S = 0.020
EVENTS = 3000


class _Event:
    __slots__ = ("t", "seq", "data")

    def __init__(self, t: float, seq: int, data: dict):
        self.t = t
        self.seq = seq
        self.data = data

    def key(self) -> tuple[float, int]:
        return (self.t, self.seq)


def calibrate() -> float:
    """Run the loop once; its wall time in seconds."""
    t0 = time.perf_counter()
    rng = random.Random(1)
    heap: list = []
    counts: dict[int, int] = {}
    lines = []
    for seq in range(EVENTS):
        event = _Event(rng.random(), seq, {"a": seq, "b": str(seq)})
        heapq.heappush(heap, (event.key(), seq, event))
    while heap:
        _, _, event = heapq.heappop(heap)
        counts[event.seq % 97] = counts.get(event.seq % 97, 0) + 1
        lines.append(json.dumps({"t": event.t, "k": event.seq, "d": event.data},
                                sort_keys=True))
    if len("\n".join(lines)) == 0 or sum(counts.values()) != EVENTS:
        raise AssertionError("calibration loop went wrong")
    return time.perf_counter() - t0


class Yardstick:
    """Times segments of work against the calibration loop around them."""

    def __init__(self) -> None:
        self.last = calibrate()

    def time(self, fn):
        """(fn(), factor): the factor turns host seconds measured inside
        fn into reference seconds."""
        result = fn()
        before, self.last = self.last, calibrate()
        return result, REFERENCE_S / ((before + self.last) / 2)
