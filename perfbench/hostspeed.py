"""Host-speed reference for the wall-clock metrics.

The benchmark runs on a few cores of a shared host.  There, one fixed
pure-Python loop runs up to 1.7x slower for several seconds at a time and
then speeds up again; CPU time tracks wall time through it, so the slowdown
is the core itself (a busy sibling thread, a lower clock), not time taken
away that could be subtracted.  A program measured in plain wall time moves
as much from run to run, far more than a regression bound can tolerate.

So the benchmark times a fixed reference kernel (:func:`kernel`) in the
gaps between requests.  It does the same two kinds of work as the program:
object, dict and sort bytecode, and sparse dot products summed by ``map``
over ``array`` rows and dict lookups, as in the ``array`` scoring backend.
Each request's wall time is scaled by how fast the host ran the kernel
around it::

    scaled_ns = wall_ns * REFERENCE_NS / (median kernel ns near the request)

A scaled time reads as wall time on a host that runs the kernel in exactly
``REFERENCE_NS`` (about its median on a 2-core Xeon host).  The kernel is
the benchmark's own code, so a change to the program moves the scaled times
exactly as it moves wall time at a fixed host speed; the raw wall figures
are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
from array import array
from operator import mul
from statistics import median
from time import perf_counter_ns
from typing import List, Tuple

#: Kernel time, in ns, of the host the scaled figures are expressed for.
REFERENCE_NS = 1_000_000

#: Requests drained between two kernel samples.  A count, not a time, so
#: that both drains of a day sample before the same requests.
INTERVAL = 16

#: Kernel samples whose median scales one request (0.2 to 0.6 s of drain).
WINDOW = 9

#: Kernel samples taken before and again after each set-up (a long set-up
#: also takes one at each of its ticks).
SETUP_SAMPLES = 5


class _Record:
    __slots__ = ("key", "value", "tags")

    def __init__(self, key: str, value: float, tags: dict) -> None:
        self.key = key
        self.value = value
        self.tags = tags


_DENSE = [((i * 7) % 11) / 11.0 for i in range(500)]
_ROWS = [
    (
        array("q", ((row * 31 + k * 17) % 500 for k in range(16))),
        array("d", (((row + k) % 13) / 13.0 for k in range(16))),
    )
    for row in range(150)
]
_TARGET = {f"t{i}": ((i * 5) % 7) / 7.0 for i in range(24)}
_ENTRIES = [
    {f"t{(row + k * 3) % 60}": ((row * k) % 9) / 9.0 for k in range(10)}
    for row in range(60)
]


def kernel() -> float:
    """A fixed ~1 ms of work: half objects, dicts and sorts, half sparse
    dot products."""
    records = [
        _Record(f"k{i % 97}", ((i * 7919) % 1009) / 1009.0, {"a": i, "b": i * 0.5})
        for i in range(300)
    ]
    index: dict = {}
    for record in records:
        index.setdefault(record.key, []).append(record)
    total = 0.0
    for key in sorted(index):
        group = sorted(index[key], key=lambda record: -record.value)
        total += sum(record.value * record.tags["b"] for record in group[:5])
    dense = _DENSE
    for slots, weights in _ROWS:
        total += sum(map(mul, weights, map(dense.__getitem__, slots)))
    for entry in _ENTRIES:
        total += sum(value * entry.get(key, 0.0) for key, value in _TARGET.items())
    return total


def sample_ns() -> int:
    """Wall ns of one kernel call, made with the garbage collector paused.

    The kernel frees everything it allocates, so with collection paused it
    leaves the collector's counts as it found them: the program's own
    collections then fall where they would without the samples, instead of
    coming sooner and landing in the timed requests.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = perf_counter_ns()
        kernel()
        return perf_counter_ns() - begin
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Kernel samples taken while a day drains, and the scale they give.

    :meth:`before_request` samples the kernel before request 0 and every
    ``INTERVAL``-th request after it.  ``probe_ns`` is the wall time the
    samples took.
    """

    def __init__(self) -> None:
        self.positions: List[int] = []
        self.samples: List[int] = []
        self.probe_ns = 0

    def before_request(self, position: int) -> None:
        if position % INTERVAL:
            return
        begin = perf_counter_ns()
        self.samples.append(sample_ns())
        self.positions.append(position)
        self.probe_ns += perf_counter_ns() - begin

    def scaled(self, wall_ns: List[int]) -> List[float]:
        """``wall_ns`` (request ``i`` at index ``i``), each scaled by the
        median of the ``WINDOW`` kernel samples nearest to it."""
        positions, samples = self.positions, self.samples
        if not samples:
            raise ValueError("no kernel samples were taken")
        half = WINDOW // 2
        last = max(0, len(samples) - WINDOW)
        scaled: List[float] = []
        cached_start, factor = -1, 0.0
        for position, ns in enumerate(wall_ns):
            nearest = bisect.bisect_right(positions, position) - 1
            start = min(max(0, nearest - half), last)
            if start != cached_start:
                cached_start = start
                factor = REFERENCE_NS / median(samples[start:start + WINDOW])
            scaled.append(ns * factor)
        return scaled

    def speed(self) -> float:
        """The host's median speed over the day, ``REFERENCE_NS`` / kernel ns."""
        return REFERENCE_NS / median(self.samples)


def timed_setup(setup) -> Tuple[object, float, float]:
    """Run ``setup(tick)``; return what it built, its wall seconds and its
    seconds scaled to the reference host speed.

    Kernel samples are taken ``SETUP_SAMPLES`` times before and after the
    set-up and at every ``tick()`` it makes; the scale is ``REFERENCE_NS``
    over their median, and the samples taken at ticks are left out of the
    set-up's time.
    """
    taken = [sample_ns() for _ in range(SETUP_SAMPLES)]
    tick_ns = 0

    def tick() -> None:
        nonlocal tick_ns
        begin = perf_counter_ns()
        taken.append(sample_ns())
        tick_ns += perf_counter_ns() - begin

    begin = perf_counter_ns()
    built = setup(tick)
    wall_s = (perf_counter_ns() - begin - tick_ns) / 1e9
    taken.extend(sample_ns() for _ in range(SETUP_SAMPLES))
    return built, wall_s, wall_s * REFERENCE_NS / median(taken)
