"""A fixed reference kernel that tracks how fast the host is right now.

On a shared VM the speed of the whole machine drifts by 10-40 % over
seconds to minutes, and a slow spell can cover a whole run.  The
harness times this kernel between the sim-time windows of every
untraced repetition and rescales the repetition's host times by
``REF_S / median(kernel times)``: host time on a host where the kernel
takes exactly ``REF_S``.  Drift moves the kernel and the program alike,
so it cancels; a change to the program moves only the program.

The kernel mixes what the simulation spends its host time on:

* a heap of (time, seq, object) entries with dict bookkeeping, like the
  event queue and the per-listener state;
* small-array numpy work (rfft, rounding, bit packing), like the codec;
* a walk along a shuffled ring of 100,000 objects, which misses the
  core's own caches as the program's larger working set does.  A kernel
  without it ran fast in spells when the shared last-level cache was
  busy and the program was not, and overcorrected.

It uses nothing from ``src/``, so no change to the program can change it.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter

import numpy as np

#: the kernel's time on a 2-vCPU Xeon VM in a typical spell, so that
#: rescaled host times read like that VM's
REF_S = 2.0e-3


class _Entry:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.next = None


_SIGNAL = np.random.default_rng(0).standard_normal((8, 1024))


def _ring(size: int) -> list:
    entries = [_Entry(i & 1023, i * 7 % 13) for i in range(size)]
    order = list(range(size))
    random.Random(0).shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        entries[a].next = entries[b]
    return entries


_RING = _ring(100_000)
#: where the next walk starts: each one goes on from the last
_cursor = [_RING[0]]


def _python_part() -> None:
    queue, totals = [], {}
    for i in range(300):
        entry = _Entry(i & 255, i * 7 % 13)
        heapq.heappush(queue, (entry.value, i, entry))
        totals[entry.key] = totals.get(entry.key, 0) + entry.value
    while queue:
        heapq.heappop(queue)


def _numpy_part() -> None:
    for _ in range(2):
        spectrum = np.fft.rfft(_SIGNAL, axis=1)
        levels = np.round(np.abs(spectrum) * 3.0).astype(np.int64)
        np.packbits((levels & 1).astype(np.uint8))


def _memory_part() -> None:
    entry, totals, total = _cursor[0], {}, 0
    for _ in range(2000):
        total += entry.value
        totals[entry.key] = total
        entry = entry.next
    _cursor[0] = entry


def reference_s() -> float:
    """Host seconds one pass of the reference kernel takes now."""
    start = perf_counter()
    _python_part()
    _numpy_part()
    _memory_part()
    return perf_counter() - start
