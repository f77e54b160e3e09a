"""A fixed reference task that measures how fast the machine runs right now.

On a shared machine the same interpreter-bound work runs up to twice as
slow at some moments as at others, in CPU time as well as wall time, and
its speed changes from one tenth of a second to the next.  The benchmark
therefore runs this probe between short segments of trials and scales
each segment's wall time by ``REFERENCE_S / probe time``, the probe time
being the mean of the probes just before and just after it.  A scaled time reads as the seconds the segment would take
on the machine in the state where the probe takes ``REFERENCE_S``.

The probe uses no hdnav code, so a change to hdnav moves the segments and
not the probe.  Its mix is that of the trials: a breadth-first search over
a grid of tuples in a set and a deque (maze sampling), then cosine cleanup
of 1000-dimensional bipolar vectors against a small dictionary (map build
and recovery).  The garbage collector is off while it runs, so garbage the
program left behind is not collected, and paid for, inside the probe.  Its
arrays stay small: a temporary above the allocator's mmap threshold made
the probe faster after each model build had raised that threshold, while
the trials were not.
"""

from __future__ import annotations

import gc
import time
from collections import deque

import numpy as np

# About the probe's time on a 2-core Xeon VM in a quiet spell.  A constant:
# it sets the unit of the scaled times and cancels out of any comparison of
# two commits.
REFERENCE_S = 0.003

_SIDE = 16
_BLOCKED = frozenset(
    (row, col) for row in range(_SIDE) for col in range(_SIDE)
    if (row * 7 + col * 13) % 5 == 0 and (row, col) != (0, 0)
)
_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_BFS_REPEATS = 16
_VECTORS = np.sign(np.random.default_rng(0).standard_normal((24, 1000)))
_NORMS = np.linalg.norm(_VECTORS, axis=1)
_CLEANUPS = 80


def _reached() -> int:
    seen = {(0, 0)}
    queue = deque(seen)
    while queue:
        row, col = queue.popleft()
        for dr, dc in _STEPS:
            nxt = (row + dr, col + dc)
            if (0 <= nxt[0] < _SIDE and 0 <= nxt[1] < _SIDE
                    and nxt not in _BLOCKED and nxt not in seen):
                seen.add(nxt)
                queue.append(nxt)
    return len(seen)


def _cleanup(i: int) -> int:
    query = _VECTORS[i] * _VECTORS[i + 1] + 0.5 * _VECTORS[i + 2]
    sims = _VECTORS @ query / (_NORMS * np.linalg.norm(query))
    return int(np.argmax(sims))


def probe() -> float:
    """Seconds the reference task took, measured now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(_BFS_REPEATS):
            _reached()
        for i in range(_CLEANUPS):
            _cleanup(i % 20)
        elapsed = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    return elapsed
