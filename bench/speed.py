"""Host-speed gauge that turns measured seconds into reference seconds.

A shared host's speed can swing by tens of percent within a few seconds.
Every timing is therefore taken next to a fixed kernel of interpreter work
(integer arithmetic, tuple, list and dict building, a sort, big-integer
products) that calls no overlapkit code; the garbage collector is paused
while it runs, so the program's heap cannot trigger a collection inside it.
A time t measured while the kernel takes k seconds is reported as
t * REFERENCE_KERNEL_S / k: the time on a host where the kernel takes
REFERENCE_KERNEL_S. Raw seconds are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import deque

# About the kernel's median time on an idle 2-vCPU x86-64 container with
# CPython 3.11; a scale of 1.0 means the host ran at that speed.
REFERENCE_KERNEL_S = 0.0005
# scale() takes a fresh reading once the last one is this old
RESAMPLE_S = 0.02
_MODULUS = 10**150 + 7


def kernel() -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        x, pairs = 1, []
        for i in range(700):
            x = (x * 1103515245 + i) & 0x7FFFFFFF
            pairs.append((x, i))
        pairs.sort()
        table = dict(pairs)
        big = 3**400
        for i in range(30):
            big = (big * 7919 + i) % _MODULUS
        return len(table) + big % 7
    finally:
        if enabled:
            gc.enable()


class SpeedGauge:
    """Keeps the last `window` kernel timings."""

    def __init__(self, window: int = 5):
        self.samples: deque[float] = deque(maxlen=window)
        self.last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def scale(self) -> float:
        """Factor from seconds measured now to reference seconds."""
        if time.perf_counter() - self.last >= RESAMPLE_S:
            self.sample()
        return REFERENCE_KERNEL_S / statistics.median(self.samples)
