"""The host's speed, read from a fixed reference kernel timed next to each measured call.

On a shared virtual machine the same code runs up to about a third faster or
slower as the host's other guests come and go, in swings that last from
about a second to minutes. A single `closed_loop` run (about 75 ms) falls
inside one swing, so its wall time has two modes, and which mode holds the
median changes from run to run of the same code.

The reference kernel does the same kind of work as the program, a tree walk
over numpy arrays and small dicts of floats, but does not call it, so a
change to the program does not change the kernel's time. Timed right after
a measured call, it slows with the host by the same share. A time divided by
the kernel's time and multiplied by NOMINAL_S reads as the time on a host
that runs the kernel in NOMINAL_S.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Sequence

import numpy as np

# About the kernel's median time on the 2-vCPU Intel Xeon virtual machine
# (Python 3.11, numpy 2.4) the bounds were set on; any fixed value would do.
NOMINAL_S = 0.0035

KERNEL_SEED = 20230203  # fixed: the kernel is the same for every workload seed
NODES = 4096
FEATURES = 8
ROWS = 120


class ReferenceKernel:
    """A fixed tree walk and dict building, timed with the collector off."""

    def __init__(self) -> None:
        rng = np.random.default_rng(KERNEL_SEED)
        index = np.arange(NODES)
        self.feature = rng.integers(0, FEATURES, NODES).astype(np.int32)
        self.feature[NODES // 2 :] = -1  # leaves
        self.threshold = rng.random(NODES)
        self.left = np.minimum(2 * index + 1, NODES - 1).astype(np.int32)
        self.right = np.minimum(2 * index + 2, NODES - 1).astype(np.int32)
        self.rows = rng.random((ROWS, FEATURES))

    def work(self) -> int:
        """One fixed unit of work; returns a checksum so that it cannot be skipped."""
        feature, threshold, left, right = self.feature, self.threshold, self.left, self.right
        total = 0
        for x in self.rows:
            for _ in range(2):
                node = 0
                while feature[node] >= 0:
                    node = left[node] if x[feature[node]] <= threshold[node] else right[node]
                total += int(node)
            payload = {"ue_id": total % 97, "features": [round(float(v), 6) for v in x]}
            total += len(payload["features"]) + int(sum(payload["features"]))
        return total

    def seconds(self) -> tuple[float, float]:
        """(wall, CPU) seconds of one unit of work.

        The collector is off, so that a collection of objects the program
        left behind is not charged to the host.
        """
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            cpu0 = time.process_time()
            start = time.perf_counter()
            self.work()
            return time.perf_counter() - start, time.process_time() - cpu0
        finally:
            if was_enabled:
                gc.enable()


def smoothed(kernel_seconds: Sequence[float]) -> list[float]:
    """Running median of three over consecutive kernel times; drops a single outlier.

    The host's swings last a second or more, longer than three kernel runs
    apart, while one kernel run can be delayed on its own.
    """
    return [statistics.median(kernel_seconds[max(0, i - 1) : i + 2]) for i in range(len(kernel_seconds))]


def at_nominal(seconds: float, kernel_seconds: float) -> float:
    """A time measured while the kernel took kernel_seconds, read at NOMINAL_S."""
    return seconds * NOMINAL_S / kernel_seconds
