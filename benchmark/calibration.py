"""Machine-speed calibration for a shared, noisy VM.

On a 2-core VM the speed of a fixed loop drifts by up to 1.9x over
seconds to minutes, and process CPU time drifts with it, so the slowdown
belongs to the virtual CPU. A fixed kernel that never calls the program,
timed between the measured intervals of a run, gives the machine's speed
during that run. Scaling the run's times by ``REFERENCE_S / kernel
time`` reports them in seconds at a fixed reference speed, which is what
makes runs at different times comparable.

The kernel mixes the kinds of work the workloads do: small matrix
products behind Python calls, streaming over arrays larger than the
caches, parsing decimal text and a stable argsort.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time at the reference speed: its median on a 2-core x86-64 VM
# with OpenBLAS on one thread. Only a unit; any fixed value would do.
REFERENCE_S = 0.04


class Calibration:
    """The kernel's inputs, made once, and the kernel times taken so far."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((32, 64))
        self.b = rng.standard_normal((64, 64))
        self.big = rng.standard_normal(2_000_000)
        self.buf = np.empty_like(self.big)
        self.text = ",".join(repr(float(x)) for x in rng.standard_normal(20_000))
        self.keys = rng.standard_normal(70_000)
        self.samples: list[float] = []

    def _once(self) -> float:
        t0 = time.perf_counter()
        for _ in range(800):
            np.maximum(self.a @ self.b, 0.0).sum(axis=0)
        for _ in range(4):
            np.multiply(self.big, 1.0001, out=self.buf)
            np.add(self.buf, self.big, out=self.buf)
        [float(tok) for tok in self.text.split(",")]
        np.argsort(self.keys, kind="stable")
        return time.perf_counter() - t0

    def mark(self) -> None:
        """Time the kernel now: the median of seven runs."""
        self.samples.append(statistics.median(self._once() for _ in range(7)))

    def factor(self) -> float:
        """Wall seconds to reference seconds, from every mark so far.

        One factor per run: the kernel's own jitter between marks is as
        large as the drift it tracks, so pooling the marks beats scaling
        each interval by its neighbours.
        """
        return REFERENCE_S / statistics.median(self.samples)
