"""Host-speed normalisation for timings on a shared, drifting host.

On a shared 2-vCPU host the speed of the same code drifts by 15–45%
between runs a minute apart, so raw wall seconds of two runs are not
comparable.  A fixed calibration kernel — a small float32 GEMM chain, a
streaming elementwise update and an interpreter loop, the three kinds of
work the program does — is timed next to the measured work, and each
timing is scaled by ``REFERENCE_S / kernel seconds``.  The result is in
*reference seconds*: the time the work would take while the kernel runs
in ``REFERENCE_S``.  The kernel is the benchmark's own code and touches
no program state; the program cannot speed it up or slow it down.
"""

from __future__ import annotations

import time

import numpy as np

#: calibration kernel seconds on the host the benchmark was defined on
#: (2 vCPUs at 2.0 GHz, Python 3.11, numpy 2.4 with one OpenBLAS thread)
REFERENCE_S = 0.0045
#: the kernel is timed this many times back to back; the fastest counts
REPEATS = 3


class HostSpeed:
    """Times the calibration kernel; ``factor()`` is reference ÷ measured."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((96, 96)).astype(np.float32)
        self._v = rng.standard_normal(200_000).astype(np.float32)

    def _kernel(self) -> None:
        x = self._a
        for _ in range(20):
            x = (x @ self._a) * np.float32(0.01)
        for _ in range(20):
            self._v * np.float32(1.5) + self._v
        s = 0
        for i in range(40_000):
            s += i * i

    def kernel_s(self) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        return best

    def factor(self) -> float:
        return REFERENCE_S / self.kernel_s()
