"""Machine-speed calibration for the timed metrics.

On a shared host the same operation runs markedly slower in some minutes
than in others.  On the 2-vCPU x86_64 Xeon host where this benchmark was
defined, the median wall time of 30-second runs of one workload spread by
0.16 to 0.31 (interquartile range over median, 10 runs), and the fastest
operation of a run ranged from 0.96 s to 1.56 s.  A fixed kernel timed
right before and right after each operation slows down with it, so
operation time over kernel time spreads far less.

Timed end-to-end metrics are therefore reported in reference seconds: the
wall time multiplied by ``CALIB_REF_S`` over the kernel's wall time around
it.  The kernel mixes what the program spends its time on: scalar indexing
in Python loops (the banded core), small-array numpy (per-element
assembly), large vectorized numpy (evaluation scans) and banded LAPACK.  It
runs about 0.3 s, long enough that its own jitter stays below the
operation's.  It lives in the benchmark, so a change to the program cannot
change it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.linalg import cholesky_banded

#: About the kernel's median time on the defining host (2-vCPU x86_64 Xeon,
#: Python 3.11, numpy 2.4, scipy 1.17).  A unit conversion only: the
#: reported values compare across runs because the kernel never changes.
CALIB_REF_S = 0.3


class Calibration:
    """The fixed kernel and its timings."""

    def __init__(self):
        self._band = np.ones((7, 27000))
        self._upper = np.zeros((4, 3000))
        self._upper[3] = 10.0
        self._upper[:3] = 0.5
        self._points = np.linspace(0.0, 1.0, 6)
        self._scan = np.linspace(0.0, 1.0, 200_000)
        self.samples: list = []

    def _kernel(self) -> float:
        acc = 0.0
        band = self._band
        for j in range(band.shape[1]):
            for d in range(band.shape[0]):
                acc += float(band[d, j])
        xi = self._points
        for _ in range(13500):
            shapes = np.stack([1 - 3 * xi**2, xi * (1 - xi), 3 * xi**2, xi**3], axis=-1)
            acc += float(np.dot(xi, shapes[:, 0]))
        for _ in range(45):
            acc += float(np.sum(np.sin(self._scan) * self._scan))
            acc += float(cholesky_banded(self._upper, lower=False)[3, 0])
        return acc

    def measure(self) -> float:
        """Run the kernel once; its wall seconds."""
        t0 = perf_counter()
        self._kernel()
        seconds = perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """Wall ``seconds`` in reference seconds, from the kernel times around it."""
        return seconds * CALIB_REF_S / (0.5 * (before + after))
