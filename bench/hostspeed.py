"""How fast the host runs right now, from fixed work that does not touch qtel.

On a shared host the same job list takes up to 1.5 times as long in one
minute as in the next, and every job class slows and speeds up together.
`Probe` times four fixed kernels between jobs (never inside a timed job):
interpreter-bound Python, 32 x 32 complex products, many 4 x 4 numpy calls,
and in-place sweeps over a 2 MB buffer, the only memory it keeps, so that it
adds little to the peak RSS the benchmark reports.  `factor()` is the
geometric mean over the kernels of (median time in this run / time on the
reference host); a measured time divided by it is the time the reference
host would have taken.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# median seconds of each kernel on the reference host: a 2-vCPU Xeon VM at
# 2.1 GHz, Python 3.11, numpy 2.4, one OpenBLAS thread
REFERENCE_S = {"python": 1.44e-3, "matmul": 0.775e-3, "small_numpy": 3.02e-3,
               "memory": 0.767e-3}
EVERY_S = 0.25  # one probe round per this many seconds of jobs


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self._s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._buffer = np.ones(2**18)
        self.samples: dict[str, list[float]] = {name: [] for name in REFERENCE_S}
        self._last = -math.inf

    def _python(self):
        counts, acc = {}, 0
        for i in range(6000):
            counts[i % 97] = counts.get(i % 97, 0) + i
            acc += i * i

    def _matmul(self):
        m = self._a
        for _ in range(40):
            m = (m @ self._a) / 40.0

    def _small_numpy(self):
        m = self._s
        for _ in range(600):
            m = (m @ self._s) / 4.0
            m.conj().T

    def _memory(self):
        for _ in range(8):
            np.add(self._buffer, 1.0, out=self._buffer)

    def run(self):
        """Time each kernel once."""
        for name in REFERENCE_S:
            kernel = getattr(self, f"_{name}")
            start = time.perf_counter()
            kernel()
            self.samples[name].append(time.perf_counter() - start)
        self._last = time.perf_counter()

    def catch_up(self):
        """Time one round for each `EVERY_S` since the last (at most 8), so that a
        long job, during which no probe can run, is matched by as many rounds."""
        for _ in range(min(8, int((time.perf_counter() - self._last) / EVERY_S))):
            self.run()

    def factor(self) -> float:
        """Host slowness in this run relative to the reference host (> 1: slower)."""
        return math.exp(statistics.fmean(
            math.log(statistics.median(times) / REFERENCE_S[name])
            for name, times in self.samples.items()))
