"""Machine-speed calibration for the benchmark's throughput and CPU metrics.

The benchmark runs on shared machines whose speed drifts by 20-30% over
minutes, because of load from other tenants: a fixed loop of partialid draws
and a fixed loop of plain numpy work slow down and speed up together.  The
benchmark therefore times a fixed kernel before and after every timed part
and scales the part's wall and CPU times by ``REFERENCE_S`` over the mean of
the two kernel times.  The result is each time as it would read on the
reference machine at its usual speed.  The kernel uses no partialid code, so
a change to the package cannot move it; ``run.py`` prints the unscaled
figures next to the scaled ones.

The kernel's imports happen when a ``Kernel`` is made, which the benchmark
does only after set-up has been timed, so that ``scipy.special`` does not
count towards ``setup_s``.
"""

from __future__ import annotations

import time

#: Median kernel time on the reference machine (2 CPUs, Python 3.11.7,
#: numpy 2.4.6, scipy 1.17.1).
REFERENCE_S = 0.022


class Kernel:
    """A fixed mix of the program's kinds of work, using no partialid code.

    An incomplete-gamma inversion over an array (the sampler's hot path),
    generator construction in a Python loop (stream set-up), a sort, and
    repeated comparisons over an array larger than the per-core caches (the
    estimators' G x N matrix).  The compute half tracks the samplers' speed
    and the memory half the estimators', so the mix serves every workload.
    """

    def __init__(self):
        import numpy as np
        from scipy import special

        self._np = np
        self._gammaincinv = special.gammaincinv
        self._u = np.random.default_rng(0).random(20_000)
        self._x = np.random.default_rng(1).random(200_000)
        # 8 MB, past the per-core caches, and small next to any workload's RSS
        self._big = np.random.default_rng(2).random(1_000_000)
        self._mask = np.empty(self._big.size, dtype=bool)
        self._levels = np.linspace(0.0, 1.0, 24)

    def time_s(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        self._gammaincinv(1.0, self._u)
        for i in range(300):
            np.random.Generator(np.random.PCG64(np.random.SeedSequence((1, i))))
        np.sort(self._x)
        for level in self._levels:
            np.less_equal(self._big, level, out=self._mask)
            np.count_nonzero(self._mask)
        return time.perf_counter() - t0
