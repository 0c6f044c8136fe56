"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared host, neighbours slow a process by up to 2x for minutes at a
time, and CPU time slows with wall time, so neither alone can tell a slower
program from a busier host. The benchmark times this kernel between ops and
scales each op's wall time by ``REFERENCE_S / kernel time``. It reports op
times in seconds at the speed the baseline machine had when unloaded.

The kernel mixes the work `arid` spends its time on:

- Cholesky factor and solve on 4x4 and 32x32 blocks;
- a 32x32 product;
- a banded Cholesky solve;
- a short interpreter loop.

It calls NumPy and SciPy only, so no change to the program changes it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.linalg as sla

# Median kernel time on the 2-vCPU Intel Xeon VM the baseline was recorded on.
REFERENCE_S = 0.0130


class Kernel:
    """The reference work, on inputs fixed at construction."""

    def __init__(self):
        rng = np.random.default_rng(0)

        def spd(b: int) -> np.ndarray:
            m = rng.standard_normal((b, b))
            return m @ m.T + b * np.eye(b)

        self._small = [spd(4) for _ in range(8)]
        self._wide = [spd(32) for _ in range(2)]
        self._bands = np.vstack([np.full(300, 10.0)] + [np.full(300, 0.5)] * 5)
        self._rhs = rng.standard_normal(300)

    def seconds(self) -> float:
        """Wall seconds of one pass of the kernel."""
        t0 = perf_counter()
        for _ in range(40):
            for block in self._small:
                sla.cho_solve(sla.cho_factor(block, lower=True), block[0])
            for block in self._wide:
                sla.cho_solve(sla.cho_factor(block, lower=True), block)
                block @ block
            sla.solveh_banded(self._bands, self._rhs, lower=True)
            norm = float(np.sqrt(self._rhs @ self._rhs))
            sum(float(i) * norm for i in range(200))
        return perf_counter() - t0
