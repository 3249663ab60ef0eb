"""A fixed reference kernel that tracks how fast the machine runs right now.

The machine this benchmark was built on is a 2-vCPU VM that switches between
speeds about 1.8x apart, within a second or for minutes, while other tenants
run: identical rounds took 0.62 s in one run and 1.10 s in the next. So one
pass of the reference kernel is timed before every operation, and a run's
times are scaled by REFERENCE_SECONDS over the mean pass time: a time t is
reported as t * REFERENCE_SECONDS / mean(pass), the time it would take at the
speed where a pass takes REFERENCE_SECONDS. Both means weigh the fast and
slow spells of the run alike, so their ratio does not depend on how much of
the run was slow.

The kernel is the benchmark's own NumPy and Python code and mixes the kinds
of work embml does: per-trial Philox generators, small batched complex
solves, and float formatting and parsing. No change to embml can change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# one pass of the kernel takes about this long on the reference machine when
# it is not slowed by other tenants
REFERENCE_SECONDS = 0.010


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((256, 8, 8)) + 1j * rng.standard_normal((256, 8, 8))
        self._a = a @ a.conj().swapaxes(1, 2) + 8.0 * np.eye(8)
        self._b = rng.standard_normal((256, 8, 2)) + 0j
        self._values = rng.standard_normal(3000)

    def _pass(self) -> None:
        for i in range(64):
            key = np.array([7, i], dtype=np.uint64)
            np.random.Generator(np.random.Philox(key=key)).standard_normal((2, 8, 17))
        for _ in range(4):
            x = np.linalg.solve(self._a, self._b)
            np.einsum("bij,bij->b", x.conj(), self._b)
        text = ",".join(repr(float(v)) for v in self._values)
        [float(cell) for cell in text.split(",")]

    def pass_seconds(self) -> float:
        """Wall time of one pass of the kernel."""
        t0 = time.perf_counter()
        self._pass()
        return time.perf_counter() - t0


def scale(pass_times) -> float:
    """Factor that brings times taken alongside these passes to reference speed."""
    return REFERENCE_SECONDS / statistics.fmean(pass_times)
