"""A fixed reference computation that measures how fast the machine runs now.

On a shared machine, other tenants can slow this process by half for
tens of seconds at a time, and that swamps the differences the benchmark
exists to show. The workloads time the reference before and after each
piece of work. Its duration over its nominal duration is the slowdown
factor at that moment, and a duration divided by that factor is the
duration the work would have taken at full speed. The reference belongs
to the benchmark, so no change to the library changes it.

Contention slows interpreted Python and small BLAS calls more than it
slows large array operations, so each workload picks the kernel that
looks like its own work: ``small_ops`` (small BLAS calls, elementwise
numpy and an interpreted loop, like the tuning workloads) or
``attention`` (one dense R x R masked-softmax attention with R = 512,
like pretraining on flattened batches of ~1100 rows).
"""

from __future__ import annotations

import time

import numpy as np

# Duration of one pass at full speed on the machine the baseline was
# recorded on (x86_64, 2 vCPUs, OpenBLAS 0.3.31, one thread). Only ratios
# between runs on one machine matter; the constants fix the unit.
NOMINAL_S = {"small_ops": 0.003, "attention": 0.003}
PASSES = 5


class Reference:
    def __init__(self, kernel: str = "small_ops"):
        self.kernel = kernel
        self.nominal_s = NOMINAL_S[kernel]
        rng = np.random.default_rng(0)
        self._a = rng.random((64, 64))
        self._q = rng.random((512, 16))
        self.samples: list[float] = []
        self._pass()

    def _pass(self) -> float:
        started = time.perf_counter()
        if self.kernel == "attention":
            scores = self._q @ self._q.T
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            _ = (e / e.sum(axis=1, keepdims=True)) @ self._q
        else:
            acc = 0.0
            for _ in range(40):
                acc += float(np.exp((self._a @ self._a) * 1e-3).sum())
                k = 0
                for j in range(2000):
                    k += j
        return time.perf_counter() - started

    def factor(self) -> float:
        """Slowdown now: the fastest of a few passes over the nominal duration."""
        best = min(self._pass() for _ in range(PASSES))
        self.samples.append(best)
        return best / self.nominal_s
