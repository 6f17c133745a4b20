"""Deterministic blocked execution over path ensembles.

Monte Carlo work is split into fixed-size blocks of consecutive path
indices, so that memory stays flat in the ensemble size.  Every path
owns its RNG stream keyed by absolute path index, so a path's values do
not depend on the blocking.  Blocks run one after the other in the
calling thread and their results merge in block order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_BLOCK_SIZE = 4096


@dataclass
class RunningMoments:
    """Merge-able mean and standard error of a scalar sample.

    Holds (count, mean, M2), M2 the sum of squared deviations from the
    mean, and merges two states with the pairwise update of Chan, Golub
    & LeVeque (1983), so the variance survives any offset of the data.
    One batch reproduces ``np.mean`` and ``np.std(ddof=1) / sqrt(n)``
    bit for bit.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, values: np.ndarray) -> "RunningMoments":
        values = np.asarray(values, dtype=np.float64)
        if values.size:
            mean = np.mean(values)
            self.merge(RunningMoments(values.size, float(mean),
                                      float(np.sum((values - mean) ** 2))))
        return self

    def merge(self, other: "RunningMoments") -> "RunningMoments":
        if self.count == 0:
            self.count, self.mean, self.m2 = other.count, other.mean, other.m2
        elif other.count:
            n = self.count + other.count
            delta = other.mean - self.mean
            self.mean += delta * other.count / n
            self.m2 += other.m2 + delta * delta * self.count * other.count / n
            self.count = n
        return self

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        return self.m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std_error(self) -> float:
        return math.sqrt(self.variance) / math.sqrt(self.count) if self.count > 1 else 0.0


def run_blocks(fn, n_total: int, block_size: int = DEFAULT_BLOCK_SIZE, workers: int = 1) -> list:
    """Evaluate ``fn(offset, count)`` over consecutive blocks of ``range(n_total)``
    in order, in the calling thread; results in block order.  ``workers``
    selects nothing and stays for the callers that pass it."""
    if n_total <= 0:
        raise ValueError("n_total must be positive")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    return [fn(start, min(block_size, n_total - start))
            for start in range(0, n_total, block_size)]
