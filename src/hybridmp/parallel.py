"""Deterministic blocked execution over path ensembles.

Monte Carlo work is split into fixed-size blocks of consecutive path
indices.  Each block is an independent, deterministic computation (every
path owns its RNG stream keyed by absolute path index), so blocks may be
executed by any number of workers; results are merged in block order,
which makes the final output bit-identical regardless of the worker
count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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


def block_ranges(n_total: int, block_size: int) -> list[tuple[int, int]]:
    """Partition ``range(n_total)`` into (offset, count) blocks."""
    if n_total <= 0:
        raise ValueError("n_total must be positive")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    return [
        (start, min(block_size, n_total - start))
        for start in range(0, n_total, block_size)
    ]


def run_blocks(fn, n_total: int, block_size: int = DEFAULT_BLOCK_SIZE, workers: int = 1) -> list:
    """Evaluate ``fn(offset, count)`` over every block; results in block order.

    ``workers > 1`` uses threads; merging in block order keeps the outcome
    independent of the pool size.  The threads buy little: on a 2-core
    machine, two 4096 x 1000 coupled blocks ran 0.89-0.99x as fast on two
    threads as one after the other.  The observer pass, many small numpy
    calls per step, ran at 0.71-0.73x on its own; only the RNG draws
    gained (1.2-1.6x).
    """
    ranges = block_ranges(n_total, block_size)
    if workers <= 1 or len(ranges) == 1:
        return [fn(offset, count) for offset, count in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, offset, count) for offset, count in ranges]
        return [f.result() for f in futures]
