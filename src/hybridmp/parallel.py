"""Deterministic blocked execution over path ensembles.

Monte Carlo work is split into fixed-size blocks of consecutive path
indices.  Each block is an independent, deterministic computation (every
path owns its RNG stream keyed by absolute path index), so blocks may be
executed by any number of workers; results are merged in block order,
which makes the final output bit-identical regardless of the worker
count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

DEFAULT_BLOCK_SIZE = 4096


@dataclass
class RunningMoments:
    """Merge-able accumulator for mean / standard error of a scalar sample."""

    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0

    def add(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        self.count += values.size
        self.total += float(values.sum())
        self.total_sq += float(np.square(values).sum())

    def merge(self, other: "RunningMoments") -> "RunningMoments":
        self.count += other.count
        self.total += other.total
        self.total_sq += other.total_sq
        return self

    @property
    def mean(self) -> float:
        return self.total / self.count

    @property
    def variance(self) -> float:
        # Unbiased sample variance.
        if self.count < 2:
            return 0.0
        return max(0.0, (self.total_sq - self.total**2 / self.count) / (self.count - 1))

    @property
    def std_error(self) -> float:
        if self.count < 2:
            return 0.0
        return float(np.sqrt(self.variance / self.count))


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

    ``workers > 1`` uses threads (numpy releases the GIL in its kernels);
    merging in block order keeps the outcome independent of the pool size.
    """
    ranges = block_ranges(n_total, block_size)
    if workers <= 1 or len(ranges) == 1:
        return [fn(offset, count) for offset, count in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, offset, count) for offset, count in ranges]
        return [f.result() for f in futures]
