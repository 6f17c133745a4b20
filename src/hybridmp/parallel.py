"""Deterministic blocked execution over path ensembles.

Monte Carlo work is split into fixed-size blocks of consecutive path
indices, so that memory stays flat in the ensemble size.  Every path
owns its RNG stream keyed by absolute path index, so a path's values do
not depend on the blocking or on the process that computes it.  With
``workers`` >= 2 and blocks of at least ``POOL_MIN_PATHS`` paths, the
blocks run on a pool of forked worker processes; otherwise (``workers``
0 or 1, one block, small blocks, or no ``fork``) they run one after the
other in the calling thread.  Either way the results merge in block
order, so they do not depend on ``workers``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import WorkerError

DEFAULT_BLOCK_SIZE = 4096

# Smallest block that runs on the process pool.  Measured on 2 cores with
# one BLAS thread (Python 3.11, fork): a 2-process pool starts and runs two
# trivial blocks in 6-15 ms, and four coupled_forward blocks of 1000 steps,
# each reduced to RunningMoments, took (best of 3, serial / pooled)
# 0.181 / 0.195 s at 100 paths, 0.244 / 0.267 s at 256, 0.342 / 0.186 s
# at 512, 0.529 / 0.253 s at 1024 and 1.253 / 0.660 s at 4096.
POOL_MIN_PATHS = 512

# (fn, block_size, running) while a pool runs, so one pool at a time: set
# before the workers fork, so they inherit the block function, which does
# not pickle.  ``running[i]`` holds the pid of the worker inside block i,
# else 0.
_POOL_JOB = None


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
    """Evaluate ``fn(offset, count)`` over consecutive blocks of ``range(n_total)``;
    results in block order.

    The blocks run on ``min(workers, blocks, cores)`` forked processes if
    ``workers`` >= 2, there are at least two blocks of at least
    ``POOL_MIN_PATHS`` paths and the platform can fork; the workers
    inherit ``fn``, and its results must pickle.  Otherwise they run in
    order in the calling thread.  An error raised by ``fn`` in a worker
    reaches the caller with its class and message; a worker that dies
    raises ``WorkerError``."""
    if n_total <= 0:
        raise ValueError("n_total must be positive")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    starts = range(0, n_total, block_size)
    counts = [min(block_size, n_total - start) for start in starts]
    if workers >= 2 and len(starts) >= 2 and block_size >= POOL_MIN_PATHS:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            return _run_pool(fn, starts, counts, min(workers, len(starts), _cores()))
    return list(map(fn, starts, counts))


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_block(offset: int, count: int):
    fn, block_size, running = _POOL_JOB
    index = offset // block_size
    running[index] = os.getpid()
    result = fn(offset, count)
    running[index] = 0
    return result


def _run_pool(fn, starts: range, counts: list, processes: int) -> list:
    global _POOL_JOB
    import mmap
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # an anonymous mapping is shared with the forked workers
    running = np.frombuffer(mmap.mmap(-1, 8 * len(starts)), dtype=np.int64)
    _POOL_JOB = (fn, starts.step, running)
    pool = ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork"))
    workers = pool._processes  # pid -> Process, filled as the pool forks; shutdown drops it
    try:
        return list(pool.map(_run_block, starts, counts))
    except BrokenProcessPool as exc:
        pool.shutdown()  # joins every worker, so each exit code is set
        raise WorkerError(_death_report(workers, running, starts, counts)) from exc
    finally:
        pool.shutdown(cancel_futures=True)
        _POOL_JOB = None


def _death_report(workers: dict, running: np.ndarray, starts: range, counts: list) -> str:
    """Name the block a dead worker was running and how the worker ended.

    A broken pool terminates its other workers, so the dead one is the
    worker whose exit is not that SIGTERM."""
    import signal

    def ended(code) -> str:
        if code is not None and code < 0:
            return f"was killed by signal {-code} ({signal.strsignal(-code)})"
        return f"exited with code {code}"

    codes = {pid: p.exitcode for pid, p in workers.items()}
    dead = {pid: code for pid, code in codes.items() if code != -signal.SIGTERM} or codes
    for index, pid in enumerate(running.tolist()):
        if pid in dead:
            first = starts[index]
            return (f"worker process {pid} running paths {first}..{first + counts[index] - 1} "
                    f"{ended(dead[pid])}")
    return "a worker process " + " and ".join(map(ended, dead.values())) + " between blocks"
