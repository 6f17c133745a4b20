#!/usr/bin/env python3
"""Time single layer calls at the sizes of the roadmap's baseline table.

    python3 bench/baseline.py

Not gated and not part of BENCHMARK.json: it prints the median of
``REPS`` calls, with the benchmark's default seed, beside the single-run
figure in ROADMAP.md's "Baseline timings" table, with the same thread
cap as ``run.py``.
"""

from __future__ import annotations

import statistics
import sys
import time

import run

REPS = 3
# name -> (paths, steps, roadmap wall time in ms)
ROADMAP = {
    "draw_normals": (4096, 400, 118),
    "simulate_chain": (4096, 400, 194),
    "coupled_forward": (1000, 1000, 520),
    "innovation_forward": (4096, 400, 480),
    "solve_adjoint_bsde": (4096, 400, 1400),
}


def calls(problem, seed):
    """name -> zero-argument callable at the roadmap's size."""
    from hybridmp.adjoint import solve_adjoint_bsde
    from hybridmp.model import zero_policy
    from hybridmp.pathsim import TAG_NOISE, TimeGrid, draw_normals, simulate_chain
    from hybridmp.wonham import coupled_forward, innovation_forward

    def grid(name):
        return TimeGrid(problem.horizon, ROADMAP[name][1])

    def innovation(name):
        return innovation_forward(problem, grid(name), ROADMAP[name][0], seed,
                                  policy=zero_policy(problem.control_domain))

    path = innovation("solve_adjoint_bsde")
    return {
        "draw_normals": lambda: draw_normals(seed, range(ROADMAP["draw_normals"][0]),
                                             TAG_NOISE, ROADMAP["draw_normals"][1]),
        "simulate_chain": lambda: simulate_chain(problem.generator, grid("simulate_chain"),
                                                 ROADMAP["simulate_chain"][0], seed,
                                                 pi0=problem.pi0),
        "coupled_forward": lambda: coupled_forward(problem, grid("coupled_forward"),
                                                   ROADMAP["coupled_forward"][0], seed),
        "innovation_forward": lambda: innovation("innovation_forward"),
        "solve_adjoint_bsde": lambda: solve_adjoint_bsde(problem, path),
    }


def main() -> int:
    run.cap_threads()
    wl = run.import_package()
    spec, _ = wl.load_inputs(run.ROOT)

    print(f"{'layer call':20s} {'paths x steps':>14s} {'median ms':>10s} {'roadmap ms':>11s} "
          f"{'ratio':>6s} {'path-steps/s':>13s}")
    for name, fn in calls(spec.to_problem_spec(), run.SEED).items():
        paths, steps, roadmap_ms = ROADMAP[name]
        times = []
        for _ in range(REPS):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        ms = 1000.0 * statistics.median(times)
        print(f"{name:20s} {f'{paths} x {steps}':>14s} {ms:10.0f} {roadmap_ms:11d} "
              f"{ms / roadmap_ms:6.2f} {paths * steps / (ms / 1000.0):13.4g}")
    print(f"median of {REPS} calls each, seed {run.SEED}; BLAS threads {run.BLAS_THREADS}, nproc {run.nproc()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
