#!/usr/bin/env python3
"""Solve the partially observed LQ problem and compare against baselines.

For each seed, prints the Picard trace (each iteration's step, cost,
residual and the ensemble change that both the step rule and the stop
read), the final lattice sup-change between the last two policies,
the converged cost with its standard error, the stationarity residual
relative to the uncontrolled residual, and the fully observed Riccati
baseline (an information lower bound), simulated at seed + 1 (mod
2**64).  Then prints one summary row
per seed, ending with the median iteration count over the seeds, and
exits 1 if any seed fails the lq-solve suite's checks at their default
tolerances: not converged, stationarity ratio above ``LQ_MAX_RATIO`` or
tail regression R^2 below ``LQ_MIN_TAIL_R2`` (both in ``harness``).  So
``--seed 0 1 2 ...`` is a repeatable seed gate for the solver.  A ``--spec`` file that cannot be
read or is not a valid spec, or a setting the solver rejects, prints the
error and exits 2.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

from hybridmp.errors import ConfigError, NonConvergence
from hybridmp.harness import LQ_MAX_RATIO, LQ_MIN_TAIL_R2, stationarity_ratio, tail_r2_min
from hybridmp.lq import full_observation_baseline, solve_lq
from hybridmp.model import LQSpec, load_spec
from hybridmp.pathsim import TimeGrid


def _report(lq: LQSpec, grid: TimeGrid, n_paths: int, seed: int, damping: float) -> dict:
    """Solve at ``seed``, print its trace and verdict, return its summary."""
    try:
        sol = solve_lq(lq, grid, n_paths=n_paths, seed=seed, damping=damping)
    except NonConvergence as exc:
        print(f"warning: seed {seed}: {exc}", file=sys.stderr)
        sol = exc.solution

    print(f"{'iter':>4s} {'step':>5s} {'cost':>12s} {'SE':>10s} {'residual':>12s} "
          f"{'ensemble-change':>15s}")
    for row in sol.trace:
        print(f"{row['iteration']:4d} {row['step']:5.2f} {row['cost']:12.6f} "
              f"{row['cost_se']:10.2e} {row['residual']:12.6f} "
              f"{row['ensemble_change']:15.3e}")

    ratio = stationarity_ratio(sol)
    sup = sol.final_sup_change
    print(f"\nconverged: {sol.converged} after {sol.iterations} iterations")
    print(f"final sup-change: {sup['value']:.6f} at k={sup['k']} (t={sup['t']:.4g})")
    print(f"cost: {sol.cost.mean:.6f} +/- {sol.cost.std_error:.6f} "
          f"({sol.cost.n_paths} paths)")
    print(f"stationarity residual: {sol.residual['residual']:.6g} "
          f"({ratio:.2e} x uncontrolled)")

    baseline, analytic = full_observation_baseline(lq, grid, n_paths, (seed + 1) % 2**64)
    print(f"full-observation baseline: {baseline.mean:.6f} "
          f"+/- {baseline.std_error:.6f} (analytic {analytic:.6f})")
    print(f"information premium: {sol.cost.mean - baseline.mean:+.6f}\n")
    return {"seed": seed, "iterations": sol.iterations, "converged": sol.converged,
            "ratio": ratio, "tail_r2": tail_r2_min(sol.adjoint), "cost": sol.cost.mean}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", default=str(Path(__file__).resolve().parents[1]
                                              / "specs" / "default_lq.json"))
    parser.add_argument("--n-steps", type=int, default=400)
    parser.add_argument("--n-paths", type=int, default=4096)
    parser.add_argument("--seed", type=int, nargs="+", default=[42])
    parser.add_argument("--damping", type=float, default=0.5)
    args = parser.parse_args(argv)

    try:
        lq = load_spec(args.spec)
        grid = TimeGrid(lq.horizon, args.n_steps)
        rows = [_report(lq, grid, args.n_paths, seed, args.damping) for seed in args.seed]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{'seed':>10s} {'iters':>5s} {'converged':>9s} {'ratio':>9s} {'tail-R2':>7s} "
          f"{'cost':>12s}  verdict")
    failed = 0
    for row in rows:
        ok = (row["converged"] and row["ratio"] <= LQ_MAX_RATIO
              and row["tail_r2"] >= LQ_MIN_TAIL_R2)
        failed += not ok
        print(f"{row['seed']:10d} {row['iterations']:5d} {str(row['converged']):>9s} "
              f"{row['ratio']:9.2e} {row['tail_r2']:7.4f} {row['cost']:12.6f}  "
              f"{'pass' if ok else 'FAIL'}")
    print(f"{len(rows) - failed} of {len(rows)} seeds pass")
    median = statistics.median(row["iterations"] for row in rows)
    print(f"median iterations over {len(rows)} seeds: {median:g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
