"""The benchmark's workloads and the op that each one times.

An ``adjoint`` or ``picard`` op runs a harness suite through
``hybridmp.harness.run_suite`` with an ``ExperimentConfig`` built in code,
the way ``scripts/run_all_suites.py`` does, and writes into a fresh
directory that is deleted afterwards.  A ``filter`` op calls the forward
layers directly (see ``Forward``).  Importing this module imports numpy,
so the caller sets the BLAS thread cap first.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hybridmp.harness as harness
from hybridmp import parallel, pathsim, wonham
from hybridmp.model import LQSpec, zero_policy


@dataclass(frozen=True)
class Step:
    suite: str
    n_paths: int
    n_steps: int

    @property
    def path_steps(self) -> int:
        return self.n_paths * self.n_steps


@dataclass(frozen=True)
class Forward:
    """The forward work of the filter-check and convergence-sweep suites.

    A coupled Euler + Wonham pass over ``n_paths`` x ``n_steps`` in
    threaded blocks, the Zakai filter and the Bayes oracle on
    ``N_CHECK`` of those paths, and a zero-policy cost estimate over
    ``cost_paths`` x ``cost_steps``.  The suites' own verdicts are not
    used: ``oracle_rmse_ratio`` and ``oracle_rmse_monotone`` are judged on
    100 paths and miss their tolerance on some seeds, so ``forward_values``
    checks invariants that hold on every seed instead.
    """

    n_paths: int
    n_steps: int
    cost_paths: int
    cost_steps: int
    block_size: int = parallel.DEFAULT_BLOCK_SIZE

    suite = "forward"

    @property
    def path_steps(self) -> int:
        return self.n_paths * self.n_steps + self.cost_paths * self.cost_steps


N_CHECK = 100  # paths the suites compare against the Zakai filter and the oracle
QV_TOL = 0.05  # filter-check's default qv_error tolerance
KS_TOL_DT = 100.0  # filter-check's ks_zakai_sup_gap tolerance, in grid steps
PROB_TOL = 1e-9

# Why each workload exists is written down in BENCHMARK.json and README.md.
WORKLOADS = {
    "filter": (Forward(16384, 1000, 2000, 2000),),
    "adjoint": (Step("mp-check", 2048, 200),),
    "picard": (Step("lq-solve", 2048, 200),),
}
# Small sizes that still run every code path of the workload's op; used
# for the set-up probe, the warm-up and the self-test.  The filter grid
# keeps 1000 steps: on coarser grids the innovation's quadratic variation
# misses QV_TOL.
TOY = {
    "filter": (Forward(2 * N_CHECK, 1000, 100, 100, block_size=N_CHECK),),
    "adjoint": (Step("mp-check", 200, 20),),
    "picard": (Step("lq-solve", 100, 20),),
}
# Solution-quality metrics read from each suite's results.json.
QUALITY = {
    "filter": ("ks_zakai_sup_gap",),
    "adjoint": ("duality_rel_gap",),
    "picard": ("cost_mean", "stationarity_ratio"),
}
LQ_KEYS = ("lq_damping", "lq_tol", "lq_max_iter")


def path_steps(steps) -> int:
    """The problem's paths x steps, the unit of the roadmap's throughput."""
    return sum(s.path_steps for s in steps)


def load_inputs(root: Path) -> tuple[LQSpec, dict]:
    """The default spec and the Picard settings of the shipped lq-solve config."""
    spec = LQSpec.from_json(json.loads((root / "specs" / "default_lq.json").read_text()))
    lq_config = json.loads((root / "configs" / "lq_solve.json").read_text())
    return spec, {key: lq_config[key] for key in LQ_KEYS}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _value(value: float, tolerance: float, comparator: str) -> dict:
    ok = value <= tolerance if comparator == "<=" else value == tolerance
    return {"value": value, "tolerance": tolerance, "comparator": comparator, "pass": bool(ok)}


def forward_values(step: Forward, spec: LQSpec, seed: int, workers: int) -> tuple[dict, dict]:
    """Run a ``Forward`` step; returns its checks and its output digests.

    Every check holds on every seed: filter probabilities stay in [0, 1]
    and sum to 1, the innovation's quadratic variation matches the horizon
    within the suite's tolerance, the normalized and Zakai filters agree
    within the suite's tolerance, the check paths redrawn on their own are
    bit-identical to the same paths inside the blocked pass, the normalized
    filter replayed on those paths is bit-identical to the coupled pass,
    and the cost estimate is finite.
    """
    problem = spec.to_problem_spec()
    grid = pathsim.TimeGrid(problem.horizon, step.n_steps)
    horizon = problem.horizon

    def block(offset, count):
        fpath = wonham.coupled_forward(problem, grid, count, seed, path_offset=offset).filter_path
        qv = parallel.RunningMoments()
        qv.add(np.abs(fpath.innovation_qv() - horizon) / horizon)
        terminal = parallel.RunningMoments()
        terminal.add(fpath.probs[:, -1, 0])
        p = fpath.probs
        return {"qv": qv, "terminal": terminal, "clamps": fpath.clamp_events,
                "prob_error": float(max(-p.min(), p.max() - 1.0,
                                        np.abs(p.sum(axis=2) - 1.0).max())),
                "head": p[:N_CHECK, -1, 0].copy() if offset == 0 else None}

    if step.block_size < N_CHECK:
        raise ValueError(f"block_size must be at least {N_CHECK}")

    parts = parallel.run_blocks(block, step.n_paths, block_size=step.block_size,
                                workers=workers)
    qv, terminal = parallel.RunningMoments(), parallel.RunningMoments()
    for part in parts:
        qv.merge(part["qv"])
        terminal.merge(part["terminal"])
    prob_error = max(part["prob_error"] for part in parts)

    check = wonham.coupled_forward(problem, grid, N_CHECK, seed)
    states, controls = check.bundle.states, check.bundle.controls
    pi = check.filter_path.probs
    replay = wonham.run_normalized_filter(problem, grid, states, controls).probs
    zakai = wonham.run_zakai_filter(problem, grid, states, controls)
    ks_gap = float(np.mean(np.max(np.abs(zakai.probs[..., 0] - pi[..., 0]), axis=1)))
    oracle = wonham.discrete_bayes_oracle(problem, grid, states, controls)
    rmse = float(np.sqrt(np.mean((replay[:, -1, 0] - oracle[:, -1, 0]) ** 2)))
    cost = pathsim.estimate_cost(problem, pathsim.TimeGrid(horizon, step.cost_steps),
                                 step.cost_paths, seed, policy=zero_policy(problem.control_domain),
                                 workers=workers)

    checks = {
        "prob_error": _value(prob_error, PROB_TOL, "<="),
        "qv_error": _value(qv.mean, QV_TOL, "<="),
        "ks_zakai_sup_gap": _value(ks_gap, KS_TOL_DT * grid.dt, "<="),
        "check_paths_match": _value(float(np.array_equal(parts[0]["head"], pi[:, -1, 0])),
                                    1.0, "=="),
        "replay_matches": _value(float(np.array_equal(replay, pi)), 1.0, "=="),
        "cost_finite": _value(float(math.isfinite(cost.mean) and cost.std_error > 0), 1.0, "=="),
    }
    values = {"qv_mean": qv.mean, "terminal_pi_mean": terminal.mean,
              "terminal_pi_se": terminal.std_error,
              "clamp_events": sum(part["clamps"] for part in parts),
              "ks_gap": ks_gap, "oracle_rmse": rmse, "cost_mean": cost.mean,
              "cost_se": cost.std_error}
    digest = hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()
    return checks, {"values.json": digest}


def _suite_step(step: Step, spec: LQSpec, lq_params: dict, seed: int, workers: int,
                work_dir: Path, op: dict) -> int:
    """Run one harness suite into a fresh directory; time only ``run_suite``."""
    out = Path(tempfile.mkdtemp(prefix=f"{step.suite}-", dir=work_dir))
    try:
        cfg = harness.ExperimentConfig(
            suite=step.suite, spec=spec, n_paths=step.n_paths,
            n_steps=step.n_steps, seed=seed, workers=workers,
            out_dir=str(out), **(lq_params if step.suite == "lq-solve" else {}),
        )
        start = time.perf_counter()
        try:
            code = harness.run_suite(cfg)
        finally:
            op["wall_s"] += time.perf_counter() - start
        if (out / "manifest.json").exists():
            op["outputs"][step.suite] = json.loads((out / "manifest.json").read_text())
            results = json.loads((out / "results.json").read_text())
            op["metrics"][step.suite] = results["metrics"]
        if (out / "error.json").exists():
            op["errors"][step.suite] = json.loads((out / "error.json").read_text())
        op["bytes_written"] += _dir_bytes(out)
        return code
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _forward_step(step: Forward, spec: LQSpec, seed: int, workers: int, op: dict) -> int:
    start = time.perf_counter()
    try:
        checks, outputs = forward_values(step, spec, seed, workers)
    finally:
        op["wall_s"] += time.perf_counter() - start
    op["metrics"][step.suite] = checks
    op["outputs"][step.suite] = outputs
    return 0 if all(c["pass"] for c in checks.values()) else 1


def run_op(steps, spec: LQSpec, lq_params: dict, seed: int, workers: int,
           work_dir: Path) -> dict:
    """Run each step once; time only the suite or forward calls.

    An op fails if a step raises, a suite returns anything but 0, or a
    forward check fails.  Outputs are the suite manifests (sha256 of every
    artifact) or the digest of the forward values, kept as fingerprints.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    op = {"wall_s": 0.0, "codes": {}, "errors": {}, "outputs": {},
          "metrics": {}, "bytes_written": 0}
    for step in steps:
        try:
            if isinstance(step, Forward):
                op["codes"][step.suite] = _forward_step(step, spec, seed, workers, op)
            else:
                op["codes"][step.suite] = _suite_step(step, spec, lq_params, seed, workers,
                                                      work_dir, op)
        except Exception as exc:  # an op that raises is counted, not fatal
            op["codes"][step.suite] = None
            op["errors"][step.suite] = {"error": type(exc).__name__, "message": str(exc)}
    op["failed"] = any(code != 0 for code in op["codes"].values())
    return op


def quality(workload: str, op: dict) -> dict:
    """Solution-quality values of one op, with their suite tolerances."""
    found = {}
    for suite_metrics in op["metrics"].values():
        for name in QUALITY[workload]:
            if name in suite_metrics:
                found[name] = suite_metrics[name]
    return found
