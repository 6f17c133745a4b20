"""Experiment harness: named verification suites over a JSON-configured run.

Each suite computes a small set of scalar metrics, compares every metric
against its tolerance, and writes diff-able artifacts: ``results.json``
with per-metric pass/fail records, CSV series, and ``manifest.json``
with a content hash per file.  Runs are deterministic functions of
(config, seed), whatever ``workers`` says: at 2 or more, large blocks of
paths run on forked worker processes (see ``parallel.run_blocks``), and
0 and 1 both run them one after the other.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adjoint import (
    gateaux_derivative,
    hamiltonian_direction_value,
    solve_adjoint_bsde,
)
from .errors import ConfigError, HybridMPError, NonConvergence
from .lq import PiecewisePolyPolicy, solve_lq
from .model import (LQSpec, ProblemSpec, json_value, load_spec, read_json_object, validate_spec,
                    zero_policy)
from .pathsim import TimeGrid, chain_marginal, estimate_cost
from .parallel import DEFAULT_BLOCK_SIZE, RunningMoments, run_blocks
from .wonham import (
    coupled_forward,
    discrete_bayes_oracle,
    innovation_forward,
    run_normalized_filter,
    run_zakai_filter,
    transformed_cost_paths,
)

SWEEP_STEPS = (250, 500, 1000, 2000)

# With ``write_paths``, paths.csv and filter.csv hold this many paths.
CSV_PATHS = 32

ENV_PREFIX = "HYBRIDMP_"

# lq-solve's default tolerances on stationarity_ratio and bsde_tail_r2_min
LQ_MAX_RATIO = 1e-2
LQ_MIN_TAIL_R2 = 0.5

# The top-level ``properties`` of docs/experiment_config.schema.json.
CONFIG_KEYS = frozenset({
    "suite", "spec", "n_steps", "n_paths", "seed", "workers", "out",
    "tolerances", "write_paths", "lq_max_iter", "lq_damping", "lq_tol",
})


def _cast(name: str, value, cast):
    """``cast(value)`` for a flag or environment value ``name``, or ``ConfigError``."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be {cast.__name__}, got {value!r}") from exc


@dataclass
class ExperimentConfig:
    """One harness run: which suite, on which problem, at what scale.

    Resolution order for seed/workers/out: explicit CLI argument, then
    HYBRIDMP_SEED / HYBRIDMP_WORKERS / HYBRIDMP_OUT environment
    variables, then the config file, then defaults.
    """

    suite: str
    spec: LQSpec
    n_steps: int = 1000
    n_paths: int = 1000
    seed: int = 42
    workers: int = 0
    out_dir: str = "results"
    tolerances: dict = field(default_factory=dict)
    write_paths: bool = False
    lq_max_iter: int = 50
    lq_damping: float = 0.5
    lq_tol: float = 1e-3

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; expected one of {tuple(SUITES)}")
        if self.n_steps < 10:
            raise ConfigError(f"n_steps must be >= 10, got {self.n_steps}")
        if not 100 <= self.n_paths < 2**62:  # pathsim.path_rng's path index bound
            raise ConfigError(f"n_paths must be in [100, 2**62), got {self.n_paths}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.lq_max_iter < 1:
            raise ConfigError(f"lq_max_iter must be >= 1, got {self.lq_max_iter}")
        if not self.lq_tol > 0.0:
            raise ConfigError(f"lq_tol must be positive, got {self.lq_tol}")
        if not 0.0 < self.lq_damping <= 1.0:
            raise ConfigError(f"lq_damping must be in (0, 1], got {self.lq_damping}")
        if self.workers < 0:
            raise ConfigError(f"workers must be >= 0, got {self.workers}")
        # Each suite's largest filter history, (paths, steps + 1, 2) float64:
        # mp-check and lq-solve filter the whole ensemble, filter-check a block,
        # then 100 paths on twice the steps; convergence-sweep's grids are fixed.
        block, check = min(self.n_paths, DEFAULT_BLOCK_SIZE), min(self.n_paths, 100)
        nodes = {"filter-check": max(block * (self.n_steps + 1), check * (2 * self.n_steps + 1)),
                 "mp-check": self.n_paths * (self.n_steps + 1),
                 "lq-solve": self.n_paths * (self.n_steps + 1)}.get(self.suite, 0)
        if 16 * nodes > np.iinfo(np.intp).max:
            raise ConfigError(f"{self.suite} at n_paths={self.n_paths}, n_steps={self.n_steps} "
                              f"needs a {16 * nodes} B filter history, above the "
                              f"{np.iinfo(np.intp).max} B an array may hold")

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.spec.horizon, self.n_steps)

    @property
    def problem(self) -> ProblemSpec:
        return self.spec.to_problem_spec()

    @classmethod
    def from_file(
        cls,
        path: str,
        seed: int | None = None,
        workers: int | None = None,
        out: str | None = None,
    ) -> "ExperimentConfig":
        cfg_path = Path(path)
        doc = read_json_object(cfg_path, "config")
        unknown = sorted(doc.keys() - CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"config {path} has unknown keys {unknown}; "
                              f"allowed: {sorted(CONFIG_KEYS)}")

        spec_entry = doc.get("spec")
        if isinstance(spec_entry, str):
            # a relative path resolves against the config's directory
            spec_doc = read_json_object(cfg_path.parent / spec_entry, "spec")
        elif isinstance(spec_entry, dict):
            spec_doc = spec_entry
        else:
            raise ConfigError("config needs 'spec': a path or an inline object")
        spec = LQSpec.from_json(spec_doc)

        # Only values that are given reach the constructor, so every
        # default is the dataclass field's.  The CLI flags and the
        # HYBRIDMP_<KEY> variables override three of the file's keys.
        overrides = {"seed": seed, "workers": workers, "out": out}
        given = {}
        for key, cast in (("n_steps", int), ("n_paths", int), ("seed", int), ("workers", int),
                          ("out", str), ("tolerances", dict), ("write_paths", bool),
                          ("lq_max_iter", int), ("lq_damping", float), ("lq_tol", float)):
            env_name = ENV_PREFIX + key.upper()
            env = os.environ.get(env_name) if key in overrides else None
            if overrides.get(key) is not None:
                value = _cast(key, overrides[key], cast)
            elif env is not None:
                value = _cast(env_name, env, cast)
            elif key in doc:
                value = json_value(key, doc[key], cast)
            else:
                continue
            given["out_dir" if key == "out" else key] = value
        if "tolerances" in given:
            given["tolerances"] = {name: json_value(f"tolerances.{name}", value, float)
                                   for name, value in given["tolerances"].items()}
        return cls(suite=json_value("suite", doc.get("suite", ""), str), spec=spec, **given)


def _metric(value: float, tolerance: float, comparator: str) -> dict:
    if comparator == "<=":
        ok = value <= tolerance
    elif comparator == ">=":
        ok = value >= tolerance
    elif comparator == "==":
        ok = value == tolerance
    else:
        raise ConfigError(f"unknown comparator {comparator!r}")
    return {
        "value": float(value),
        "tolerance": float(tolerance),
        "comparator": comparator,
        "pass": bool(ok),
    }


def _write_csv(path: Path, header: list[str], rows) -> Path:
    """Write one CSV artifact: floats as ``%.10g``, ``None`` as an empty
    cell, anything else as is.  Returns ``path``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(["" if v is None else f"{v:.10g}" if isinstance(v, float) else v
                          for v in row] for row in rows)
    return path


def _write_json(path: Path, doc) -> Path:
    """Write one JSON document, keys sorted, indented by 2.  Returns ``path``."""
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def tail_r2_min(adjoint) -> float:
    """Minimum fit R^2 away from the first few backward steps.

    Near t=0 a deterministic start leaves nothing to condition on, so
    the value-target variance and the R^2 are structurally ~0 there
    regardless of fit quality; the informative diagnostic is the
    minimum over the rest of the horizon.
    """
    skip = max(2, len(adjoint.r_squared) // 20)
    return float(adjoint.r_squared[skip:].min())


def stationarity_ratio(solution) -> float:
    """Final stationarity residual over the first iteration's (the starting policy's)."""
    residual0 = solution.trace[0]["residual"]
    return solution.residual["residual"] / residual0 if residual0 > 0 else 0.0


def _terminal_rmse(spec, grid, states, controls) -> float:
    fp = run_normalized_filter(spec, grid, states, controls)
    oracle = discrete_bayes_oracle(spec, grid, states, controls)
    return float(np.sqrt(np.mean((fp.probs[:, -1, 0] - oracle[:, -1, 0]) ** 2)))


def _filter_check(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[Path]]:
    spec = cfg.problem
    grid = cfg.grid
    tol = cfg.tolerances
    T = spec.horizon
    nodes = sorted({min(int(round(f * grid.n_steps)), grid.n_steps)
                    for f in (0.25, 0.5, 1.0)})

    def block(offset, count):
        fp = coupled_forward(spec, grid, count, cfg.seed, path_offset=offset).filter_path
        return ([RunningMoments().add(fp.probs[:, node, 0]) for node in nodes],
                RunningMoments().add(np.abs(fp.innovation_qv() - T) / T))

    pi_moms = [RunningMoments() for _ in nodes]
    qv_moms = RunningMoments()
    for moms, qv in run_blocks(block, cfg.n_paths, workers=cfg.workers):
        for acc, part in zip(pi_moms, moms):
            acc.merge(part)
        qv_moms.merge(qv)

    z_max = 0.0
    for node, m in zip(nodes, pi_moms):
        t = grid.times[node]
        target = chain_marginal(spec, t)[0]
        se = max(m.std_error, 1e-300)
        z_max = max(z_max, abs(m.mean - target) / se)

    n_check = min(cfg.n_paths, 100)
    cp = coupled_forward(spec, grid, n_check, cfg.seed)
    zk = run_zakai_filter(spec, grid, cp.bundle.states, cp.bundle.controls)
    per_path_sup = np.max(np.abs(zk.probs[..., 0] - cp.filter_path.probs[..., 0]),
                          axis=1)
    ks_gap = float(np.mean(per_path_sup))

    fine = TimeGrid(T, 2 * grid.n_steps)
    cp_f = coupled_forward(spec, fine, n_check, (cfg.seed + 1) % 2**64)
    rmse_fine = _terminal_rmse(spec, fine, cp_f.bundle.states, cp_f.bundle.controls)
    rmse_coarse = _terminal_rmse(
        spec, grid, cp_f.bundle.states[:, ::2], cp_f.bundle.controls[:, ::2]
    )
    ratio = rmse_coarse / max(rmse_fine, 1e-300)

    metrics = {
        "tower_property_z": _metric(z_max, tol.get("tower_property_z", 3.0), "<="),
        "qv_error": _metric(qv_moms.mean, tol.get("qv_error", 0.05), "<="),
        "ks_zakai_sup_gap": _metric(
            ks_gap, tol.get("ks_zakai_sup_gap", 100.0 * grid.dt), "<="
        ),
        "oracle_rmse_ratio": _metric(
            ratio, tol.get("oracle_rmse_ratio", 1.2), ">="
        ),
    }

    if not cfg.write_paths:
        return metrics, []
    bundle, fpath, N, d = cp.bundle, cp.filter_path, grid.n_steps, spec.n_regimes
    times, W = grid.times, cp.bundle.brownian
    path_nodes = [(p, k) for p in range(min(n_check, CSV_PATHS)) for k in range(N + 1)]
    return metrics, [
        _write_csv(out / "paths.csv", ["path", "t", "W", "alpha", "X", "u"],
                   ([p, times[k], W[p, k], int(bundle.regimes[p, k]), bundle.states[p, k],
                     bundle.controls[p, k] if k < N else None] for p, k in path_nodes)),
        # The V columns stay empty: the coupled pass runs the normalized
        # recursion, which carries no unnormalized masses.
        _write_csv(out / "filter.csv",
                   ["path", "t", "pi", "nu_increment"] + [f"V{i}" for i in range(1, d + 1)],
                   ([p, times[k], fpath.probs[p, k, 0],
                     fpath.nu_increments[p, k] if k < N else None] + [None] * d
                    for p, k in path_nodes)),
    ]


# L2(dt) norm of every mp-check direction.  It is kept small on purpose:
# the acceptance comparison uses a one-sided difference quotient, whose
# truncation term eps/2 * <v, J'' v> must stay inside the 0.1*eps
# allowance; for quadratic costs that bounds the direction size, not the
# step eps.
DIRECTION_NORM = 0.15


def _direction_set(grid: TimeGrid, base) -> np.ndarray:
    """Perturbation directions scaled to ``DIRECTION_NORM``, stacked as
    (5, n_paths, n_steps) and stored step-major, so that each step's
    ``[..., k]`` is a contiguous (5, n_paths) row."""
    times = grid.times[:-1]
    shapes = [
        np.ones_like(times),
        np.sin(2.0 * np.pi * times / grid.horizon),
        np.exp(-times),
        np.cos(np.pi * times / grid.horizon),
    ]
    n = base.n_paths
    directions = [np.tile(s, (n, 1)) for s in shapes]
    # path-major, so the per-path sums below add in one order whatever the
    # layout of base.probs (forward passes store it step-major)
    directions.append(np.ascontiguousarray(base.probs[:, :-1, 0]))
    stack = np.empty((grid.n_steps, len(directions), n))
    for j, w in enumerate(directions):
        rms = math.sqrt(float(np.mean(np.sum(w * w, axis=1) * grid.dt)))
        stack[:, j] = (w * (DIRECTION_NORM / max(rms, 1e-300))).T
    return np.moveaxis(stack, 0, -1)


def _mp_check(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[Path], dict]:
    spec = cfg.problem
    grid = cfg.grid
    tol = cfg.tolerances
    eps = 1e-2

    base = innovation_forward(spec, grid, cfg.n_paths, cfg.seed,
                              policy=zero_policy(spec.control_domain))
    adjoint = solve_adjoint_bsde(spec, base)
    base_cost = transformed_cost_paths(spec, grid, base.states, base.probs,
                                       base.controls)

    directions = _direction_set(grid, base)
    lins = gateaux_derivative(spec, base, directions)
    duals = hamiltonian_direction_value(spec, base, adjoint, directions)

    gateaux_ratio = 0.0
    duality_ratio = 0.0
    for w, lin, dual in zip(directions, lins.tolist(), duals.tolist()):
        pert = innovation_forward(spec, grid, cfg.n_paths, cfg.seed,
                                  controls=base.controls + eps * w,
                                  dnu=base.dnu)
        pert_cost = transformed_cost_paths(spec, grid, pert.states, pert.probs,
                                           pert.controls)
        fd = RunningMoments().add((pert_cost - base_cost) / eps)
        allowance = 3.0 * fd.std_error + 0.1 * eps
        gateaux_ratio = max(gateaux_ratio, abs(fd.mean - lin) / allowance)
        scale = max(abs(lin), abs(dual), 1e-12)
        duality_ratio = max(duality_ratio, abs(lin - dual) / scale)

    metrics = {
        "gateaux_gap_ratio": _metric(
            gateaux_ratio, tol.get("gateaux_gap_ratio", 1.0), "<="
        ),
        "duality_rel_gap": _metric(
            duality_ratio, tol.get("duality_rel_gap", 0.05), "<="
        ),
        "bsde_min_r2": _metric(
            tail_r2_min(adjoint), tol.get("bsde_min_r2", 0.5), ">="
        ),
    }
    return metrics, [], {"svd_fallback_steps": int(np.count_nonzero(adjoint.svd_fallback))}


def _control_surface(policy: PiecewisePolyPolicy, grid: TimeGrid,
                     x_lo: float, x_hi: float):
    """(t, x, pi, u) rows of the policy on a 3 x 21 x 11 lattice."""
    ps = np.linspace(0.0, 1.0, 11)
    for t in (0.0, 0.5 * grid.horizon, grid.times[-2]):
        for x in np.linspace(x_lo, x_hi, 21):
            u_row = policy(t, np.full_like(ps, x), ps)
            yield from ([t, x, p, u] for p, u in zip(ps, u_row))


def _lq_solve(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[Path], dict]:
    spec = cfg.problem
    grid = cfg.grid
    tol = cfg.tolerances
    try:
        solution = solve_lq(
            spec, grid, n_paths=cfg.n_paths, seed=cfg.seed,
            damping=cfg.lq_damping, tol=cfg.lq_tol, max_iter=cfg.lq_max_iter,
        )
        converged = 1.0
    except NonConvergence as exc:
        solution = exc.solution
        converged = 0.0

    metrics = {
        "converged": _metric(converged, 1.0, "=="),
        "cost_mean": _metric(
            solution.cost.mean, tol.get("cost_mean", float("inf")), "<="
        ),
        "stationarity_ratio": _metric(
            stationarity_ratio(solution), tol.get("stationarity_ratio", LQ_MAX_RATIO), "<="
        ),
        "bsde_tail_r2_min": _metric(
            tail_r2_min(solution.adjoint), tol.get("bsde_tail_r2_min", LQ_MIN_TAIL_R2), ">=",
        ),
    }

    x_lo = float(np.quantile(solution.path.states, 0.01))
    x_hi = float(np.quantile(solution.path.states, 0.99))
    return metrics, [
        _write_csv(out / "trace.csv",
                   ["iter", "step", "cost", "SE", "residual", "ensemble_change"],
                   ([row["iteration"], row["step"], row["cost"], row["cost_se"],
                     row["residual"], row["ensemble_change"]]
                    for row in solution.trace)),
        _write_csv(out / "control_surface.csv", ["t", "x", "pi", "u"],
                   _control_surface(solution.policy, grid, x_lo, x_hi)),
    ], {"final_sup_change": solution.final_sup_change,
        "svd_fallback_steps": int(np.count_nonzero(solution.adjoint.svd_fallback))}


def _convergence_sweep(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[Path], dict]:
    spec = cfg.problem
    tol = cfg.tolerances
    n_check = min(cfg.n_paths, 100)
    steps = list(SWEEP_STEPS)
    finest = max(steps)
    fine_grid = TimeGrid(spec.horizon, finest)
    cp = coupled_forward(spec, fine_grid, n_check, cfg.seed)

    rows = []
    for n_steps in steps:
        factor = finest // n_steps
        if finest % n_steps:
            raise ConfigError(f"sweep steps must divide {finest}")
        grid_k = TimeGrid(spec.horizon, n_steps)
        states = cp.bundle.states[:, ::factor]
        controls = cp.bundle.controls[:, ::factor]
        rmse = _terminal_rmse(spec, grid_k, states, controls)
        cost = estimate_cost(spec, grid_k, cfg.n_paths, cfg.seed,
                             policy=zero_policy(spec.control_domain),
                             workers=cfg.workers)
        rows.append((n_steps, rmse, cost.mean, cost.std_error))

    monotone = 1.0 if all(rows[i][1] > rows[i + 1][1] for i in range(len(rows) - 1)) else 0.0

    metrics = {
        "oracle_rmse_monotone": _metric(
            monotone, tol.get("oracle_rmse_monotone", 1.0), "=="
        ),
    }
    header = ["n_steps", "oracle_rmse", "cost_mean", "cost_se"]
    # full precision in results.json: sweep.csv's %.10g hides last digits
    return (metrics, [_write_csv(out / "sweep.csv", header, rows)],
            {"sweep": [dict(zip(header, row)) for row in rows]})


# Each suite's runner, and the metrics whose tolerance a config may
# override (lq-solve's ``converged`` has none).  A runner returns its
# metrics, its artifact files and, optionally, more results.json fields.
SUITES = {
    "filter-check": (_filter_check, ("tower_property_z", "qv_error", "ks_zakai_sup_gap",
                                     "oracle_rmse_ratio")),
    "mp-check": (_mp_check, ("gateaux_gap_ratio", "duality_rel_gap", "bsde_min_r2")),
    "lq-solve": (_lq_solve, ("cost_mean", "stationarity_ratio", "bsde_tail_r2_min")),
    "convergence-sweep": (_convergence_sweep, ("oracle_rmse_monotone",)),
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def write_error(out_dir: str, exc: Exception) -> bool:
    """Record ``exc`` in ``out_dir``/error.json; False if that cannot be written.
    numpy's allocation failure is recorded under its public name, ``MemoryError``."""
    name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        _write_json(Path(out_dir) / "error.json", {"error": name, "message": str(exc)})
    except OSError:
        return False
    return True


def run_suite(cfg: ExperimentConfig) -> int:
    """Execute the configured suite; 0 all metrics pass, 1 any fail,
    2 on configuration or spec errors, an unwritable output file or a
    failed allocation (error.json written).  If error.json cannot be
    written either, the error is raised."""
    out = Path(cfg.out_dir)
    runner, metric_names = SUITES[cfg.suite]
    try:
        unknown = sorted(cfg.tolerances.keys() - set(metric_names))
        if unknown:
            raise ConfigError(f"tolerances name no metric of {cfg.suite}: {unknown}; "
                              f"its metrics are {list(metric_names)}")
        problems = validate_spec(cfg.problem)
        if problems:
            raise ConfigError("spec violates standing assumptions: "
                              + "; ".join(problems))
        out.mkdir(parents=True, exist_ok=True)
        metrics, files, *extra = runner(cfg, out)
    except (HybridMPError, OSError, MemoryError) as exc:
        if not write_error(cfg.out_dir, exc):
            raise
        return 2

    all_pass = all(m["pass"] for m in metrics.values())
    results = {
        "suite": cfg.suite,
        "seed": cfg.seed,
        "spec": cfg.spec.to_json(),
        "grid": {"n_steps": cfg.n_steps, "n_paths": cfg.n_paths},
        "metrics": metrics,
        "pass": all_pass,
        **(extra[0] if extra else {}),
    }
    results_path = _write_json(out / "results.json", results)
    _write_json(out / "manifest.json", {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                        for p in [results_path, *files]})
    return 0 if all_pass else 1


def validate_spec_file(path: str) -> tuple[int, list[str]]:
    """Load an LQ spec document and run the standing-assumption checks.
    Returns (exit code, messages): 0 clean, 1 violations, 2 unreadable."""
    try:
        spec = load_spec(path)
    except HybridMPError as exc:
        return 2, [f"{type(exc).__name__}: {exc}"]
    problems = validate_spec(spec)
    if problems:
        return 1, problems
    return 0, ["spec OK"]
