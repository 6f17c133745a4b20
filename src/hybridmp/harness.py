"""Experiment harness: named verification suites over a JSON-configured run.

Each suite computes a small set of scalar metrics, compares every metric
against its tolerance, and writes diff-able artifacts: ``results.json``
with per-metric pass/fail records, CSV series, and ``manifest.json``
with a content hash per file.  Runs are deterministic functions of
(config, seed); worker count only changes wall time.
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
    CompactCoeffs,
    gateaux_derivative,
    hamiltonian_direction_value,
    solve_adjoint_bsde,
)
from .errors import ConfigError, HybridMPError, NonConvergence
from .lq import LQSolution, PiecewisePolyPolicy, solve_lq
from .model import LQSpec, ProblemSpec, validate_spec, zero_policy
from .pathsim import TimeGrid, chain_marginal, estimate_cost
from .parallel import RunningMoments, run_blocks
from .wonham import (
    coupled_forward,
    discrete_bayes_oracle,
    innovation_forward,
    run_normalized_filter,
    run_zakai_filter,
    transformed_cost_paths,
)

SWEEP_STEPS = (250, 500, 1000, 2000)

ENV_PREFIX = "HYBRIDMP_"

# The top-level ``properties`` of docs/experiment_config.schema.json.
CONFIG_KEYS = frozenset({
    "suite", "spec", "n_steps", "n_paths", "seed", "workers", "out",
    "tolerances", "write_paths", "lq_max_iter", "lq_damping", "lq_tol",
})


def _cast(name: str, value, cast):
    """``cast(value)`` for config field ``name``, or ``ConfigError``."""
    if cast is bool and not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
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
        if self.n_paths < 100:
            raise ConfigError(f"n_paths must be >= 100, got {self.n_paths}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.lq_max_iter < 1:
            raise ConfigError(f"lq_max_iter must be >= 1, got {self.lq_max_iter}")
        if not self.lq_tol > 0.0:
            raise ConfigError(f"lq_tol must be positive, got {self.lq_tol}")
        if not 0.0 < self.lq_damping <= 1.0:
            raise ConfigError(f"lq_damping must be in (0, 1], got {self.lq_damping}")
        if self.workers <= 0:
            self.workers = os.cpu_count() or 1

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
        try:
            doc = json.loads(cfg_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        unknown = sorted(doc.keys() - CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"config {path} has unknown keys {unknown}; "
                              f"allowed: {sorted(CONFIG_KEYS)}")

        spec_entry = doc.get("spec")
        if isinstance(spec_entry, str):
            spec_path = Path(spec_entry)
            if not spec_path.is_absolute():
                spec_path = cfg_path.parent / spec_path
            try:
                spec_doc = json.loads(spec_path.read_text(encoding="utf-8"))
            except OSError as exc:
                raise ConfigError(f"cannot read spec {spec_path}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"spec {spec_path} is not valid JSON: {exc}") from exc
        elif isinstance(spec_entry, dict):
            spec_doc = spec_entry
        else:
            raise ConfigError("config needs 'spec': a path or an inline object")
        if not isinstance(spec_doc, dict):
            raise ConfigError("spec document must be a JSON object")

        def resolve(key, default, cast, cli_value=None, env_name=None):
            if cli_value is not None:
                return _cast(key, cli_value, cast)
            env = os.environ.get(ENV_PREFIX + env_name) if env_name else None
            if env is not None:
                return _cast(ENV_PREFIX + env_name, env, cast)
            if key in doc:
                return _cast(key, doc[key], cast)
            return default

        return cls(
            suite=doc.get("suite", ""),
            spec=LQSpec.from_json(spec_doc),
            n_steps=resolve("n_steps", 1000, int),
            n_paths=resolve("n_paths", 1000, int),
            seed=resolve("seed", 42, int, seed, "SEED"),
            workers=resolve("workers", 0, int, workers, "WORKERS"),
            out_dir=resolve("out", "results", str, out, "OUT"),
            tolerances={name: _cast(f"tolerances.{name}", value, float)
                        for name, value in resolve("tolerances", {}, dict).items()},
            write_paths=resolve("write_paths", False, bool),
            lq_max_iter=resolve("lq_max_iter", 50, int),
            lq_damping=resolve("lq_damping", 0.5, float),
            lq_tol=resolve("lq_tol", 1e-3, float),
        )


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


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def _tail_r2_min(adjoint) -> float:
    """Minimum fit R^2 away from the first few backward steps.

    Near t=0 a deterministic start leaves nothing to condition on, so
    the value-target variance and the R^2 are structurally ~0 there
    regardless of fit quality; the informative diagnostic is the
    minimum over the rest of the horizon.
    """
    skip = max(2, len(adjoint.r_squared) // 20)
    return float(adjoint.r_squared[skip:].min())


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
    cp_f = coupled_forward(spec, fine, n_check, cfg.seed + 1)
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

    files: list[Path] = []
    if cfg.write_paths:
        paths_csv = out / "paths.csv"
        cp.bundle.to_csv(str(paths_csv))
        filter_csv = out / "filter.csv"
        cp.filter_path.to_csv(str(filter_csv))
        files += [paths_csv, filter_csv]
    return metrics, files


# L2(dt) norm of every mp-check direction.  It is kept small on purpose:
# the acceptance comparison uses a one-sided difference quotient, whose
# truncation term eps/2 * <v, J'' v> must stay inside the 0.1*eps
# allowance; for quadratic costs that bounds the direction size, not the
# step eps.
DIRECTION_NORM = 0.15


def _direction_set(grid: TimeGrid, base) -> np.ndarray:
    """Perturbation directions scaled to ``DIRECTION_NORM``, stacked as
    (5, n_paths, n_steps)."""
    times = grid.times[:-1]
    shapes = [
        np.ones_like(times),
        np.sin(2.0 * np.pi * times / grid.horizon),
        np.exp(-times),
        np.cos(np.pi * times / grid.horizon),
    ]
    n = base.n_paths
    directions = [np.tile(s, (n, 1)) for s in shapes]
    directions.append(base.probs[:, :-1, 0])
    scaled = []
    for w in directions:
        rms = math.sqrt(float(np.mean(np.sum(w * w, axis=1) * grid.dt)))
        scaled.append(w * (DIRECTION_NORM / max(rms, 1e-300)))
    return np.stack(scaled)


def _mp_check(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[Path]]:
    spec = cfg.problem
    grid = cfg.grid
    tol = cfg.tolerances
    coeffs = CompactCoeffs(spec)
    eps = 1e-2

    base = innovation_forward(spec, grid, cfg.n_paths, cfg.seed,
                              policy=zero_policy(spec.control_domain))
    adjoint = solve_adjoint_bsde(spec, base, coeffs=coeffs)
    base_cost = transformed_cost_paths(spec, grid, base.states, base.probs,
                                       base.controls)

    directions = _direction_set(grid, base)
    lins = gateaux_derivative(spec, base, directions, coeffs)
    duals = hamiltonian_direction_value(spec, base, adjoint, directions, coeffs)

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
            _tail_r2_min(adjoint), tol.get("bsde_min_r2", 0.5), ">="
        ),
    }
    return metrics, []


def _write_trace_csv(path: Path, solution: LQSolution) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "cost", "SE", "residual", "sup_control_change"])
        for row in solution.trace:
            writer.writerow([
                row["iteration"], f"{row['cost']:.10g}", f"{row['cost_se']:.10g}",
                f"{row['residual']:.10g}", f"{row['sup_change']:.10g}",
            ])


def _write_control_surface(path: Path, policy: PiecewisePolyPolicy,
                           grid: TimeGrid, x_lo: float, x_hi: float) -> None:
    times = [0.0, 0.5 * grid.horizon, grid.times[-2]]
    xs = np.linspace(x_lo, x_hi, 21)
    ps = np.linspace(0.0, 1.0, 11)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "pi", "u"])
        for t in times:
            for x in xs:
                u_row = policy(t, np.full_like(ps, x), ps)
                for p, u in zip(ps, u_row):
                    writer.writerow([f"{t:.10g}", f"{x:.10g}", f"{p:.10g}",
                                     f"{u:.10g}"])


def _lq_solve(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[Path]]:
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

    residual0 = solution.trace[0]["residual"]
    final_res = solution.residual["residual"]
    ratio = final_res / residual0 if residual0 > 0 else 0.0

    metrics = {
        "converged": _metric(converged, 1.0, "=="),
        "cost_mean": _metric(
            solution.cost.mean, tol.get("cost_mean", float("inf")), "<="
        ),
        "stationarity_ratio": _metric(
            ratio, tol.get("stationarity_ratio", 1e-2), "<="
        ),
        "bsde_tail_r2_min": _metric(
            _tail_r2_min(solution.adjoint), tol.get("bsde_tail_r2_min", 0.5), ">=",
        ),
    }

    trace_csv = out / "trace.csv"
    _write_trace_csv(trace_csv, solution)
    surface_csv = out / "control_surface.csv"
    x_lo = float(np.quantile(solution.path.states, 0.01))
    x_hi = float(np.quantile(solution.path.states, 0.99))
    _write_control_surface(surface_csv, solution.policy, grid, x_lo, x_hi)
    return metrics, [trace_csv, surface_csv]


def _convergence_sweep(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[Path]]:
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

    sweep_csv = out / "sweep.csv"
    with open(sweep_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_steps", "oracle_rmse", "cost_mean", "cost_se"])
        for n_steps, rmse, mean, se in rows:
            writer.writerow([n_steps, f"{rmse:.10g}", f"{mean:.10g}", f"{se:.10g}"])

    metrics = {
        "oracle_rmse_monotone": _metric(
            monotone, tol.get("oracle_rmse_monotone", 1.0), "=="
        ),
    }
    return metrics, [sweep_csv]


# Each suite's runner, and the metrics whose tolerance a config may
# override (lq-solve's ``converged`` has none).
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


def write_error(out_dir: str, exc: Exception) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {"error": type(exc).__name__, "message": str(exc)}
    (out / "error.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def run_suite(cfg: ExperimentConfig) -> int:
    """Execute the configured suite; 0 all metrics pass, 1 any fail,
    2 on configuration or spec errors (error.json written)."""
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
        metrics, files = runner(cfg, out)
    except HybridMPError as exc:
        write_error(cfg.out_dir, exc)
        return 2

    all_pass = all(m["pass"] for m in metrics.values())
    results = {
        "suite": cfg.suite,
        "seed": cfg.seed,
        "spec": cfg.spec.to_json(),
        "grid": {"n_steps": cfg.n_steps, "n_paths": cfg.n_paths},
        "metrics": metrics,
        "pass": all_pass,
    }
    results_path = out / "results.json"
    results_path.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    manifest = {p.name: _sha256(p) for p in [results_path, *files]}
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0 if all_pass else 1


def validate_spec_file(path: str) -> tuple[int, list[str]]:
    """Load an LQ spec document and run the standing-assumption checks.
    Returns (exit code, messages): 0 clean, 1 violations, 2 unreadable."""
    from .model import load_spec

    try:
        spec = load_spec(path)
    except HybridMPError as exc:
        return 2, [f"{type(exc).__name__}: {exc}"]
    problems = validate_spec(spec)
    if problems:
        return 1, problems
    return 0, ["spec OK"]
