"""Linear-quadratic specialization: stationary control and iterative solver.

For linear dynamics and quadratic costs the Hamiltonian is quadratic in
the control, so one Newton step on the sweep's dH/dv gives the
stationary control, and the coupled forward-backward system can be
attacked by damped Picard iteration: simulate forward under the current
feedback, solve the backward equation by regression, read off the
implied feedback, damp, refit, repeat.

A classical verification route is also provided: when the regime is
observable the problem reduces to coupled scalar Riccati equations,
giving an analytic optimal cost that lower-bounds the partially
observed one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .adjoint import (
    AdjointPath,
    PolyBasis,
    StepProjector,
    backward_sweep,
    solve_adjoint_bsde,
    stationarity_report,
)
from .errors import ConfigError, NonConvergence, NumericalError
from .model import LQSpec, ProblemSpec, zero_policy
from .pathsim import (CostEstimate, TimeGrid, blocked_cost, cost_from_paths, simulate_chain,
                      simulate_state)
from .wonham import InnovationPath, innovation_forward, transformed_cost

Array = NDArray[np.float64]

logger = logging.getLogger(__name__)

# x bins per step and pi quantiles per bin of ``_quantile_lattice``.
LATTICE_X_BINS = 9
LATTICE_P_QUANTILES = 5


def stationary_control(lq: LQSpec, p, u, dH_dv):
    """The control minimizing H given its gradient dH/dv at ``u``: H is
    quadratic in v with curvature Rbar = R1 p + R2 (1 - p), so one Newton
    step lands on the minimizer, clipped to the control domain."""
    return np.clip(u - dH_dv / (lq.R[0] * p + lq.R[1] * (1.0 - p)), *lq.control_domain)


@dataclass
class PiecewisePolyPolicy:
    """Feedback stored as one polynomial in (x, pi) per time step.

    Evaluation at time t uses the step containing t; x is standardized
    with the per-step location/scale captured at fit time.  A fitted
    polynomial is only trusted on its training envelope: inputs are
    clipped to the per-step training ranges and outputs to the observed
    control range (widened 10%), because cubic extrapolation beyond the
    ensemble support can be arbitrarily wild and would destabilize the
    next forward pass.
    """

    grid: TimeGrid
    degree: int
    coeffs: Array
    locs: Array
    scales: Array
    x_range: Array
    p_range: Array
    u_range: Array
    control_domain: tuple[float, float] = (-np.inf, np.inf)
    fit_max_residual: float = 0.0
    name: str = "piecewise-poly"

    def __call__(self, t, x, pi):
        return self.on_lattice([t], np.asarray(x)[None], np.asarray(pi)[None])[0]

    def on_lattice(self, times, X, P) -> Array:
        """Feedback at row r of (X, P) at time ``times[r]``: each row is
        clipped to the envelope of the step containing its time, and one
        stacked ``matmul`` applies every row's coefficients."""
        k = np.floor(np.asarray(times, dtype=np.float64) / self.grid.dt + 1e-9).astype(np.intp)
        k = np.clip(k, 0, self.grid.n_steps - 1)
        X = np.clip(np.asarray(X, dtype=np.float64), self.x_range[k, :1], self.x_range[k, 1:])
        P = np.clip(np.asarray(P, dtype=np.float64), self.p_range[k, :1], self.p_range[k, 1:])
        A = PolyBasis(self.degree).design(X, P, self.locs[k, None], self.scales[k, None])
        u = (A @ self.coeffs[k, :, None])[..., 0]
        u = np.clip(u, self.u_range[k, :1], self.u_range[k, 1:])
        return np.clip(u, *self.control_domain)

    @classmethod
    def fit(
        cls,
        grid: TimeGrid,
        states: Array,
        probs: Array,
        controls: Array,
        degree: int = 3,
        control_domain: tuple[float, float] = (-np.inf, np.inf),
    ) -> "PiecewisePolyPolicy":
        """Least squares per step of the control values on the basis.

        ``states`` and ``probs`` are read at the left node of each step,
        matching where the forward loop evaluates feedback.  Each step is
        fitted by ``_fit_step`` on the backward sweep's projector, so the
        standardization and rank rule (``adjoint.RCOND``) are the sweep's
        and near-collinear early steps give bounded coefficients rather
        than huge cancelling ones.
        """
        basis = PolyBasis(degree)
        policy = cls._blank(grid, degree, control_domain)
        for k in range(grid.n_steps):
            x = states[:, k]
            p = probs[:, k, 0] if probs.ndim == 3 else probs[:, k]
            policy._fit_step(k, StepProjector.on_basis(basis, x, p), x, p,
                             controls[:, k])
        return policy

    @classmethod
    def _blank(cls, grid: TimeGrid, degree: int, control_domain) -> "PiecewisePolyPolicy":
        n, m = grid.n_steps, PolyBasis(degree).n_terms
        return cls(grid=grid, degree=degree, coeffs=np.zeros((n, m)),
                   locs=np.zeros(n), scales=np.ones(n),
                   x_range=np.zeros((n, 2)), p_range=np.zeros((n, 2)),
                   u_range=np.zeros((n, 2)), control_domain=control_domain)

    def _fit_step(self, k: int, proj: StepProjector, x: Array, p: Array, u: Array) -> Array:
        """Row k: the coefficients of ``u`` on ``proj``'s design, its
        standardization and training envelope, and the fit residual.

        Returns the row's feedback on the training paths, which equals
        ``on_lattice`` at (t_k, x, p): the x and pi clips are no-ops
        there, so only the output clips apply to the fitted values."""
        beta = proj.coef(u)
        self.coeffs[k] = beta
        self.locs[k] = proj.loc
        self.scales[k] = proj.scale
        self.x_range[k] = (x.min(), x.max())
        self.p_range[k] = (p.min(), p.max())
        span = float(u.max() - u.min())
        self.u_range[k] = (u.min() - 0.05 * span, u.max() + 0.05 * span)
        fit = proj.A @ beta
        self.fit_max_residual = max(self.fit_max_residual, float(np.max(np.abs(fit - u))))
        return np.clip(np.clip(fit, *self.u_range[k]), *self.control_domain)


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------


@dataclass
class LQSolution:
    """Converged (or best-effort) output of the iterative solver.

    ``path`` and ``adjoint`` are the certificate pass under ``policy``.
    ``final_sup_change`` is the last iteration's lattice sup-change
    (``_policy_sup_change``): its ``value``, the step ``k`` whose lattice
    row attains it, and that step's time ``t``.
    """

    policy: PiecewisePolyPolicy
    cost: CostEstimate
    residual: dict
    iterations: int
    converged: bool
    path: InnovationPath
    adjoint: AdjointPath
    trace: list[dict]
    final_sup_change: dict


def _forward(spec, grid, n_paths, seed, policy, dnu) -> InnovationPath:
    return innovation_forward(spec, grid, n_paths, seed, policy=policy, dnu=dnu)


def _quantile_lattice(states: Array, probs: Array, n_steps: int) -> tuple[Array, Array]:
    """Conditional (x, pi) probe points of every step, one row per step.

    At each step the paths are sorted by x and split as ``np.array_split``
    splits them into ``LATTICE_X_BINS`` bins; a bin contributes its x
    median, repeated ``LATTICE_P_QUANTILES`` times, and as many pi
    quantiles.  One sort serves every step, and each bin's medians and
    quantiles are taken for all steps at once.
    """
    order = np.argsort(states[:, :n_steps], axis=0)
    n_x, n_p = LATTICE_X_BINS, LATTICE_P_QUANTILES
    x_bins = np.array_split(np.take_along_axis(states[:, :n_steps], order, axis=0), n_x)
    p_bins = np.array_split(np.take_along_axis(probs[:, :n_steps, 0], order, axis=0), n_x)
    qp = np.linspace(0.05, 0.95, n_p)
    X = [np.repeat(np.median(b, axis=0)[:, None], n_p, axis=1) for b in x_bins if len(b)]
    P = [np.quantile(b, qp, axis=0).T for b in p_bins if len(b)]
    return np.hstack(X), np.hstack(P)


def _policy_sup_change(
    grid: TimeGrid,
    old_policy,
    new_policy,
    states: Array,
    probs: Array,
) -> tuple[float, int]:
    """Sup difference of two feedback maps over a (t, x, pi) lattice.

    The lattice is conditional (``_quantile_lattice``): x points are
    per-step quantile bins and pi points are quantiles within each bin.
    Early in the horizon x and pi are nearly collinear across paths, so
    an independent product grid would probe corners far from the data
    manifold where neither fit is constrained; the conditional lattice
    keeps every probe where paths actually live.  Both policies are
    evaluated on the whole lattice through ``on_lattice``.  Returns
    (sup |new - old|, the step whose lattice row attains it).
    """
    X, P = _quantile_lattice(states, probs, grid.n_steps)
    times = grid.times[:grid.n_steps]
    diff = np.abs(new_policy.on_lattice(times, X, P) - old_policy.on_lattice(times, X, P))
    return float(np.max(diff)), int(np.argmax(diff)) // diff.shape[1]


def solve_lq(
    problem: ProblemSpec | LQSpec,
    grid: TimeGrid,
    n_paths: int = 4096,
    seed: int = 0,
    damping: float = 0.5,
    tol: float = 1e-3,
    max_iter: int = 50,
    basis: PolyBasis | None = None,
) -> LQSolution:
    """Damped Picard iteration on the forward-backward system.

    Starting from the zero control: simulate the observable system
    forward (same noise every iteration, so successive policies are
    compared on common randomness), solve the adjoint equation backward,
    take the stationary control from the sweep's dH/dv, move the
    previous controls a fraction ``step`` of the way toward it, refit
    the per-step polynomial feedback, and stop once the feedback's RMS
    change on this iteration's own paths,

        d = sqrt(E sum_k |u~_k - u_k|^2 dt)  <=  tol * max(1, |u~|),

    where u_k is what the old policy did on the paths, u~_k is the
    candidate's value on the same paths and |u~| = sqrt(E sum_k u~_k^2 dt)
    is the candidate's size in the same norm.  Regression error sets
    the useful tolerance, and it is measured where the paths live;
    a sup over the horizon instead peaks at the earliest steps, where
    the ensemble has barely spread and the fits are least constrained.
    Each trace row records d (``ensemble_change``) and |u~|
    (``ensemble_norm``).

    The step is safeguarded, and its input is d too.  The first
    iteration takes ``damping``.  Since the policy moves ``step`` times
    its undamped change, ``d / step`` estimates that undamped change;
    the next step is 1.0 if this estimate fell below the previous
    iteration's (the first one always does) and ``damping`` otherwise.
    The step never goes below ``damping``, so the stopping test is never
    looser than with a fixed ``damping``, and the fixed point is the
    same.  ``damping=1.0`` is plain Picard.  Each trace row records its
    step.

    The sup-change of the feedback over a (t, x, pi) quantile lattice
    (``_policy_sup_change``) is a diagnostic only, and it is taken once
    per solve: on the last iteration's paths, between the final policy
    and the one before it (``LQSolution.final_sup_change``).

    Raises ``NonConvergence`` (carrying the best iterate in
    ``exc.solution``) if ``max_iter`` passes without meeting the
    tolerance.  ``tol=0`` never meets it: the solve runs exactly
    ``max_iter`` iterations and raises.  The returned certificate
    re-simulates under the final policy and reports cost and the
    Hamiltonian stationarity residual.
    """
    spec = problem.to_problem_spec() if isinstance(problem, LQSpec) else problem
    if not 0.0 < damping <= 1.0:
        raise ConfigError(f"damping must be in (0, 1], got {damping}")
    if not tol >= 0.0:
        raise ConfigError(f"tol must be >= 0, got {tol}")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    lq = spec.lq
    if basis is None:
        basis = PolyBasis()

    dnu = None  # drawn by the first forward pass, then common to every pass
    policy = zero_policy(spec.control_domain)
    trace: list[dict] = []
    step, last_rate = damping, np.inf

    for it in range(1, max_iter + 1):
        path = _forward(spec, grid, n_paths, seed, policy, dnu)
        dnu = path.dnu
        u_prev = path.controls
        candidate = PiecewisePolyPolicy._blank(grid, basis.degree, spec.control_domain)
        # The stationary control, the damped update and the policy row of
        # step k all regress on node-k information, so they run inside
        # the backward sweep on that step's projector.  The candidate row's
        # values on the paths, which ``_fit_step`` returns, feed the sums
        # of squares behind the stopping test.
        moved = size = 0.0
        for k, proj, adj in backward_sweep(spec, path, basis):
            x = path.states[:, k]
            p = path.probs[:, k, 0]
            u_star = stationary_control(lq, p, u_prev[:, k], adj.dH_dv[k])
            u_new = (1.0 - step) * u_prev[:, k] + step * u_star
            u_fit = candidate._fit_step(k, proj, x, p, u_new)
            delta = u_fit - u_prev[:, k]
            moved += float(delta @ delta)
            size += float(u_fit @ u_fit)
        residual = stationarity_report(spec, path, adj)["residual"]
        ensemble_change = math.sqrt(moved * grid.dt / n_paths)
        ensemble_norm = math.sqrt(size * grid.dt / n_paths)

        cost = transformed_cost(spec, grid, path.states, path.probs, u_prev)
        trace.append({
            "iteration": it,
            "step": step,
            "cost": cost.mean,
            "cost_se": cost.std_error,
            "residual": residual,
            "fit_residual": candidate.fit_max_residual,
            "r2_min": float(adj.r_squared.min()),
            "ensemble_change": ensemble_change,
            "ensemble_norm": ensemble_norm,
        })
        logger.info("iteration %d: step %.3g, cost %.6f, ensemble-change %.3g",
                    it, step, trace[-1]["cost"], ensemble_change)

        previous, policy = policy, candidate
        converged = tol > 0.0 and ensemble_change <= tol * max(1.0, ensemble_norm)
        if converged or it == max_iter:
            break
        # Free this iteration's ensemble and adjoint before the next
        # forward pass and sweep allocate theirs.
        del path, adj
        # The safeguarded step of the docstring: d / step is the
        # undamped change, and a full step follows one that fell.
        rate = ensemble_change / step
        step, last_rate = (1.0 if rate < last_rate else damping), rate

    change, at = _policy_sup_change(grid, previous, policy, path.states, path.probs)
    final_sup_change = {"value": change, "k": at, "t": float(grid.times[at])}
    logger.info("final sup-change %.3g at k=%d (t=%.4g)", change, at, grid.times[at])
    del path, adj

    path = _forward(spec, grid, n_paths, seed, policy, dnu)
    adj = solve_adjoint_bsde(spec, path, basis=basis)
    report = stationarity_report(spec, path, adj)
    cost = transformed_cost(spec, grid, path.states, path.probs, path.controls)
    solution = LQSolution(
        policy=policy, cost=cost, residual=report, iterations=len(trace),
        converged=converged, path=path, adjoint=adj, trace=trace,
        final_sup_change=final_sup_change,
    )
    if not converged:
        last = trace[-1]
        raise NonConvergence(
            f"no fixed point after {max_iter} iterations (last ensemble change "
            f"{last['ensemble_change']:.3g}, threshold "
            f"{tol * max(1.0, last['ensemble_norm']):.3g})",
            solution=solution,
        )
    return solution


# ---------------------------------------------------------------------------
# Full-observation Riccati baseline
# ---------------------------------------------------------------------------


def riccati_backward(lq: LQSpec, grid: TimeGrid) -> tuple[Array, Array]:
    """Coupled per-regime Riccati pair on the grid, integrated backward
    with classical RK4.

    dK_i/dt = -[2 a_i K_i + Q_i - K_i^2 b_i^2 / R_i + (Q_rate K)_i]
    dc_i/dt = -[sigma^2 K_i / 2 + (Q_rate c)_i]

    with K_i(T) = G_i, c_i(T) = 0.  Returns (K, c) with shape
    (n_steps + 1, 2), row k holding the value at t_k.
    """
    Qr = lq.generator().matrix
    a = np.asarray(lq.a)
    b = np.asarray(lq.b)
    Qc = np.asarray(lq.Q)
    R = np.asarray(lq.R)

    def rhs(y: Array) -> Array:
        K, c = y[:2], y[2:]
        dK = -(2.0 * a * K + Qc - K**2 * b**2 / R + Qr @ K)
        dc = -(0.5 * lq.sigma**2 * K + Qr @ c)
        return np.concatenate([dK, dc])

    n = grid.n_steps
    out = np.empty((n + 1, 4))
    out[n] = np.concatenate([np.asarray(lq.G, dtype=np.float64), np.zeros(2)])
    hstep = -grid.dt
    for k in range(n - 1, -1, -1):
        y = out[k + 1]
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * hstep * k1)
        k3 = rhs(y + 0.5 * hstep * k2)
        k4 = rhs(y + hstep * k3)
        out[k] = y + (hstep / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(out[k])) or np.any(np.abs(out[k]) > 1e8):
            raise NumericalError(
                f"Riccati blow-up integrating through t={grid.times[k]:.4g}"
            )
    return out[:, :2], out[:, 2:]


def riccati_cost(lq: LQSpec, K: Array, c: Array) -> float:
    """Optimal full-observation cost: E[ K_{alpha_0}(0) x0^2 / 2 + c_{alpha_0}(0) ]."""
    pi0 = np.array([lq.pi0, 1.0 - lq.pi0])
    return float(np.sum(pi0 * (0.5 * K[0] * lq.x0**2 + c[0])))


def full_observation_baseline(
    lq: LQSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
) -> tuple[CostEstimate, float]:
    """Monte Carlo cost of the regime-aware optimal feedback, plus the
    analytic value it should match.

    The policy u = -b_i K_i(t) X / R_i needs the realized regime, so each
    block draws the chain first and steps the paths through
    ``simulate_state`` with the feedback reading that chain; no filter
    runs.  Agreement of the two returned numbers validates simulation,
    cost quadrature and the Riccati integration against each other; the
    analytic value is also the natural lower bound for any
    observation-feedback cost.
    """
    spec = lq.to_problem_spec()
    K, c = riccati_backward(lq, grid)
    analytic = riccati_cost(lq, K, c)
    gain = K * np.asarray(lq.b)[None, :] / np.asarray(lq.R)[None, :]

    def path_costs(offset: int, count: int) -> Array:
        alpha = simulate_chain(spec.generator, grid, count, seed, spec.pi0, offset)

        def feedback(t, x, pi):
            k = round(t / grid.dt)
            return -gain[k, alpha[:, k] - 1] * x

        bundle = simulate_state(spec, grid, count, seed, feedback, offset, alpha=alpha)
        return cost_from_paths(spec, bundle)

    return blocked_cost(path_costs, n_paths), analytic
