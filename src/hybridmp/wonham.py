"""Regime filter: conditional law of the hidden chain given the state path.

Two discrete recursions for the same object, kept deliberately separate
so each can check the other:

* the normalized recursion for p_k(i) = P(alpha_k = i | X up to t_k),
  driven by the innovation increments;
* the unnormalized (linear) recursion for masses V_k(i), driven by the
  raw observation increments, with p recovered as V / V(1).

Both use left-endpoint coefficients, matching the Euler scheme of the
state.  A third, structurally different route (exact discrete Bayes
updates) serves as the convergence oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, NumericalError
from .model import ProblemSpec, drift_table
from .parallel import RunningMoments
from .pathsim import (
    TAG_INNOVATION,
    CostEstimate,
    PathBundle,
    TimeGrid,
    _cost_quadrature,
    brownian_increments,
    check_controls,
    check_override,
    control_at,
    draw_drivers,
    euler_step,
    history,
)

Array = NDArray[np.float64]

# Components may leave [0,1] by O(dt) before projection; excursions past
# this are counted, excursions past BREAKDOWN abort.
EXCURSION_TOL = 1e-6
BREAKDOWN_TOL = 0.5


@dataclass
class FilterPath:
    """Filter output along an ensemble of state paths.

    ``probs[p, k, i]`` is the conditional probability of regime i+1 at
    node k on path p.  ``nu_increments`` are the innovation increments
    (observation increments minus the filter-predicted drift).  ``V``
    holds the unnormalized indicator masses when the linear recursion
    produced the path, and is None for the normalized recursion.  The
    filters store all three step-major (see ``pathsim.history``).
    """

    grid: TimeGrid
    probs: Array
    nu_increments: Array
    V: Array | None = None
    clamp_events: int = 0
    max_excursion: float = 0.0

    @property
    def n_paths(self) -> int:
        return self.probs.shape[0]

    def innovation_qv(self) -> Array:
        """Realized quadratic variation of the innovation per path, summed
        pairwise along each path's row of a path-major copy of the squares."""
        sq = np.array(self.nu_increments, order="C")
        return np.sum(np.square(sq, out=sq), axis=1)


def _replay(spec: ProblemSpec, grid: TimeGrid, states, controls):
    """Read a given path for a filter replay: ``(n_paths, sigma, steps)``.

    ``states`` must have shape (n_paths, N+1) and ``controls`` (n_paths,
    N); anything else raises ``ConfigError`` before any work is done.
    ``steps`` yields, per step k, the left-endpoint drift table
    (d, n_paths) and Delta X_k.
    """
    states = np.asarray(states, dtype=np.float64)
    controls = np.asarray(controls, dtype=np.float64)
    N = grid.n_steps
    if states.ndim != 2 or states.shape[1] != N + 1:
        raise ConfigError(f"states must have shape (n_paths, {N + 1}), got {states.shape}")
    if controls.shape != (states.shape[0], N):
        raise ConfigError(f"controls must have shape {(states.shape[0], N)} to match "
                          f"states {states.shape}, got {controls.shape}")

    def steps():
        for k in range(N):
            x = states[:, k]
            yield drift_table(spec, x, controls[:, k]), states[:, k + 1] - x

    return states.shape[0], spec.volatility(), steps()


def _prior(spec: ProblemSpec, n_paths: int) -> Array:
    """pi0 per path, regime-major (d, n_paths) as every filter state here."""
    return np.repeat(np.asarray(spec.pi0, dtype=np.float64)[:, None], n_paths, axis=1)


def _project_simplex(p: Array, excursion_tol: float, breakdown_tol: float):
    """Clip p (d, n_paths) to the simplex in place; return the number of
    paths that left it by more than ``excursion_tol`` and the worst excursion."""
    low = float(p.min())  # a NaN propagates to both extremes
    high = float(p.max())
    excursion = max(0.0 - low if low < 0 else 0.0, high - 1.0 if high > 1.0 else 0.0)
    if not (math.isfinite(low) and math.isfinite(high)
            and -breakdown_tol <= low and high <= 1.0 + breakdown_tol):
        raise NumericalError(
            f"filter state left [{-breakdown_tol}, {1 + breakdown_tol}]: "
            f"range [{low:.4g}, {high:.4g}]"
        )
    events = 0
    if low < -excursion_tol or high > 1.0 + excursion_tol:
        events = int(np.any((p < -excursion_tol) | (p > 1.0 + excursion_tol), axis=0).sum())
    np.clip(p, 0.0, None, out=p)
    total = p.sum(axis=0)
    if not total.min() > 0:
        raise NumericalError("filter state collapsed to zero mass")
    p /= total
    return events, excursion


def _wonham_step(p: Array, h: Array, hbar: Array, dnu: Array, Q: Array, dt: float,
                 excursion_tol: float = EXCURSION_TOL,
                 breakdown_tol: float = BREAKDOWN_TOL):
    """One normalized filter update, projected back onto the simplex.

    p_{k+1,i} = p_{k,i} + (p_k Q)_i dt + p_{k,i} (h_i - hbar_k) dnu_k, with
    p and h regime-major (d, n_paths); ``Q.T @ p`` is ``p @ Q`` transposed.
    The update is accumulated in place in the order of that formula, in
    two new arrays (``Q.T @ p`` and a copy of h), so no argument is written.
    Returns (p_{k+1}, clamp events, worst excursion) of the step.
    """
    out = Q.T @ p
    out *= dt
    out += p
    gain = np.subtract(h, hbar)
    gain *= p
    gain *= dnu
    out += gain
    events, excursion = _project_simplex(out, excursion_tol, breakdown_tol)
    return out, events, excursion


def run_normalized_filter(
    spec: ProblemSpec,
    grid: TimeGrid,
    states: Array,
    controls: Array,
    dY: Array | None = None,
    excursion_tol: float = EXCURSION_TOL,
    breakdown_tol: float = BREAKDOWN_TOL,
) -> FilterPath:
    """Innovation-driven recursion for the conditional regime law.

    p_{k+1,i} = p_{k,i} + (p_k Q)_i dt + p_{k,i} (h_i - hbar_k) dnu_k,
    dnu_k = dY_k - hbar_k dt, hbar_k = sum_i p_{k,i} h_i.

    Each update is projected back onto the simplex (clip at zero and
    renormalize); the returned path records how often and how far the
    raw update left it.  An excursion beyond ``breakdown_tol`` raises
    ``NumericalError`` instead of being silently repaired.
    """
    n_paths, sig, steps = _replay(spec, grid, states, controls)
    if dY is not None:
        dY = check_override("dY", dY, (n_paths, grid.n_steps))
    dt = grid.dt
    Q = spec.generator.matrix

    p = _prior(spec, n_paths)
    probs = history(n_paths, grid.n_steps + 1, spec.n_regimes)
    probs[:, 0] = p.T
    dnu = history(n_paths, grid.n_steps)
    events = 0
    worst = 0.0

    for k, (table, dx) in enumerate(steps):
        h = table / sig
        dY_k = dx / sig if dY is None else dY[:, k]
        hbar = np.sum(p * h, axis=0)
        dnu[:, k] = dY_k - hbar * dt
        p, e, w = _wonham_step(p, h, hbar, dnu[:, k], Q, dt, excursion_tol, breakdown_tol)
        events += e
        worst = max(worst, w)
        probs[:, k + 1] = p.T

    return FilterPath(grid=grid, probs=probs, nu_increments=dnu,
                      clamp_events=events, max_excursion=worst)


def run_zakai_filter(
    spec: ProblemSpec,
    grid: TimeGrid,
    states: Array,
    controls: Array,
    dY: Array | None = None,
) -> FilterPath:
    """Linear (unnormalized) recursion, driven by raw observation increments.

    V_{k+1,i} = V_{k,i} + (V_k Q)_i dt + V_{k,i} h_i dY_k, V_0 = pi0.

    Probabilities are recovered by normalizing.  Every mass component
    must stay finite and non-negative (a component of exactly 0, as a
    frozen chain started at a vertex keeps, is legal), and the total
    strictly positive, or the recursion has broken down: a negative
    component raises ``NumericalError`` rather than being clipped away.
    Innovation increments are still reported, computed from the
    normalized probabilities, so the two filter routes expose the same
    interface.
    """
    n_paths, sig, steps = _replay(spec, grid, states, controls)
    if dY is not None:
        dY = check_override("dY", dY, (n_paths, grid.n_steps))
    dt = grid.dt
    times = grid.times
    Q = spec.generator.matrix

    V = _prior(spec, n_paths)
    probs = history(n_paths, grid.n_steps + 1, spec.n_regimes)
    masses = history(n_paths, grid.n_steps + 1, spec.n_regimes)
    dnu = history(n_paths, grid.n_steps)
    p = V / V.sum(axis=0)
    probs[:, 0] = p.T
    masses[:, 0] = V.T

    for k, (table, dx) in enumerate(steps):
        h = table / sig
        dY_k = dx / sig if dY is None else dY[:, k]
        hbar = np.sum(p * h, axis=0)
        dnu[:, k] = dY_k - hbar * dt
        V = V + (Q.T @ V) * dt + V * h * dY_k
        if not (V.min() >= 0.0 and V.max() < np.inf):  # a NaN fails both
            i, path = np.argwhere(~(np.isfinite(V) & (V >= 0.0)))[0]
            raise NumericalError(f"unnormalized filter mass of regime {i + 1} is "
                                 f"{V[i, path]:.4g} at t={times[k + 1]:.4g}; "
                                 "each must be finite and non-negative")
        total = V.sum(axis=0)
        if not np.all(np.isfinite(total)) or np.any(total <= 0.0):
            raise NumericalError(
                f"unnormalized filter mass left (0, inf) at t={times[k + 1]:.4g}"
            )
        masses[:, k + 1] = V.T
        p = V / total
        p /= p.sum(axis=0)
        probs[:, k + 1] = p.T

    return FilterPath(grid=grid, probs=probs, nu_increments=dnu, V=masses)


# ---------------------------------------------------------------------------
# Forward systems
# ---------------------------------------------------------------------------


@dataclass
class CoupledPath:
    """Physical ensemble together with its filter: the simulation ground
    truth (hidden chain included) plus what an observer of X can know."""

    bundle: PathBundle
    filter_path: FilterPath


@dataclass
class InnovationPath:
    """State and filter evolved directly against drawn innovation noise.

    No hidden chain exists here: (X, p) is closed in itself once the
    innovation is treated as an exogenous Brownian motion.  Costs of
    feedback policies agree in law with the physical system, and the
    map (dnu paths) -> (X, p) is deterministic, which is what pathwise
    derivative checks need.  Clamp diagnostics are those of FilterPath.

    ``states`` (n_paths, N+1), ``probs`` (n_paths, N+1, d), ``controls``
    and ``dnu`` (n_paths, N) are indexed path first, but the pass stores
    them step-major (see ``pathsim.history``; a given ``dnu`` is kept as
    given), so that ``[:, k]`` is a contiguous row for the per-step loops
    downstream: the backward sweep, the variational pass and the Picard
    update.
    """

    grid: TimeGrid
    states: Array
    probs: Array
    controls: Array
    dnu: Array
    seed: int
    clamp_events: int = 0
    max_excursion: float = 0.0

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]


def _observer_pass(spec: ProblemSpec, grid: TimeGrid, seed: int, policy, controls,
                   noise: Array, alpha=None) -> InnovationPath:
    """Euler and Wonham steps of (X, p) under feedback on (t, X, p_1).

    Given the hidden chain ``alpha``, X moves with the realized regime's
    drift, ``noise`` is dW and the innovation is read off the observation
    increment.  Without it, X moves with the filtered drift
    bbar = sum_i p_i b_i and ``noise`` is the innovation itself.  Every
    history it writes is stored step-major (see ``pathsim.history``).
    """
    n_paths = noise.shape[0]
    controls = check_controls(policy, controls, n_paths, grid)
    dt = grid.dt
    times = grid.times
    Q = spec.generator.matrix
    sig = spec.volatility()

    states = history(n_paths, grid.n_steps + 1)
    probs = history(n_paths, grid.n_steps + 1, spec.n_regimes)
    used = history(n_paths, grid.n_steps)
    dnu = noise if alpha is None else history(n_paths, grid.n_steps)
    x = states[:, 0] = np.full(n_paths, spec.x0)
    p = _prior(spec, n_paths)
    probs[:, 0] = p.T
    events = 0
    worst = 0.0

    for k in range(grid.n_steps):
        t = times[k]
        u = used[:, k] = control_at(spec, t, x, p[0], policy,
                                    None if controls is None else controls[:, k])
        table = drift_table(spec, x, u)
        h = table / sig
        hp = p * h
        hbar = hp[0] + hp[1]
        b = hbar * sig if alpha is None else np.where(alpha[:, k] == 1, table[0], table[1])
        x_next = euler_step(x, b, sig, noise[:, k], dt, times[k + 1])
        if alpha is not None:
            row = dnu[:, k]
            np.subtract(x_next, x, out=row)
            row /= sig
            row -= hbar * dt
        p, e, w = _wonham_step(p, h, hbar, dnu[:, k], Q, dt)
        events += e
        worst = max(worst, w)
        x = states[:, k + 1] = x_next
        probs[:, k + 1] = p.T

    return InnovationPath(grid=grid, states=states, probs=probs, controls=used,
                          dnu=dnu, seed=seed, clamp_events=events, max_excursion=worst)


def coupled_forward(
    spec: ProblemSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    policy=None,
    path_offset: int = 0,
    controls: Array | None = None,
    dW: Array | None = None,
    alpha: NDArray[np.int64] | None = None,
) -> CoupledPath:
    """Simulate the physical system and filter it in one pass.

    The chain and driving noise are drawn (or taken from the overrides,
    whose shapes are checked), the state advances by Euler, and the
    filter advances on the realized observation increment of the same
    step.  Policies see the filtered probability of regime 1, so
    (t, x, pi)-feedback is admissible here.
    """
    alpha, dW = draw_drivers(spec, grid, n_paths, seed, path_offset, alpha, dW)
    run = _observer_pass(spec, grid, seed, policy, controls, dW, alpha)
    bundle = PathBundle(grid=grid, states=run.states, regimes=alpha, controls=run.controls,
                        noise=dW, seed=seed)
    fpath = FilterPath(grid=grid, probs=run.probs, nu_increments=run.dnu,
                       clamp_events=run.clamp_events, max_excursion=run.max_excursion)
    return CoupledPath(bundle=bundle, filter_path=fpath)


def innovation_forward(
    spec: ProblemSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    policy=None,
    path_offset: int = 0,
    controls: Array | None = None,
    dnu: Array | None = None,
) -> InnovationPath:
    """Advance the observer's closed system (X, p) under innovation noise.

    X_{k+1} = X_k + bbar_k dt + sigma_k dnu_k, bbar = sum_i p_i b(i);
    p_{k+1,i} = p_{k,i} + (p_k Q)_i dt + p_{k,i}(h_i - hbar_k) dnu_k.
    """
    if dnu is None:
        dnu = brownian_increments(seed, grid, n_paths, TAG_INNOVATION, path_offset)
    else:
        dnu = check_override("dnu", dnu, (n_paths, grid.n_steps))
    return _observer_pass(spec, grid, seed, policy, controls, dnu)


# ---------------------------------------------------------------------------
# Oracle and transformed cost
# ---------------------------------------------------------------------------


def discrete_bayes_oracle(
    spec: ProblemSpec,
    grid: TimeGrid,
    states: Array,
    controls: Array,
) -> Array:
    """Exact conditional regime law for the discretized generative model.

    Given the Euler transition density Delta X_k | alpha_k = i ~
    N(b_i dt, sigma^2 dt) and the exact node-to-node chain kernel, the
    forward algorithm below is Bayes-exact, so any gap to the filter
    recursions is pure discretization error of those recursions.
    A correction-then-prediction step per node, in log space.
    """
    if grid.dt > 1e-2 + 1e-15:
        raise ConfigError(
            f"oracle requires dt <= 1e-2 (got {grid.dt:.3g}); coarser grids "
            "make the one-step Gaussian likelihood meaningless"
        )
    n_paths, sig, steps = _replay(spec, grid, states, controls)
    dt = grid.dt
    P = spec.generator.transition_matrix(dt)
    log_eps = -745.0  # log of the smallest positive double, for zero probs
    two_var = 2.0 * (sig * sig) * dt  # twice the variance of Delta X_k given the regime

    p = _prior(spec, n_paths)
    probs = history(n_paths, grid.n_steps + 1, spec.n_regimes)
    probs[:, 0] = p.T

    for k, (table, dx) in enumerate(steps):
        with np.errstate(divide="ignore"):
            logp = np.where(p > 0, np.log(np.maximum(p, 1e-300)), log_eps)
        logp += -((dx - table * dt) ** 2) / two_var
        logp -= logp.max(axis=0)
        w = np.exp(logp)
        w /= w.sum(axis=0)
        p = P.T @ w
        probs[:, k + 1] = p.T

    return probs


def transformed_cost_paths(
    spec: ProblemSpec,
    grid: TimeGrid,
    states: Array,
    probs: Array,
    controls: Array,
) -> Array:
    """Per-path cost with the regime integrated out against the filter:
    sum_k Fbar(t_k, X_k, p_k, u_k) dt + Gbar(X_N, p_N), where Fbar and
    Gbar average f and g over the filtered regime law.  This is the
    realized-cost quadrature with the filter in place of the regime
    indicator."""
    return _cost_quadrature(spec, grid, states, controls, probs)


def transformed_cost(
    spec: ProblemSpec,
    grid: TimeGrid,
    states: Array,
    probs: Array,
    controls: Array,
) -> CostEstimate:
    """Monte Carlo mean and standard error of the regime-averaged cost."""
    moments = RunningMoments().add(transformed_cost_paths(spec, grid, states, probs, controls))
    return CostEstimate(moments.mean, moments.std_error, moments.count)
