"""Path simulation for the regime-modulated diffusion.

Euler draws on a uniform grid, with one counter-based RNG stream per
path so that a path's noise depends only on (seed, path index) and never
on how paths are batched into blocks.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, DomainError, NumericalError
from .model import GeneratorSpec, LQSpec, drift_table, running_cost_table, terminal_cost_table
from .parallel import DEFAULT_BLOCK_SIZE, RunningMoments, run_blocks

Array = NDArray[np.float64]

# Stream tags: one independent Philox stream per (path, purpose).
TAG_CHAIN = 0
TAG_NOISE = 1
TAG_INNOVATION = 2

# |X| beyond this aborts the simulation rather than overflowing silently.
BLOWUP_LIMIT = 1e8

DRAW_ROWS = 256  # paths drawn into a buffer before one transposed copy into the history

_ZERO_WORDS = np.zeros(4, dtype=np.uint64)  # Philox counter and buffer at a stream's start


def path_rng(seed: int, path_index: int, tag: int,
             generator: np.random.Generator | None = None) -> np.random.Generator:
    """Philox stream keyed by (seed, path, tag); independent across keys.
    Philox is counter-based, so re-keying a given ``generator`` to the
    stream's start gives the same stream as a new one, at less cost."""
    if not (0 <= tag < 4 and 0 <= path_index < 2**62):  # two key bits hold the tag
        raise ConfigError(f"stream tag {tag} or path index {path_index} outside 0..3 or [0, 2**62)")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    key = np.array([seed, int(path_index) << 2 | tag], dtype=np.uint64)
    if generator is None:
        return np.random.Generator(np.random.Philox(key=key))
    generator.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZERO_WORDS, "key": key},
        "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return generator


def history(n_paths: int, *shape: int, dtype=np.float64) -> np.ndarray:
    """Empty (n_paths, *shape) path history, stored step-major: the path
    axis is last in memory, so that each step's row ``[:, k]`` is contiguous."""
    return np.moveaxis(np.empty((*shape, n_paths), dtype), -1, 0)


def _draw(seed: int, path_indices, tag: int, n: int, method: str) -> Array:
    """``method`` draws of n per path, a (len(path_indices), n) history.

    Each path's stream fills one row of a buffer of ``DRAW_ROWS`` paths
    from one re-keyed generator; a full buffer is copied in transposed.
    """
    out = history(len(path_indices), n)
    buf = np.empty((min(DRAW_ROWS, len(path_indices)), n))
    rng = None
    for r0 in range(0, len(path_indices), DRAW_ROWS):
        block = path_indices[r0:r0 + DRAW_ROWS]
        for row, idx in enumerate(block):
            rng = path_rng(seed, idx, tag, rng)
            getattr(rng, method)(out=buf[row])
        out[r0:r0 + len(block)] = buf[:len(block)]
    return out


def draw_normals(seed: int, path_indices, tag: int, n_steps: int) -> Array:
    """Standard normals, shape (len(path_indices), n_steps), one stream per path."""
    return _draw(seed, path_indices, tag, n_steps, "standard_normal")


def draw_uniforms(seed: int, path_indices, tag: int, n_draws: int) -> Array:
    return _draw(seed, path_indices, tag, n_draws, "random")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:
            raise ConfigError("horizon must be positive and finite")
        if self.n_steps < 1:
            raise ConfigError("need at least one step")
        if not self.dt >= sys.float_info.min:  # a subnormal or zero step breaks the passes
            raise ConfigError(f"grid of horizon {self.horizon!r} and n_steps={self.n_steps} "
                              f"has step dt={self.dt!r}, below the smallest normal double")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> Array:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


class CostEstimate(NamedTuple):
    mean: float
    std_error: float
    n_paths: int


@dataclass
class PathBundle:
    """Simulated ensemble on a common grid.

    ``states`` has shape (n_paths, N+1); ``regimes`` the hidden chain as
    integer labels 1 or 2 (same shape); ``controls`` and ``noise`` are the
    per-step values, shape (n_paths, N).  Drawn and simulated histories
    are stored step-major (see ``history``).
    """

    grid: TimeGrid
    states: Array
    regimes: NDArray[np.int64]
    controls: Array
    noise: Array
    seed: int

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def brownian(self) -> Array:
        """Driving Brownian levels per node, W_0 = 0."""
        levels = np.zeros((self.n_paths, self.grid.n_steps + 1))
        np.cumsum(self.noise, axis=1, out=levels[:, 1:])
        return levels


# ---------------------------------------------------------------------------
# Chain simulation
# ---------------------------------------------------------------------------


def simulate_chain(
    generator: GeneratorSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    pi0: float,
    path_offset: int = 0,
) -> NDArray[np.int64]:
    """Sample the hidden chain at the grid nodes, shape (n_paths, N+1).

    The initial regime is 1 with probability ``pi0``, a number in [0, 1]
    (``ConfigError`` otherwise), so 0 and 1 fix it.  Node-to-node moves
    use the exact transition kernel exp(Q*dt), so the node marginals
    carry no discretization error.  The step constraint
    dt * max(lambda1, lambda2) < 0.5 guards against grids so coarse that
    multiple switches per step dominate.

    One uniform per node is consumed from the path's chain stream, the
    first for the initial regime, so the transition draws do not depend
    on ``pi0``.
    """
    if not (np.ndim(pi0) == 0 and 0.0 <= pi0 <= 1.0):
        raise ConfigError(f"pi0 must be a probability in [0, 1], got {pi0!r}")
    rate = grid.dt * generator.max_exit_rate
    if rate >= 0.5:
        raise ConfigError(f"grid too coarse for the chain: dt*max_rate = {rate:.3g} >= 0.5")
    # the chance that a path in state s (0 or 1) moves to state 0 in one step
    to_first = generator.transition_matrix(grid.dt)[:, 0]

    indices = range(path_offset, path_offset + n_paths)
    u = draw_uniforms(seed, indices, TAG_CHAIN, grid.n_steps + 1)

    alpha = history(n_paths, grid.n_steps + 1, dtype=np.int64)
    alpha[:, 0] = u[:, 0] >= pi0
    for k in range(grid.n_steps):
        alpha[:, k + 1] = u[:, k + 1] >= to_first[alpha[:, k]]
    alpha += 1
    return alpha


def chain_marginal(spec: LQSpec, t: float) -> Array:
    """Law of the chain at time t (exact, via the transition kernel)."""
    return spec.prior @ spec.generator.transition_matrix(t)


# ---------------------------------------------------------------------------
# Step kernel shared by every forward pass
# ---------------------------------------------------------------------------


def check_override(name: str, value, shape: tuple[int, ...], dtype=np.float64):
    """``value`` as an array of the given shape, or ``ConfigError``."""
    value = np.asarray(value, dtype=dtype)
    if value.shape != shape:
        raise ConfigError(f"{name} override must have shape {shape}, got {value.shape}")
    return value


def brownian_increments(seed: int, grid: TimeGrid, n_paths: int, tag: int,
                        path_offset: int = 0, override=None) -> Array:
    """Increments of the path streams ``tag``, shape (n_paths, N), or the checked override."""
    if override is not None:
        return check_override("dW", override, (n_paths, grid.n_steps))
    indices = range(path_offset, path_offset + n_paths)
    dW = draw_normals(seed, indices, tag, grid.n_steps)
    dW *= np.sqrt(grid.dt)
    return dW


def draw_drivers(spec: LQSpec, grid: TimeGrid, n_paths: int, seed: int,
                 path_offset: int = 0, alpha=None, dW=None):
    """Hidden chain (n_paths, N+1) and Brownian increments (n_paths, N).

    Each is drawn from the path streams unless given, in which case its
    shape is checked instead, and a given chain's labels must be 1 or 2.
    """
    if alpha is None:
        alpha = simulate_chain(spec.generator, grid, n_paths, seed,
                               pi0=spec.pi0, path_offset=path_offset)
    else:
        alpha = check_override("alpha", alpha, (n_paths, grid.n_steps + 1), np.int64)
        bad = alpha[(alpha != 1) & (alpha != 2)]
        if bad.size:
            raise ConfigError(f"alpha override holds regime label {bad[0]}; labels are 1 and 2")
    return alpha, brownian_increments(seed, grid, n_paths, TAG_NOISE, path_offset, dW)


def check_controls(policy, controls, n_paths: int, grid: TimeGrid):
    """Validate the control source of a forward pass; returns ``controls``."""
    if controls is None:
        return None
    if policy is not None:
        raise ConfigError("pass either a policy or explicit controls, not both")
    return check_override("controls", controls, (n_paths, grid.n_steps))


def control_at(spec: LQSpec, t: float, x: Array, pi, policy=None, control=None) -> Array:
    """Control of the step at t, clamped to the control domain.

    An explicit ``control`` row wins, then ``policy(t, x, pi)``, then zero.
    A control that is not finite after clamping raises ``DomainError``
    naming its source rather than surfacing later as a state blow-up.
    """
    if control is not None:
        u = control
    elif policy is not None:
        u = policy(t, x, pi)
    else:
        u = np.zeros(x.shape[0])
    u = np.clip(np.asarray(u, dtype=np.float64), *spec.control_domain)
    if u.shape != x.shape:
        raise ConfigError(f"control at t={t:.4g} has shape {u.shape}, expected {x.shape}")
    if not np.all(np.isfinite(u)):
        source = ("explicit controls" if control is not None
                  else f"policy {getattr(policy, 'name', '') or policy!r}")
        raise DomainError(f"{source} gave a non-finite control at t={t:.4g}")
    return u


def euler_step(x: Array, drift: Array, sig, dw: Array, dt: float, t_next: float) -> Array:
    """X + b dt + sigma dW; |X| beyond ``BLOWUP_LIMIT`` raises ``NumericalError``."""
    x = x + drift * dt + sig * dw
    top = np.abs(x).max(initial=0.0)
    if not top <= BLOWUP_LIMIT:  # a NaN fails the comparison too
        raise NumericalError(f"state blow-up at t={t_next:.4g}: max |X| = {top:.3g}")
    return x


# ---------------------------------------------------------------------------
# State simulation
# ---------------------------------------------------------------------------


def euler_steps(spec: LQSpec, grid: TimeGrid, alpha: NDArray[np.int64], dW: Array,
                policy=None, controls: Array | None = None):
    """X_{k+1} = X_k + b(X_k, alpha_k, u_k) dt + sigma dW_k from X_0 = x0,
    yielded as (X_k, u_k, X_{k+1}) for k < N: ``simulate_state`` keeps
    every step, ``realized_cost_paths`` only a per-path sum."""
    x = np.full(alpha.shape[0], spec.x0)
    times = grid.times
    sig = spec.volatility()
    for k in range(grid.n_steps):
        u = control_at(spec, times[k], x, None, policy,
                       None if controls is None else controls[:, k])
        b = np.where(alpha[:, k] == 1, *drift_table(spec, x, u))
        x_next = euler_step(x, b, sig, dW[:, k], grid.dt, times[k + 1])
        yield x, u, x_next
        x = x_next


def simulate_state(
    spec: LQSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    policy=None,
    path_offset: int = 0,
    alpha: NDArray[np.int64] | None = None,
    dW: Array | None = None,
    controls: Array | None = None,
) -> PathBundle:
    """Euler scheme with left-endpoint coefficients (``euler_steps``).

    No filter runs here, so ``policy`` is evaluated as policy(t_k, X_k,
    None): a policy that reads ``pi`` fails (``TypeError``, or a NaN
    control and ``DomainError``) instead of being costed at a frozen
    prior.  Feedback on the filtered state belongs in
    ``wonham.coupled_forward``.  ``alpha``, ``dW`` and ``controls``
    override the internal draws, which is what grid-coupling tests use.
    """
    controls = check_controls(policy, controls, n_paths, grid)
    alpha, dW = draw_drivers(spec, grid, n_paths, seed, path_offset, alpha, dW)
    states = history(n_paths, grid.n_steps + 1)
    used = history(n_paths, grid.n_steps)
    states[:, 0] = spec.x0
    for k, (_, u, x) in enumerate(euler_steps(spec, grid, alpha, dW, policy, controls)):
        used[:, k], states[:, k + 1] = u, x
    return PathBundle(grid=grid, states=states, regimes=alpha, controls=used,
                      noise=dW, seed=seed)


# ---------------------------------------------------------------------------
# Cost
# ---------------------------------------------------------------------------


def _add_cost(total: Array, spec: LQSpec, weights, x: Array, u=None, dt: float = 1.0):
    """total += sum_i w_i f(X, i, u) dt at a step's left node, or sum_i w_i
    g(X, i) at the last (``u`` None), regime by regime: the one place the
    cost formula lives.  ``weights`` (n_paths, d): the realized regime's
    indicator gives the realized cost, the filter the regime-averaged one."""
    table = terminal_cost_table(spec, x) if u is None else running_cost_table(spec, x, u)
    for i, f in enumerate(table):
        total += dt * weights[:, i] * f


def _cost_quadrature(spec: LQSpec, grid: TimeGrid, states: Array,
                     controls: Array, weights) -> Array:
    """Per-path sum_k sum_i w_{k,i} f(X_k, i, u_k) dt + sum_i w_{N,i} g(X_N, i)
    from stored histories, ``weights`` (n_paths, N+1, d); the streamed
    ``realized_cost_paths`` makes the same additions in the same order."""
    total = np.zeros(states.shape[0])
    for k in range(grid.n_steps):
        _add_cost(total, spec, weights[:, k], states[:, k], controls[:, k], grid.dt)
    _add_cost(total, spec, weights[:, -1], states[:, -1])
    return total


def cost_from_paths(spec: LQSpec, bundle: PathBundle) -> Array:
    """Per-path realized cost, left-endpoint quadrature for the running part."""
    labels = np.arange(1, spec.n_regimes + 1)
    return _cost_quadrature(spec, bundle.grid, bundle.states, bundle.controls,
                            bundle.regimes[..., None] == labels)


def realized_cost_paths(spec: LQSpec, grid: TimeGrid, n_paths: int, seed: int, policy=None,
                        path_offset: int = 0, alpha: NDArray[np.int64] | None = None) -> Array:
    """``cost_from_paths`` of ``simulate_state``'s paths, bit for bit, but
    streamed: each step's cost is added as ``euler_steps`` yields it, so
    no state, control or regime history is stored."""
    alpha, dW = draw_drivers(spec, grid, n_paths, seed, path_offset, alpha)
    labels = np.arange(1, spec.n_regimes + 1)
    total = np.zeros(n_paths)
    for k, (x, u, x_next) in enumerate(euler_steps(spec, grid, alpha, dW, policy)):
        _add_cost(total, spec, alpha[:, k, None] == labels, x, u, grid.dt)
    _add_cost(total, spec, alpha[:, -1, None] == labels, x_next)
    return total


def blocked_cost(path_costs, n_paths: int, block_size: int = DEFAULT_BLOCK_SIZE,
                 workers: int = 1) -> CostEstimate:
    """Mean and standard error of ``path_costs(offset, count)`` (per-path
    costs of one block of paths, which its callers stream, so a block
    holds its drivers and O(count) state), merged in block order.  With
    ``workers`` >= 2 large blocks run on forked worker processes (see
    ``run_blocks``); the estimate does not depend on ``workers``."""

    def run_block(offset: int, count: int) -> RunningMoments:
        return RunningMoments().add(path_costs(offset, count))

    moments = RunningMoments()
    for part in run_blocks(run_block, n_paths, block_size=block_size, workers=workers):
        moments.merge(part)
    return CostEstimate(moments.mean, moments.std_error, n_paths)


def estimate_cost(
    spec: LQSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    policy=None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int = 1,
) -> CostEstimate:
    """Monte Carlo cost of a policy, blocked so memory stays flat.

    Each block's cost is streamed (``realized_cost_paths``): the paths
    are ``simulate_state``'s, so the policy is called with ``pi=None`` and
    must not read the filtered state.
    """
    return blocked_cost(lambda offset, count: realized_cost_paths(
        spec, grid, count, seed, policy, offset), n_paths, block_size, workers)
