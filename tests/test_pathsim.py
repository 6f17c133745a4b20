from __future__ import annotations

import math

import numpy as np
import pytest

from hybridmp import (
    ConfigError,
    DomainError,
    FeedbackPolicy,
    GeneratorSpec,
    LQSpec,
    NumericalError,
    TimeGrid,
    constant_policy,
    cost_from_paths,
    estimate_cost,
    simulate_chain,
    simulate_state,
    zero_policy,
)
from hybridmp import pathsim
from hybridmp.model import drift_table
from hybridmp.parallel import POOL_MIN_PATHS
from hybridmp.pathsim import (
    BLOWUP_LIMIT,
    DRAW_ROWS,
    TAG_CHAIN,
    TAG_NOISE,
    control_at,
    draw_normals,
    draw_uniforms,
    euler_step,
    history,
    path_rng,
)
from hybridmp.wonham import coupled_forward, transformed_cost_paths

# Step counts of the per-column reference comparisons: one step, odd and
# even counts, and a longer odd one.
STEP_COUNTS = [1, 15, 16, 17, 35]


def _rows_are_contiguous(a) -> bool:
    """Each step's row ``a[:, k]`` of a (n_paths, steps, ...) history is
    contiguous, with the path axis last in memory."""
    return all(np.moveaxis(a[:, k], 0, -1).flags.c_contiguous for k in range(a.shape[1]))


@pytest.fixture(scope="module")
def bm_spec():
    """Driftless unit-volatility state with an inert chain."""
    return LQSpec(a=(0.0, 0.0), b=(0.0, 0.0), sigma=1.0, Q=(0.0, 0.0),
                  R=(1.0, 1.0), G=(1.0, 1.0), lambda1=1.0, lambda2=1.0,
                  horizon=1.0, x0=0.0, pi0=0.5)


class TestTimeGrid:
    def test_basic_properties(self):
        grid = TimeGrid(2.0, 400)
        assert grid.dt == pytest.approx(0.005)
        assert grid.times[0] == 0.0
        assert grid.times[-1] == pytest.approx(2.0)
        assert len(grid.times) == 401

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            TimeGrid(0.0, 100)
        with pytest.raises(ConfigError):
            TimeGrid(1.0, 0)
        for horizon in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="finite"):
                TimeGrid(horizon, 10)


class TestSimulateChain:
    def test_rejects_coarse_grid_for_fast_chain(self):
        g = GeneratorSpec(100.0, 100.0)
        with pytest.raises(ConfigError):
            simulate_chain(g, TimeGrid(1.0, 50), 10, 0, pi0=1.0)

    @pytest.mark.parametrize("pi0", [(0.3, 0.7), [0.5], np.array([1.0, 0.0]), -5e-324,
                                     math.nextafter(1.0, 2.0), math.nan, math.inf])
    def test_rejects_a_pi0_that_is_not_a_probability(self, pi0):
        # a pair in the old style would compare path by path when n_paths == 2
        with pytest.raises(ConfigError, match="pi0 must be a probability"):
            simulate_chain(GeneratorSpec(1.0, 2.0), TimeGrid(1.0, 50), 2, 0, pi0=pi0)

    def test_shapes_and_values(self):
        g = GeneratorSpec(1.0, 2.0)
        alpha = simulate_chain(g, TimeGrid(1.0, 50), 32, 0, pi0=0.0)
        assert alpha.shape == (32, 51)
        assert set(np.unique(alpha)) <= {1, 2}
        assert np.all(alpha[:, 0] == 2)

    def test_deterministic_in_seed_and_offset(self):
        g = GeneratorSpec(1.0, 2.0)
        grid = TimeGrid(1.0, 50)
        whole = simulate_chain(g, grid, 8, 7, pi0=0.3)
        head = simulate_chain(g, grid, 4, 7, pi0=0.3)
        tail = simulate_chain(g, grid, 4, 7, pi0=0.3, path_offset=4)
        assert np.array_equal(whole, np.vstack([head, tail]))

    def test_mean_holding_time(self):
        # state 1 exits at rate 2 and state 2 is absorbing, so the exit
        # time is Exp(2); grid censoring adds ~dt/2
        g = GeneratorSpec(2.0, 0.0)
        grid = TimeGrid(4.0, 2000)
        alpha = simulate_chain(g, grid, 10_000, 11, pi0=1.0)
        exit_steps = np.argmax(alpha == 2, axis=1)
        exit_steps[exit_steps == 0] = grid.n_steps
        holding = exit_steps * grid.dt
        se = holding.std(ddof=1) / math.sqrt(len(holding))
        assert abs(holding.mean() - 0.5) <= 3.0 * se + grid.dt

    def test_occupation_probability_closed_form(self):
        # P(state 1 at t=1 | start in 1) = 0.5 + 0.5 e^{-2} for unit rates
        g = GeneratorSpec(1.0, 1.0)
        grid = TimeGrid(1.0, 50)
        alpha = simulate_chain(g, grid, 20_000, 5, pi0=1.0)
        occ = (alpha[:, -1] == 1).astype(float)
        se = occ.std(ddof=1) / math.sqrt(len(occ))
        assert abs(occ.mean() - (0.5 + 0.5 * math.exp(-2.0))) <= 3.0 * se


class TestSimulateState:
    def test_brownian_terminal_variance(self, bm_spec):
        grid = TimeGrid(1.0, 200)
        bundle = simulate_state(bm_spec, grid, 10_000, 3,
                                policy=zero_policy())
        xT = bundle.states[:, -1]
        var = xT.var(ddof=1)
        se = math.sqrt(2.0 / (len(xT) - 1))  # SE of unit-normal variance
        assert abs(var - 1.0) <= 3.0 * se

    def test_state_equals_noise_cumsum_for_pure_diffusion(self, bm_spec):
        grid = TimeGrid(1.0, 100)
        bundle = simulate_state(bm_spec, grid, 16, 9, policy=zero_policy())
        assert np.allclose(bundle.states[:, 1:], bundle.brownian[:, 1:],
                           atol=1e-12)

    def test_policy_receives_time_state(self, bm_spec):
        grid = TimeGrid(1.0, 10)
        bundle = simulate_state(bm_spec, grid, 4, 1,
                                policy=constant_policy(0.7))
        assert np.all(bundle.controls == 0.7)

    def test_controls_override_shape_checked(self, bm_spec):
        grid = TimeGrid(1.0, 10)
        with pytest.raises(ConfigError):
            simulate_state(bm_spec, grid, 4, 1,
                           controls=np.zeros((4, 3)))

    @pytest.mark.parametrize("label", [0, 3])
    @pytest.mark.parametrize("forward", [simulate_state, coupled_forward],
                             ids=lambda fn: fn.__name__)
    def test_alpha_override_labels_checked(self, bm_spec, forward, label):
        # a label outside {1, 2} would weight no regime's cost, or index past the table
        grid = TimeGrid(1.0, 10)
        alpha = np.ones((4, grid.n_steps + 1), dtype=np.int64)
        alpha[2, 5] = label
        with pytest.raises(ConfigError, match=f"regime label {label}"):
            forward(bm_spec, grid, 4, 1, alpha=alpha)

    def test_blow_up_guard(self):
        wild = LQSpec(a=(40.0, 40.0), b=(0.0, 0.0), sigma=1.0, Q=(0.0, 0.0),
                      R=(1.0, 1.0), G=(1.0, 1.0), lambda1=0.0, lambda2=0.0,
                      horizon=10.0, x0=1e7, pi0=1.0)
        with pytest.raises(NumericalError):
            simulate_state(wild, TimeGrid(10.0, 100), 4, 0,
                           policy=zero_policy())


class TestCost:
    def test_terminal_second_moment(self, bm_spec):
        # f = 0 and g = x^2/2 on both regimes with sigma=1, b=0:
        # J = E[X_T^2]/2 = T/2
        grid = TimeGrid(1.0, 200)
        est = estimate_cost(bm_spec, grid, 10_000, 21, policy=zero_policy())
        assert abs(est.mean - 0.5) <= 3.0 * est.std_error
        assert est.n_paths == 10_000

    def test_left_endpoint_quadrature(self, lq):
        # controls enter the running cost at the left node only
        grid = TimeGrid(1.0, 4)
        bundle = simulate_state(lq, grid, 2, 0, policy=zero_policy())
        cost = cost_from_paths(lq, bundle)
        by_hand = np.zeros(2)
        for k in range(grid.n_steps):
            x = bundle.states[:, k]
            i = bundle.regimes[:, k]
            q = np.where(i == 1, lq.Q[0], lq.Q[1])
            by_hand += 0.5 * q * x * x * grid.dt
        xT = bundle.states[:, -1]
        gT = np.where(bundle.regimes[:, -1] == 1, lq.G[0], lq.G[1])
        by_hand += 0.5 * gT * xT * xT
        assert np.allclose(cost, by_hand)

    def test_policy_reading_pi_is_rejected(self, bm_spec):
        # no filter runs here, so a (t, x, pi) policy must fail rather
        # than be costed at the prior
        policy = FeedbackPolicy(lambda t, x, pi: -pi * x)
        with pytest.raises((TypeError, DomainError)):
            estimate_cost(bm_spec, TimeGrid(1.0, 20), 200, 5, policy=policy)

    def test_block_merge_is_order_deterministic(self, bm_spec):
        grid = TimeGrid(1.0, 50)
        serial = estimate_cost(bm_spec, grid, 1000, 13, policy=zero_policy(),
                               block_size=256, workers=1)
        threaded = estimate_cost(bm_spec, grid, 1000, 13, policy=zero_policy(),
                                 block_size=256, workers=3)
        assert serial == threaded

    def test_pooled_block_merge_is_order_deterministic(self, bm_spec):
        grid = TimeGrid(1.0, 50)
        n_paths = 2 * POOL_MIN_PATHS + 100  # three blocks, the last one short
        serial = estimate_cost(bm_spec, grid, n_paths, 13, policy=zero_policy(),
                               block_size=POOL_MIN_PATHS, workers=1)
        pooled = estimate_cost(bm_spec, grid, n_paths, 13, policy=zero_policy(),
                               block_size=POOL_MIN_PATHS, workers=2)
        assert serial == pooled


def _chain_by_fresh_streams(generator, grid, n_paths, seed, alpha0=None, pi0=None,
                            path_offset=0):
    """The chain loop before the successor table: a fresh generator per
    path, then one fancy-indexed cdf row per path and step, and a copy of
    the labels for the +1."""
    cdf = np.cumsum(generator.transition_matrix(grid.dt), axis=1)
    d = len(cdf)
    u = np.stack([path_rng(seed, i, TAG_CHAIN).random(grid.n_steps + 1)
                  for i in range(path_offset, path_offset + n_paths)])
    alpha = np.empty((n_paths, grid.n_steps + 1), dtype=np.int64)
    if alpha0 is not None:
        alpha[:, 0] = alpha0 - 1
    else:
        alpha[:, 0] = np.searchsorted(np.cumsum([pi0, 1.0 - pi0]), u[:, 0], side="right")
        np.clip(alpha[:, 0], 0, d - 1, out=alpha[:, 0])
    for k in range(grid.n_steps):
        row_cdf = cdf[alpha[:, k]]
        nxt = (u[:, k + 1, None] >= row_cdf).sum(axis=1)
        alpha[:, k + 1] = np.minimum(nxt, d - 1)
    return alpha + 1


class TestPathRngKey:
    """The stream key is built from Python ints: the same words as the
    numpy scalar expression, and no wrap-around past the key's range."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("idx", [0, 1, 2**62 - 1])
    def test_key_is_the_numpy_scalar_expression(self, seed, idx):
        for tag in range(4):
            want = np.array([seed, (np.uint64(idx) << np.uint64(2)) | np.uint64(tag)],
                            dtype=np.uint64)
            for rng in (path_rng(seed, idx, tag), path_rng(seed, idx, tag, path_rng(1, 2, 3))):
                assert np.array_equal(rng.bit_generator.state["state"]["key"], want)

    @pytest.mark.parametrize("idx", [2**62, -1])
    def test_path_index_outside_the_key_raises(self, idx):
        # 2**62 would wrap onto path 0's stream, -1 overflow the key word
        with pytest.raises(ConfigError, match="path index"):
            path_rng(0, idx, TAG_NOISE)
        with pytest.raises(ConfigError, match="path index"):
            draw_normals(0, [0, idx], TAG_NOISE, 3)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_key_raises(self, seed):
        # the key word holds a seed in [0, 2**64); numpy would overflow
        with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*64\)"):
            path_rng(seed, 0, TAG_NOISE)
        with pytest.raises(ConfigError, match="seed"):
            draw_normals(seed, [0, 1], TAG_NOISE, 3)


class TestKernelExactness:
    """The forward kernel gives the draws and labels of the straightforward
    per-path code bit for bit."""

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_rows_are_the_path_streams(self, seed):
        indices = [0, 1, 7, 4096, 2**40]
        normals = draw_normals(seed, indices, TAG_NOISE, 37)
        uniforms = draw_uniforms(seed, indices, TAG_CHAIN, 38)
        for row, idx in enumerate(indices):
            assert np.array_equal(normals[row],
                                  path_rng(seed, idx, TAG_NOISE).standard_normal(37))
            assert np.array_equal(uniforms[row], path_rng(seed, idx, TAG_CHAIN).random(38))

    @pytest.mark.parametrize("n_paths", [1, DRAW_ROWS - 1, DRAW_ROWS, DRAW_ROWS + 1,
                                         2 * DRAW_ROWS + 3])
    def test_buffered_draws_are_the_path_streams_step_major(self, n_paths):
        # paths around the draw buffer's size: a part, a whole buffer, a
        # buffer and one path, and two buffers and a part
        indices = range(5, 5 + n_paths)
        for draw, tag, method in ((draw_normals, TAG_NOISE, "standard_normal"),
                                  (draw_uniforms, TAG_CHAIN, "random")):
            got = draw(3, indices, tag, 9)
            want = np.stack([getattr(path_rng(3, i, tag), method)(9) for i in indices])
            assert got.shape == (n_paths, 9) and _rows_are_contiguous(got)
            assert np.array_equal(got, want)

    def test_history_is_step_major(self):
        a = history(7, 4, 3, dtype=np.int64)
        assert a.shape == (7, 4, 3) and a.dtype == np.int64
        assert np.moveaxis(a, 0, -1).flags.c_contiguous and _rows_are_contiguous(a)

    def test_rekeyed_generator_starts_its_stream_afresh(self):
        # a generator left mid-buffer (half a 64-bit word, three words of
        # the Philox block used) gives the new key's stream from its start
        used = path_rng(5, 3, TAG_NOISE)
        used.integers(0, 2**32, size=3, dtype=np.uint32)
        again = path_rng(5, 9, TAG_CHAIN, used)
        fresh = path_rng(5, 9, TAG_CHAIN)
        assert again is used
        for draw in (lambda g: g.integers(0, 2**32, size=5, dtype=np.uint32),
                     lambda g: g.random(11)):
            assert np.array_equal(draw(again), draw(fresh))

    def test_one_stream_lookup_per_row(self, monkeypatch):
        # the benchmark counts streams by wrapping ``pathsim.path_rng``
        calls = []
        real = pathsim.path_rng

        def counted(*args, **kwargs):
            calls.append(args[:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(pathsim, "path_rng", counted)
        draw_normals(1, range(4, 9), TAG_NOISE, 3)
        draw_uniforms(1, [2, 0], TAG_CHAIN, 3)
        assert calls == [(1, i, TAG_NOISE) for i in range(4, 9)] + \
            [(1, 2, TAG_CHAIN), (1, 0, TAG_CHAIN)]

    @pytest.mark.parametrize("tag", [-1, 4])
    def test_bad_tag_raises(self, tag):
        with pytest.raises(ConfigError, match="tag"):
            draw_normals(0, [0, 1], tag, 5)
        with pytest.raises(ConfigError, match="tag"):
            draw_uniforms(0, [0, 1], tag, 5)

    @pytest.mark.parametrize("generator", [
        GeneratorSpec(1.0, 2.0), GeneratorSpec(2.0, 0.0), GeneratorSpec(0.0, 0.0),
    ], ids=["two-state", "absorbing-2", "frozen"])
    def test_chain_matches_the_per_step_loop(self, generator):
        # regime 2 of "absorbing-2" moves to regime 1 below a threshold of
        # exactly 0; the frozen chain's thresholds are 1 and 0
        grid = TimeGrid(1.0, 100)
        d = 2
        # pi0 = 0 starts in regime d, as the reference's alpha0=d
        for kwargs, ref in (({"pi0": 0.0}, {"alpha0": d}), ({"pi0": 0.5}, None),
                            ({"pi0": 0.3}, None),
                            ({"pi0": 0.5, "path_offset": 17}, None)):
            got = simulate_chain(generator, grid, 300, 11, **kwargs)
            want = _chain_by_fresh_streams(generator, grid, 300, 11, **(ref or kwargs))
            assert got.dtype == np.int64 and _rows_are_contiguous(got)
            assert np.array_equal(got, want)
            stuck = ref is not None and generator.lambda2 == 0.0  # regime 2 never left
            assert set(np.unique(got)) == ({d} if stuck else set(range(1, d + 1)))

    @pytest.mark.parametrize("rates", [(1.0, 2.0), (2.0, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("seed", [0, 5, 11, 2**63])
    def test_vertex_pi0_is_a_known_start(self, rates, seed):
        # the chain of a fixed start regime, drawn from pi0 = 1 or pi0 = 0
        g = GeneratorSpec(*rates)
        grid = TimeGrid(1.0, 200)
        for alpha0, vertex in ((1, 1.0), (2, 0.0)):
            assert np.array_equal(simulate_chain(g, grid, 500, seed, pi0=vertex),
                                  _chain_by_fresh_streams(g, grid, 500, seed, alpha0=alpha0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2 * BLOWUP_LIMIT,
                                     -2 * BLOWUP_LIMIT])
    def test_euler_step_raises_on_blow_up(self, bad):
        dw = np.array([0.0, 0.0, bad, 0.0])
        with pytest.raises(NumericalError, match="blow-up at t=0.5"):
            euler_step(np.zeros(4), np.zeros(4), 1.0, dw, 0.01, 0.5)

    def test_euler_step_keeps_the_limit_itself(self):
        x = euler_step(np.zeros(3), np.zeros(3), 1.0,
                       np.array([BLOWUP_LIMIT, -BLOWUP_LIMIT, 0.0]), 0.01, 0.5)
        assert np.array_equal(x, [BLOWUP_LIMIT, -BLOWUP_LIMIT, 0.0])
        assert euler_step(np.zeros(0), np.zeros(0), 1.0, np.zeros(0), 0.01, 0.5).shape == (0,)


def _simulate_state_per_column(spec, grid, n_paths, seed, policy=None, controls=None, dW=None):
    """simulate_state's loop on path-major histories: a strided column of
    each history array per step, with drivers drawn path by path from fresh
    streams."""
    alpha = _chain_by_fresh_streams(spec.generator, grid, n_paths, seed, pi0=spec.pi0)
    if dW is None:
        dW = np.sqrt(grid.dt) * np.stack([path_rng(seed, i, TAG_NOISE).standard_normal(
            grid.n_steps) for i in range(n_paths)])
    x = np.full(n_paths, spec.x0)
    states = np.empty((n_paths, grid.n_steps + 1))
    states[:, 0] = x
    used = np.empty((n_paths, grid.n_steps))
    times = grid.times
    rows = np.arange(n_paths)
    for k in range(grid.n_steps):
        t = times[k]
        u = used[:, k] = control_at(spec, t, x, None, policy,
                                    None if controls is None else controls[:, k])
        b = drift_table(spec, x, u)[alpha[:, k] - 1, rows]
        x = euler_step(x, b, spec.sigma, dW[:, k], grid.dt, times[k + 1])
        states[:, k + 1] = x
    return states, used


def _cost_per_column(spec, grid, states, controls, weights):
    """_cost_quadrature's loop on path-major weights."""
    total = np.zeros(states.shape[0])
    for k in range(grid.n_steps):
        x, u = states[:, k], controls[:, k]
        for i in range(spec.n_regimes):
            f = 0.5 * (spec.Q[i] * x**2 + spec.R[i] * u**2)
            total += grid.dt * weights[:, k, i] * f
    for i in range(spec.n_regimes):
        total += weights[:, -1, i] * (0.5 * spec.G[i] * states[:, -1]**2)
    return total


def _step_grid(n_steps):
    return TimeGrid(0.01 * n_steps, n_steps)  # dt = 0.01 keeps the chain check quiet


class TestStagedSteps:
    """The step loops read and write each step's row of step-major
    histories, drawn through buffers of ``DRAW_ROWS`` paths; every output
    is the per-column loop's, bit for bit."""

    @pytest.fixture(autouse=True, params=[16, pathsim.DRAW_ROWS], ids=["rows16", "rows-default"])
    def draw_rows(self, request, monkeypatch):
        # 16 paths per draw buffer splits every ensemble here into several copies
        monkeypatch.setattr(pathsim, "DRAW_ROWS", request.param)

    @pytest.mark.parametrize("n_steps", STEP_COUNTS)
    def test_rows_are_the_columns_and_writes_land(self, n_steps):
        # row k of a drawn or allocated history is its column k, contiguous,
        # and a write to it lands in that column
        a = draw_normals(n_steps, range(37), TAG_NOISE, n_steps + 1)
        want = np.stack([path_rng(n_steps, i, TAG_NOISE).standard_normal(n_steps + 1)
                         for i in range(37)])
        b = np.random.default_rng(n_steps).integers(0, 9, size=(37, n_steps, 3))
        out = history(37, n_steps + 1)
        out[:, 0] = np.nan
        out3 = history(37, n_steps, 3, dtype=np.int64)
        for k in range(n_steps):
            row, row3 = np.moveaxis(a[:, k], 0, -1), np.moveaxis(out3[:, k], 0, -1)
            assert row.flags.c_contiguous and row3.flags.c_contiguous and row3.shape == (3, 37)
            assert np.array_equal(a[:, k], want[:, k])
            out[:, k + 1] = a[:, k] * 2.0
            out3[:, k] = b[:, k] + 1
        assert np.array_equal(out[:, 1:], want[:, :-1] * 2.0) and np.isnan(out[:, 0]).all()
        assert np.array_equal(out3, b + 1)
        assert _rows_are_contiguous(out) and _rows_are_contiguous(out3)

    @pytest.mark.parametrize("n_steps", STEP_COUNTS)
    def test_simulate_state_and_costs_match_the_per_column_loops(self, spec, n_steps):
        grid = _step_grid(n_steps)
        policy = FeedbackPolicy(lambda t, x, pi: -0.5 * x + t)
        controls = np.sin(np.arange(40 * n_steps, dtype=np.float64)).reshape(40, n_steps)
        for kwargs in ({"policy": policy}, {"controls": controls}):
            bundle = simulate_state(spec, grid, 40, 3, **kwargs)
            states, used = _simulate_state_per_column(spec, grid, 40, 3, **kwargs)
            assert np.array_equal(bundle.states, states) and np.array_equal(bundle.controls, used)
            assert _rows_are_contiguous(bundle.states) and _rows_are_contiguous(bundle.controls)
            labels = np.arange(1, spec.n_regimes + 1)
            assert np.array_equal(cost_from_paths(spec, bundle), _cost_per_column(
                spec, grid, states, used, bundle.regimes[..., None] == labels))
        cp = coupled_forward(spec, grid, 40, 3, policy=FeedbackPolicy(lambda t, x, pi: pi - x))
        states, probs, used = cp.bundle.states, cp.filter_path.probs, cp.bundle.controls
        assert np.array_equal(transformed_cost_paths(spec, grid, states, probs, used),
                              _cost_per_column(spec, grid, states, used, probs))

    @pytest.mark.parametrize("step", [8, 21])
    def test_mid_block_failures_raise_the_per_column_errors(self, spec, step):
        grid = _step_grid(35)
        dW = np.zeros((6, grid.n_steps))
        dW[4, step] = 1e12
        controls = np.ones((6, grid.n_steps))
        controls[2, step] = np.nan
        for kwargs, error in (({"dW": dW}, NumericalError),
                              ({"controls": controls}, DomainError)):
            with pytest.raises(error) as want:
                _simulate_state_per_column(spec, grid, 6, 0, **kwargs)
            with pytest.raises(error) as got:
                simulate_state(spec, grid, 6, 0, **kwargs)
            assert str(got.value) == str(want.value)
            assert f"t={grid.times[step + (error is NumericalError)]:.4g}" in str(got.value)
