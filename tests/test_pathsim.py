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
from hybridmp.model import eval_sigma
from hybridmp.pathsim import (
    BLOWUP_LIMIT,
    STAGE_STEPS,
    TAG_CHAIN,
    TAG_NOISE,
    control_at,
    draw_drivers,
    draw_normals,
    draw_uniforms,
    drift_table,
    euler_step,
    path_rng,
    staged_steps,
)
from hybridmp.wonham import coupled_forward, transformed_cost_paths

# Step counts around the staging block: one step, a block less or more
# one step, a whole block, and two blocks and a part.
STAGED_N = [1, STAGE_STEPS - 1, STAGE_STEPS, STAGE_STEPS + 1, 2 * STAGE_STEPS + 3]


@pytest.fixture(scope="module")
def bm_spec():
    """Driftless unit-volatility state with an inert chain."""
    return LQSpec(a=(0.0, 0.0), b=(0.0, 0.0), sigma=1.0, Q=(0.0, 0.0),
                  R=(1.0, 1.0), G=(1.0, 1.0), lambda1=1.0, lambda2=1.0,
                  horizon=1.0, x0=0.0, pi0=0.5).to_problem_spec()


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
        g = GeneratorSpec.two_state(100.0, 100.0)
        with pytest.raises(ConfigError):
            simulate_chain(g, TimeGrid(1.0, 50), 10, 0, pi0=(1.0, 0.0))

    def test_shapes_and_values(self):
        g = GeneratorSpec.two_state(1.0, 2.0)
        alpha = simulate_chain(g, TimeGrid(1.0, 50), 32, 0, pi0=(0.0, 1.0))
        assert alpha.shape == (32, 51)
        assert set(np.unique(alpha)) <= {1, 2}
        assert np.all(alpha[:, 0] == 2)

    def test_deterministic_in_seed_and_offset(self):
        g = GeneratorSpec.two_state(1.0, 2.0)
        grid = TimeGrid(1.0, 50)
        whole = simulate_chain(g, grid, 8, 7, pi0=(0.3, 0.7))
        head = simulate_chain(g, grid, 4, 7, pi0=(0.3, 0.7))
        tail = simulate_chain(g, grid, 4, 7, pi0=(0.3, 0.7), path_offset=4)
        assert np.array_equal(whole, np.vstack([head, tail]))

    def test_mean_holding_time(self):
        # state 1 exits at rate 2 and state 2 is absorbing, so the exit
        # time is Exp(2); grid censoring adds ~dt/2
        g = GeneratorSpec.two_state(2.0, 0.0)
        grid = TimeGrid(4.0, 2000)
        alpha = simulate_chain(g, grid, 10_000, 11, pi0=(1.0, 0.0))
        exit_steps = np.argmax(alpha == 2, axis=1)
        exit_steps[exit_steps == 0] = grid.n_steps
        holding = exit_steps * grid.dt
        se = holding.std(ddof=1) / math.sqrt(len(holding))
        assert abs(holding.mean() - 0.5) <= 3.0 * se + grid.dt

    def test_occupation_probability_closed_form(self):
        # P(state 1 at t=1 | start in 1) = 0.5 + 0.5 e^{-2} for unit rates
        g = GeneratorSpec.two_state(1.0, 1.0)
        grid = TimeGrid(1.0, 50)
        alpha = simulate_chain(g, grid, 20_000, 5, pi0=(1.0, 0.0))
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

    def test_blow_up_guard(self):
        wild = LQSpec(a=(40.0, 40.0), b=(0.0, 0.0), sigma=1.0, Q=(0.0, 0.0),
                      R=(1.0, 1.0), G=(1.0, 1.0), lambda1=0.0, lambda2=0.0,
                      horizon=10.0, x0=1e7, pi0=1.0).to_problem_spec()
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
        spec = lq.to_problem_spec()
        grid = TimeGrid(1.0, 4)
        bundle = simulate_state(spec, grid, 2, 0, policy=zero_policy())
        cost = cost_from_paths(spec, bundle)
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


def _chain_by_fresh_streams(generator, grid, n_paths, seed, alpha0=None, pi0=None,
                            path_offset=0):
    """The chain loop before the successor table: a fresh generator per
    path, then one fancy-indexed cdf row per path and step, and a copy of
    the labels for the +1."""
    cdf = np.cumsum(generator.transition_matrix(grid.dt), axis=1)
    u = np.stack([path_rng(seed, i, TAG_CHAIN).random(grid.n_steps + 1)
                  for i in range(path_offset, path_offset + n_paths)])
    alpha = np.empty((n_paths, grid.n_steps + 1), dtype=np.int64)
    if alpha0 is not None:
        alpha[:, 0] = alpha0 - 1
    else:
        alpha[:, 0] = np.searchsorted(np.cumsum(pi0), u[:, 0], side="right")
        np.clip(alpha[:, 0], 0, generator.n_states - 1, out=alpha[:, 0])
    for k in range(grid.n_steps):
        row_cdf = cdf[alpha[:, k]]
        nxt = (u[:, k + 1, None] >= row_cdf).sum(axis=1)
        alpha[:, k + 1] = np.minimum(nxt, generator.n_states - 1)
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
        GeneratorSpec.two_state(1.0, 2.0),
        GeneratorSpec(((-1.5, 1.0, 0.5), (0.3, -0.8, 0.5), (2.0, 0.0, -2.0))),
    ], ids=["two-state", "three-state"])
    def test_chain_matches_the_per_step_loop(self, generator):
        grid = TimeGrid(1.0, 100)
        d = generator.n_states
        pi0 = np.full(d, 1.0 / d)
        last = np.eye(d)[d - 1]  # the start in regime d, as the reference's alpha0=d
        for kwargs, ref in (({"pi0": last}, {"alpha0": d}), ({"pi0": pi0}, None),
                            ({"pi0": pi0, "path_offset": 17}, None)):
            got = simulate_chain(generator, grid, 300, 11, **kwargs)
            want = _chain_by_fresh_streams(generator, grid, 300, 11, **(ref or kwargs))
            assert got.dtype == np.int64 and got.flags.c_contiguous
            assert np.array_equal(got, want)
            assert set(np.unique(got)) == set(range(1, d + 1))

    @pytest.mark.parametrize("rates", [(1.0, 2.0), (2.0, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("seed", [0, 5, 11, 2**63])
    def test_vertex_pi0_is_a_known_start(self, rates, seed):
        # the chain of a fixed start regime, drawn from a vertex of pi0
        g = GeneratorSpec.two_state(*rates)
        grid = TimeGrid(1.0, 200)
        for alpha0, vertex in ((1, (1.0, 0.0)), (2, (0.0, 1.0))):
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
    """simulate_state's loop before staging: a strided column of each
    history array per step."""
    alpha, dW = draw_drivers(spec, grid, n_paths, seed, dW=dW)
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
        b = drift_table(spec, t, x, u)[alpha[:, k] - 1, rows]
        x = euler_step(x, b, eval_sigma(spec, t, x, u), dW[:, k], grid.dt, times[k + 1])
        states[:, k + 1] = x
    return states, used


def _cost_per_column(spec, grid, states, controls, weights):
    """_cost_quadrature's loop before staging."""
    total = np.zeros(states.shape[0])
    for k in range(grid.n_steps):
        for i in range(1, spec.n_regimes + 1):
            f = spec.running_cost(grid.times[k], states[:, k], i, controls[:, k])
            total += grid.dt * weights[:, k, i - 1] * np.asarray(f, dtype=np.float64)
    for i in range(1, spec.n_regimes + 1):
        g = spec.terminal_cost(states[:, -1], i)
        total += weights[:, -1, i - 1] * np.asarray(g, dtype=np.float64)
    return total


def _staged_grid(n_steps):
    return TimeGrid(0.01 * n_steps, n_steps)  # dt = 0.01 keeps the chain check quiet


class TestStagedSteps:
    """The step loops read and write time-major blocks; every output is the
    per-column loop's, bit for bit."""

    @pytest.fixture(autouse=True, params=[16, pathsim.STAGE_ROWS], ids=["rows16", "rows-default"])
    def stage_rows(self, request, monkeypatch):
        # 16 rows per read copy splits every ensemble here into several copies
        monkeypatch.setattr(pathsim, "STAGE_ROWS", request.param)

    @pytest.mark.parametrize("n_steps", STAGED_N)
    def test_rows_are_the_columns_and_writes_land(self, n_steps):
        rng = np.random.default_rng(n_steps)
        a = rng.normal(size=(37, n_steps + 1))
        b = rng.integers(0, 9, size=(37, n_steps, 3))
        out = np.full((37, n_steps + 1), np.nan)
        out3 = np.zeros((37, n_steps, 3), dtype=np.int64)
        seen = []
        for k, ra, rb, rn, wo, wn, w3 in staged_steps(n_steps, (a, b, None),
                                                       (out[:, 1:], None, out3)):
            assert ra.flags.c_contiguous and rb.flags.c_contiguous and w3.flags.c_contiguous
            assert rb.shape == (3, 37) and w3.shape == (3, 37) and rn is None and wn is None
            assert np.array_equal(ra, a[:, k]) and np.array_equal(rb, b[:, k].T)
            wo[...] = ra * 2.0
            w3[...] = rb + 1
            seen.append(k)
        assert seen == list(range(n_steps))
        assert np.array_equal(out[:, 1:], a[:, :-1] * 2.0) and np.isnan(out[:, 0]).all()
        assert np.array_equal(out3, b + 1)

    @pytest.mark.parametrize("n_steps", STAGED_N)
    def test_simulate_state_and_costs_match_the_per_column_loops(self, spec, n_steps):
        grid = _staged_grid(n_steps)
        policy = FeedbackPolicy(lambda t, x, pi: -0.5 * x + t)
        controls = np.sin(np.arange(40 * n_steps, dtype=np.float64)).reshape(40, n_steps)
        for kwargs in ({"policy": policy}, {"controls": controls}):
            bundle = simulate_state(spec, grid, 40, 3, **kwargs)
            states, used = _simulate_state_per_column(spec, grid, 40, 3, **kwargs)
            assert np.array_equal(bundle.states, states) and np.array_equal(bundle.controls, used)
            assert bundle.states.flags.c_contiguous and bundle.controls.flags.c_contiguous
            labels = np.arange(1, spec.n_regimes + 1)
            assert np.array_equal(cost_from_paths(spec, bundle), _cost_per_column(
                spec, grid, states, used, bundle.regimes[..., None] == labels))
        cp = coupled_forward(spec, grid, 40, 3, policy=FeedbackPolicy(lambda t, x, pi: pi - x))
        states, probs, used = cp.bundle.states, cp.filter_path.probs, cp.bundle.controls
        assert np.array_equal(transformed_cost_paths(spec, grid, states, probs, used),
                              _cost_per_column(spec, grid, states, used, probs))

    @pytest.mark.parametrize("step", [STAGE_STEPS // 2, STAGE_STEPS + 5])
    def test_mid_block_failures_raise_the_per_column_errors(self, spec, step):
        grid = _staged_grid(2 * STAGE_STEPS + 3)
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
