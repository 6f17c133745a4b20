from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hybridmp import (
    ConfigError,
    DomainError,
    FeedbackPolicy,
    LQSpec,
    NumericalError,
    TimeGrid,
    cost_from_paths,
    simulate_state,
    zero_policy,
)
from hybridmp import pathsim
from hybridmp import wonham as wonham_mod
from hybridmp.model import drift_table
from hybridmp.pathsim import (
    TAG_INNOVATION,
    TAG_NOISE,
    control_at,
    draw_drivers,
    euler_step,
    path_rng,
)
from hybridmp.wonham import (
    BREAKDOWN_TOL,
    EXCURSION_TOL,
    FilterPath,
    _project_simplex,
    _wonham_step,
    coupled_forward,
    discrete_bayes_oracle,
    innovation_forward,
    run_normalized_filter,
    run_zakai_filter,
    transformed_cost,
    transformed_cost_paths,
)


@pytest.fixture(scope="module")
def coupled(spec):
    grid = TimeGrid(1.0, 400)
    return grid, coupled_forward(spec, grid, 256, 7, policy=zero_policy())


class TestNormalizedFilter:
    def test_simplex_preserved_exactly(self, coupled):
        _, cp = coupled
        probs = cp.filter_path.probs
        assert np.all(probs >= 0.0)
        assert np.all(probs <= 1.0)
        assert np.max(np.abs(probs.sum(axis=2) - 1.0)) <= 1e-12

    def test_reruns_match_coupled_output(self, spec, coupled):
        grid, cp = coupled
        dY = np.diff(cp.bundle.states, axis=1) / spec.lq.sigma
        again = run_normalized_filter(spec, grid, cp.bundle.states,
                                      cp.bundle.controls, dY=dY)
        assert np.array_equal(again.probs, cp.filter_path.probs)
        assert np.array_equal(again.nu_increments,
                              cp.filter_path.nu_increments)

    def test_innovation_identity(self, spec, coupled):
        # dX_k = (sum_i pi_i b_i) dt + sigma dnu_k holds exactly per step
        grid, cp = coupled
        states = cp.bundle.states
        probs = cp.filter_path.probs
        dnu = cp.filter_path.nu_increments
        resid = 0.0
        for k in range(grid.n_steps):
            x = states[:, k]
            u = cp.bundle.controls[:, k]
            b = np.stack([a_i * x + b_i * u for a_i, b_i in zip(spec.lq.a, spec.lq.b)], axis=1)
            bbar = np.sum(probs[:, k] * b, axis=1)
            sig = spec.lq.sigma
            dx = states[:, k + 1] - x
            resid = max(resid, np.max(np.abs(
                dx - bbar * grid.dt - sig * dnu[:, k])))
        assert resid <= 1e-10

    def test_no_information_reduces_to_prior_ode(self):
        # equal drift per regime: the gain vanishes and pi follows
        # 0.5 + 0.5 exp(-2 t) regardless of the observation path
        ni = LQSpec(a=(0.4, 0.4), b=(1.0, 1.0), sigma=0.3, Q=(1.0, 1.0),
                    R=(1.0, 1.0), G=(1.0, 1.0), lambda1=1.0, lambda2=1.0,
                    horizon=1.0, x0=1.0, pi0=1.0).to_problem_spec()
        grid = TimeGrid(1.0, 1000)
        cp = coupled_forward(ni, grid, 64, 3, policy=zero_policy())
        pi_half = cp.filter_path.probs[:, grid.n_steps // 2, 0]
        target = 0.5 + 0.5 * math.exp(-1.0)
        assert np.max(np.abs(pi_half - target)) <= 10.0 * grid.dt

    def test_innovation_qv_tracks_horizon(self, coupled):
        grid, cp = coupled
        qv = cp.filter_path.innovation_qv()
        assert abs(qv.mean() - grid.horizon) / grid.horizon <= 0.05

    def test_diagnostics_keys(self, coupled):
        _, cp = coupled
        fp = cp.filter_path
        d = {"clamp_count": int(fp.clamp_events), "max_excursion": float(fp.max_excursion),
             "qv_of_innovation": float(np.mean(fp.innovation_qv()))}
        assert set(d) == {"clamp_count", "max_excursion", "qv_of_innovation"}
        assert d["clamp_count"] >= 0
        assert d["max_excursion"] >= 0.0

    def test_breakdown_raises_instead_of_clamping(self, spec):
        grid = TimeGrid(1.0, 50)
        states = np.ones((4, grid.n_steps + 1))
        controls = np.zeros((4, grid.n_steps))
        dY = np.full((4, grid.n_steps), 5.0)
        with pytest.raises(NumericalError):
            run_normalized_filter(spec, grid, states, controls, dY=dY)

    def test_clamp_events_counted_under_stress(self, spec):
        # observation stream hot enough to push the raw update out of
        # the simplex but below the breakdown threshold
        grid = TimeGrid(1.0, 200)
        rng = np.random.default_rng(0)
        states = np.ones((16, grid.n_steps + 1))
        controls = np.zeros((16, grid.n_steps))
        dY = rng.normal(0.0, 4.0 * math.sqrt(grid.dt),
                        (16, grid.n_steps))
        fp = run_normalized_filter(spec, grid, states, controls, dY=dY,
                                   breakdown_tol=10.0)
        assert fp.clamp_events > 0
        assert fp.max_excursion > 0.0
        assert np.all(fp.probs >= 0.0) and np.all(fp.probs <= 1.0)

    def test_rejects_mismatched_nodes(self, spec):
        grid = TimeGrid(1.0, 50)
        with pytest.raises(ConfigError):
            run_normalized_filter(spec, grid, np.ones((4, 17)),
                                  np.zeros((4, 16)))

    @settings(max_examples=25, deadline=None)
    @given(dY=hnp.arrays(np.float64, (3, 40),
                         elements=st.floats(-0.3, 0.3)))
    def test_simplex_invariant_under_arbitrary_observations(self, dY):
        lq = LQSpec(a=(0.5, -0.5), b=(1.0, 0.5), sigma=0.3, Q=(1.0, 2.0),
                    R=(1.0, 2.0), G=(1.0, 1.0), lambda1=1.0, lambda2=1.0,
                    horizon=1.0, x0=1.0, pi0=0.5)
        spec = lq.to_problem_spec()
        grid = TimeGrid(1.0, 40)
        states = np.ones((3, grid.n_steps + 1))
        controls = np.zeros((3, grid.n_steps))
        fp = run_normalized_filter(spec, grid, states, controls, dY=dY,
                                   breakdown_tol=np.inf)
        assert np.all(fp.probs >= 0.0)
        assert np.all(fp.probs <= 1.0)
        assert np.max(np.abs(fp.probs.sum(axis=2) - 1.0)) <= 1e-9


class TestReplayShapes:
    @pytest.mark.parametrize("n_nodes, n_controls, wrong", [
        (100, 100, "states"), (102, 100, "states"), (101, 99, "controls"),
    ], ids=["states-N-nodes", "states-N+2-nodes", "controls-N-1-steps"])
    @pytest.mark.parametrize("replay", [
        run_normalized_filter, run_zakai_filter, discrete_bayes_oracle,
    ], ids=lambda fn: fn.__name__)
    def test_wrong_shape_raises_config_error(self, spec, replay, n_nodes,
                                             n_controls, wrong):
        grid = TimeGrid(1.0, 100)
        with pytest.raises(ConfigError, match=wrong):
            replay(spec, grid, np.ones((4, n_nodes)), np.zeros((4, n_controls)))

    @pytest.mark.parametrize("replay", [run_normalized_filter, run_zakai_filter],
                             ids=lambda fn: fn.__name__)
    def test_wrong_observation_shape_raises_config_error(self, spec, replay):
        grid = TimeGrid(1.0, 100)
        with pytest.raises(ConfigError, match="dY"):
            replay(spec, grid, np.ones((4, 101)), np.zeros((4, 100)), dY=np.zeros((4, 99)))


class TestZakaiFilter:
    def test_normalization_matches_mass_ratio(self, spec, coupled):
        grid, cp = coupled
        dY = np.diff(cp.bundle.states, axis=1) / spec.lq.sigma
        zk = run_zakai_filter(spec, grid, cp.bundle.states,
                              cp.bundle.controls, dY=dY)
        assert zk.V is not None
        ratio = zk.V / zk.V.sum(axis=2, keepdims=True)
        assert np.max(np.abs(zk.probs - ratio)) <= 1e-14

    def test_gap_to_normalized_filter_is_discretization_sized(self, spec):
        grid = TimeGrid(1.0, 500)
        cp = coupled_forward(spec, grid, 64, 5, policy=zero_policy())
        dY = np.diff(cp.bundle.states, axis=1) / spec.lq.sigma
        zk = run_zakai_filter(spec, grid, cp.bundle.states,
                              cp.bundle.controls, dY=dY)
        gap = np.max(np.abs(zk.probs[:, :, 0] - cp.filter_path.probs[..., 0]))
        assert gap <= 100.0 * grid.dt

    def test_mass_stays_positive(self, spec, coupled):
        grid, cp = coupled
        zk = run_zakai_filter(spec, grid, cp.bundle.states,
                              cp.bundle.controls)
        assert np.all(zk.V.sum(axis=2) > 0.0)

    @pytest.mark.parametrize("dY0, regime, value", [(1.0, 2, "-0.3333"), (np.nan, 1, "nan")],
                             ids=["negative", "nan"])
    def test_bad_mass_component_raises(self, spec, dY0, regime, value):
        # h = a x / sigma = (5/3, -5/3), so one step gives V = 0.5 (1 + h) = (1.333,
        # -0.333): the total stays positive and only the component check sees it
        grid = TimeGrid(1.0, 10)
        dY = np.zeros((4, grid.n_steps))
        dY[:, 0] = dY0
        with pytest.raises(NumericalError, match=f"regime {regime} is {value} at t=0.1"):
            run_zakai_filter(spec, grid, np.ones((4, 11)), np.zeros((4, 10)), dY=dY)

    def test_zero_mass_component_is_legal(self):
        # a frozen chain started at a vertex keeps the other mass at exactly 0
        frozen = LQSpec(a=(0.5, -0.5), b=(1.0, 0.5), sigma=0.3, Q=(1.0, 1.0),
                        R=(1.0, 2.0), G=(1.0, 1.0), lambda1=0.0, lambda2=0.0,
                        horizon=1.0, x0=1.0, pi0=1.0).to_problem_spec()
        grid = TimeGrid(1.0, 50)
        cp = coupled_forward(frozen, grid, 8, 3)
        zk = run_zakai_filter(frozen, grid, cp.bundle.states, cp.bundle.controls)
        assert np.all(zk.V[..., 1] == 0.0)
        assert np.all(zk.probs[..., 0] == 1.0)


class TestOracle:
    def test_requires_fine_grid(self, spec):
        grid = TimeGrid(1.0, 20)
        with pytest.raises(ConfigError):
            discrete_bayes_oracle(spec, grid, np.ones((2, 21)),
                                  np.zeros((2, 20)))

    def test_rows_are_distributions(self, spec, coupled):
        grid, cp = coupled
        oracle = discrete_bayes_oracle(spec, grid, cp.bundle.states,
                                       cp.bundle.controls)
        assert oracle.shape == cp.filter_path.probs.shape
        assert np.all(oracle >= 0.0)
        assert np.max(np.abs(oracle.sum(axis=2) - 1.0)) <= 1e-9

    def test_filter_approaches_oracle_on_fine_grids(self, spec):
        grid = TimeGrid(1.0, 1000)
        cp = coupled_forward(spec, grid, 32, 9, policy=zero_policy())
        oracle = discrete_bayes_oracle(spec, grid, cp.bundle.states,
                                       cp.bundle.controls)
        rmse = float(np.sqrt(np.mean(
            (cp.filter_path.probs[..., 0] - oracle[:, :, 0]) ** 2)))
        assert rmse <= 0.05


class TestTransformedCost:
    def test_paired_with_realized_regime_cost(self, spec):
        # tower property: regime-averaged running/terminal cost agrees
        # with the realized-regime cost in the mean
        policy = FeedbackPolicy(lambda t, x, pi: -0.5 * x * pi)
        grid = TimeGrid(1.0, 400)
        cp = coupled_forward(spec, grid, 2000, 7, policy=policy)
        realized = cost_from_paths(spec, cp.bundle)
        averaged = transformed_cost_paths(spec, grid, cp.bundle.states,
                                          cp.filter_path.probs,
                                          cp.bundle.controls)
        diff = realized - averaged
        se = diff.std(ddof=1) / math.sqrt(len(diff))
        assert abs(diff.mean()) <= 3.0 * se

    def test_realized_cost_matches_the_regime_masked_loop(self, lq, spec):
        # Reference: each regime's cost added on the paths in that regime.
        policy = FeedbackPolicy(lambda t, x, pi: -0.5 * x * pi)
        grid = TimeGrid(1.0, 100)
        bundle = coupled_forward(spec, grid, 300, 5, policy=policy).bundle
        want = np.zeros(bundle.n_paths)
        for k in range(grid.n_steps + 1):
            for i in (1, 2):
                mask = bundle.regimes[:, k] == i
                x = bundle.states[mask, k]
                if k < grid.n_steps:
                    u = bundle.controls[mask, k]
                    want[mask] += grid.dt * (0.5 * (lq.Q[i - 1] * x**2 + lq.R[i - 1] * u**2))
                else:
                    want[mask] += 0.5 * lq.G[i - 1] * x**2
        assert np.array_equal(cost_from_paths(spec, bundle), want)

    def test_estimate_wraps_paths(self, spec, coupled):
        grid, cp = coupled
        est = transformed_cost(spec, grid, cp.bundle.states,
                               cp.filter_path.probs, cp.bundle.controls)
        values = transformed_cost_paths(spec, grid, cp.bundle.states,
                                        cp.filter_path.probs,
                                        cp.bundle.controls)
        assert est.mean == pytest.approx(values.mean())
        assert est.n_paths == len(values)


class TestInnovationForward:
    def test_state_recursion_uses_filter_drift(self, spec):
        grid = TimeGrid(1.0, 200)
        ip = innovation_forward(spec, grid, 64, 11, policy=zero_policy())
        resid = 0.0
        for k in range(grid.n_steps):
            x = ip.states[:, k]
            u = ip.controls[:, k]
            b = np.stack([a_i * x + b_i * u for a_i, b_i in zip(spec.lq.a, spec.lq.b)], axis=1)
            bbar = np.sum(ip.probs[:, k] * b, axis=1)
            sig = spec.lq.sigma
            dx = ip.states[:, k + 1] - x
            resid = max(resid, np.max(np.abs(
                dx - bbar * grid.dt - sig * ip.dnu[:, k])))
        assert resid <= 1e-12

    def test_replay_with_same_increments_is_identity(self, spec):
        grid = TimeGrid(1.0, 100)
        ip = innovation_forward(spec, grid, 32, 13, policy=zero_policy())
        replay = innovation_forward(spec, grid, 32, 13,
                                    controls=ip.controls, dnu=ip.dnu)
        assert np.allclose(replay.states, ip.states, atol=1e-12)
        assert np.allclose(replay.probs, ip.probs, atol=1e-12)

    def test_probs_live_on_simplex(self, spec):
        grid = TimeGrid(1.0, 200)
        ip = innovation_forward(spec, grid, 128, 17, policy=zero_policy())
        assert np.all(ip.probs >= 0.0)
        assert np.all(ip.probs <= 1.0)
        assert np.max(np.abs(ip.probs.sum(axis=2) - 1.0)) <= 1e-9


class TestForwardKernel:
    def test_simulate_state_matches_coupled_states(self, spec):
        # both passes share the drivers and the Euler step
        grid = TimeGrid(1.0, 200)
        bundle = simulate_state(spec, grid, 64, 19, policy=zero_policy())
        cp = coupled_forward(spec, grid, 64, 19)
        assert np.array_equal(bundle.states, cp.bundle.states)

    def test_nan_policy_raises_domain_error(self, spec):
        policy = FeedbackPolicy(lambda t, x, pi: np.full_like(x, np.nan),
                                name="nan-policy")
        with pytest.raises(DomainError, match="nan-policy"):
            coupled_forward(spec, TimeGrid(1.0, 50), 8, 1, policy=policy)

    def test_override_shapes_checked(self, spec):
        grid = TimeGrid(1.0, 50)
        with pytest.raises(ConfigError):
            coupled_forward(spec, grid, 8, 1, dW=np.zeros((8, grid.n_steps - 1)))
        with pytest.raises(ConfigError):
            coupled_forward(spec, grid, 8, 1,
                            alpha=np.ones((4, grid.n_steps + 1), dtype=np.int64))

    def test_innovation_clamp_events_counted_under_stress(self, spec):
        # innovation hot enough to push the raw update out of the simplex
        # but below the breakdown threshold
        grid = TimeGrid(1.0, 200)
        rng = np.random.default_rng(0)
        dnu = rng.normal(0.0, 2.0 * math.sqrt(grid.dt), (16, grid.n_steps))
        ip = innovation_forward(spec, grid, 16, 0, dnu=dnu)
        assert ip.clamp_events > 0
        assert ip.max_excursion > 0.0
        assert np.all(ip.probs >= 0.0) and np.all(ip.probs <= 1.0)


def _project_path_major(p, excursion_tol, breakdown_tol):
    """The projection before the regime-major state, on p (n_paths, d)."""
    low, high = float(p.min()), float(p.max())
    excursion = max(0.0 - low if low < 0 else 0.0, high - 1.0 if high > 1.0 else 0.0)
    if not np.isfinite(p).all() or low < -breakdown_tol or high > 1.0 + breakdown_tol:
        raise NumericalError("left")
    events = int(np.any((p < -excursion_tol) | (p > 1.0 + excursion_tol), axis=-1).sum())
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise NumericalError("collapsed")
    return p / total, events, excursion


def _normalized_filter_path_major(spec, grid, states, controls):
    """run_normalized_filter's recursion before the regime-major state:
    p (n_paths, d), p @ Q, and sums over the last axis."""
    Q = spec.generator.matrix
    dt = grid.dt
    p = np.tile(np.asarray(spec.pi0, dtype=np.float64), (states.shape[0], 1))
    probs = [p]
    for k in range(grid.n_steps):
        x, u, sig = states[:, k], controls[:, k], spec.lq.sigma
        h = np.stack([a_i * x + b_i * u for a_i, b_i in zip(spec.lq.a, spec.lq.b)], axis=1) / sig
        hbar = np.sum(p * h, axis=1)
        dnu = (states[:, k + 1] - x) / sig - hbar * dt
        p = p + (p @ Q) * dt + p * (h - hbar[:, None]) * dnu[:, None]
        p, _, _ = _project_path_major(p, EXCURSION_TOL, BREAKDOWN_TOL)
        probs.append(p)
    return np.stack(probs, axis=1)


class TestRegimeMajorState:
    """The filters keep p as (d, n_paths); every result is the path-major
    recursion's, bit for bit."""

    def test_normalized_filter_matches_the_path_major_recursion(self, spec, coupled):
        grid, cp = coupled
        states, controls = cp.bundle.states, cp.bundle.controls
        want = _normalized_filter_path_major(spec, grid, states, controls)
        got = run_normalized_filter(spec, grid, states, controls).probs
        assert got.shape == want.shape and _rows_are_contiguous(got)
        assert np.array_equal(got, want)
        assert np.array_equal(cp.filter_path.probs, want)

    @pytest.mark.parametrize("route", ["coupled", "replayed"])
    def test_step_writes_none_of_its_arguments(self, spec, coupled, monkeypatch, route):
        # the step accumulates its update in arrays of its own, so p, h,
        # hbar and dnu are as the caller passed them after every step
        grid, cp = coupled
        checked = []

        def guarded(p, h, hbar, dnu, *rest):
            before = [a.copy() for a in (p, h, hbar, dnu)]
            result = _wonham_step(p, h, hbar, dnu, *rest)
            for name, a, b in zip(("p", "h", "hbar", "dnu"), (p, h, hbar, dnu), before):
                assert np.array_equal(a, b), name
            assert not any(np.shares_memory(result[0], a) for a in (p, h, hbar, dnu))
            checked.append(True)
            return result

        monkeypatch.setattr(wonham_mod, "_wonham_step", guarded)
        if route == "coupled":
            got = coupled_forward(spec, grid, 256, 7, policy=zero_policy()).filter_path.probs
        else:
            got = run_normalized_filter(spec, grid, cp.bundle.states,
                                        cp.bundle.controls).probs
        assert len(checked) == grid.n_steps
        assert np.array_equal(got, cp.filter_path.probs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0 + 2 * BREAKDOWN_TOL,
                                     -2 * BREAKDOWN_TOL])
    def test_projection_raises_on_breakdown(self, bad):
        p = np.full((2, 5), 0.5)
        p[1, 3] = bad
        with pytest.raises(NumericalError, match="filter state left"):
            _project_simplex(p, EXCURSION_TOL, BREAKDOWN_TOL)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_projection_raises_on_non_finite_without_a_breakdown_bound(self, bad):
        p = np.full((2, 5), 0.5)
        p[0, 0] = bad
        with pytest.raises(NumericalError, match="filter state left"):
            _project_simplex(p, EXCURSION_TOL, np.inf)

    def test_projection_raises_on_zero_mass(self):
        p = np.full((2, 4), 0.5)
        p[:, 2] = [-0.1, 0.0]
        with pytest.raises(NumericalError, match="zero mass"):
            _project_simplex(p, EXCURSION_TOL, BREAKDOWN_TOL)

    @given(p=hnp.arrays(np.float64, st.tuples(st.integers(2, 3), st.integers(1, 12)),
                        elements=st.floats(-0.45, 1.45) | st.sampled_from(
                            [0.0, 1.0, -EXCURSION_TOL, 1.0 + EXCURSION_TOL,
                             -2 * EXCURSION_TOL, 1.0 + 2 * EXCURSION_TOL])))
    def test_clamp_counts_and_excursion_match_the_path_major_expressions(self, p):
        try:
            want = _project_path_major(p.T.copy(), EXCURSION_TOL, BREAKDOWN_TOL)
        except NumericalError:
            with pytest.raises(NumericalError):
                _project_simplex(p.copy(), EXCURSION_TOL, BREAKDOWN_TOL)
            return
        got = p.copy()
        events, excursion = _project_simplex(got, EXCURSION_TOL, BREAKDOWN_TOL)
        assert (events, excursion) == want[1:]
        assert np.array_equal(got.T, want[0])


def _rows_are_contiguous(a) -> bool:
    """Each step's row ``a[:, k]`` of a (n_paths, steps, ...) history is
    contiguous, with the path axis last in memory."""
    return all(np.moveaxis(a[:, k], 0, -1).flags.c_contiguous for k in range(a.shape[1]))


def _observer_pass_per_column(spec, grid, policy, controls, noise, alpha=None):
    """_observer_pass's loop on path-major histories: strided columns, read
    and written once per step.  Returns (states, probs, controls, dnu,
    clamp events, worst excursion)."""
    n_paths = noise.shape[0]
    dt, times, Q = grid.dt, grid.times, spec.generator.matrix
    rows = np.arange(n_paths)
    x = np.full(n_paths, spec.x0)
    p = np.repeat(np.asarray(spec.pi0, dtype=np.float64)[:, None], n_paths, axis=1)
    states = np.empty((n_paths, grid.n_steps + 1))
    probs = np.empty((n_paths, grid.n_steps + 1, spec.n_regimes))
    used = np.empty((n_paths, grid.n_steps))
    dnu = noise if alpha is None else np.empty((n_paths, grid.n_steps))
    states[:, 0] = x
    probs[:, 0] = p.T
    events, worst = 0, 0.0
    for k in range(grid.n_steps):
        t = times[k]
        u = used[:, k] = control_at(spec, t, x, p[0], policy,
                                    None if controls is None else controls[:, k])
        sig = spec.lq.sigma
        table = drift_table(spec, x, u)
        h = table / sig
        hbar = np.sum(p * h, axis=0)
        b = hbar * sig if alpha is None else table[alpha[:, k] - 1, rows]
        dw = np.ascontiguousarray(noise[:, k])
        x_next = euler_step(x, b, sig, dw, dt, times[k + 1])
        if alpha is not None:
            dw = dnu[:, k] = (x_next - x) / sig - hbar * dt
        p, e, w = _wonham_step(p, h, hbar, dw, Q, dt)
        events += e
        worst = max(worst, w)
        x = states[:, k + 1] = x_next
        probs[:, k + 1] = p.T
    return states, probs, used, dnu, events, worst


def _step_grid(n_steps):
    return TimeGrid(0.01 * n_steps, n_steps)  # dt = 0.01 keeps the chain check quiet


def _normals_by_fresh_streams(seed, grid, n_paths, tag, path_offset=0):
    """Increments drawn path by path, each from a fresh stream."""
    return np.sqrt(grid.dt) * np.stack([path_rng(seed, i, tag).standard_normal(grid.n_steps)
                                        for i in range(path_offset, path_offset + n_paths)])


class TestStagedObserverPass:
    """The coupled and innovation passes read and write each step's row of
    step-major histories, drawn through buffers of ``DRAW_ROWS`` paths;
    every output is the per-column loop's, bit for bit."""

    @pytest.fixture(autouse=True, params=[16, pathsim.DRAW_ROWS], ids=["rows16", "rows-default"])
    def draw_rows(self, request, monkeypatch):
        # 16 paths per draw buffer splits every ensemble here into several copies
        monkeypatch.setattr(pathsim, "DRAW_ROWS", request.param)

    @staticmethod
    def _assert_same(got, want, written=4):
        # the first ``written`` arrays are histories the pass stored itself,
        # step-major; a given noise is kept as given
        for i, (a, b) in enumerate(zip(got[:4], want[:4])):
            assert a.shape == b.shape and np.array_equal(a, b)
            assert i >= written or _rows_are_contiguous(a)
        assert got[4:] == want[4:]

    @pytest.mark.parametrize("n_steps", [1, 15, 16, 17, 35])
    def test_passes_match_the_per_column_loop(self, spec, n_steps):
        grid, n = _step_grid(n_steps), 48
        policy = FeedbackPolicy(lambda t, x, pi: -0.5 * x * pi + t)
        controls = np.cos(np.arange(n * n_steps, dtype=np.float64)).reshape(n, n_steps)
        for kwargs in ({"policy": policy}, {"controls": controls}, {}):
            cp = coupled_forward(spec, grid, n, 9, path_offset=3, **kwargs)
            alpha, _ = draw_drivers(spec, grid, n, 9, path_offset=3)
            dW = _normals_by_fresh_streams(9, grid, n, TAG_NOISE, 3)
            want = _observer_pass_per_column(spec, grid, kwargs.get("policy"),
                                             kwargs.get("controls"), dW, alpha)
            fp = cp.filter_path
            self._assert_same((cp.bundle.states, fp.probs, cp.bundle.controls,
                               fp.nu_increments, fp.clamp_events, fp.max_excursion), want)
            assert np.array_equal(cp.bundle.noise, dW) and np.array_equal(cp.bundle.regimes, alpha)

            ip = innovation_forward(spec, grid, n, 9, path_offset=3, **kwargs)
            drawn = _normals_by_fresh_streams(9, grid, n, TAG_INNOVATION, 3)
            want = _observer_pass_per_column(spec, grid, kwargs.get("policy"),
                                             kwargs.get("controls"), drawn)
            self._assert_same((ip.states, ip.probs, ip.controls, ip.dnu, ip.clamp_events,
                               ip.max_excursion), want)

        # hot innovation noise, so clamps are counted too; dnu is the override itself
        dnu = np.random.default_rng(n_steps).normal(0.0, 1.5 * math.sqrt(grid.dt), (n, n_steps))
        ip = innovation_forward(spec, grid, n, 9, policy=policy, dnu=dnu)
        assert ip.dnu is dnu
        self._assert_same((ip.states, ip.probs, ip.controls, ip.dnu, ip.clamp_events,
                           ip.max_excursion),
                          _observer_pass_per_column(spec, grid, policy, None, dnu), written=3)

    @pytest.mark.parametrize("step", [8, 21])
    def test_mid_block_failures_raise_the_per_column_errors(self, spec, step):
        grid, n = _step_grid(35), 6
        controls = np.zeros((n, grid.n_steps))
        controls[3, step] = np.nan
        blow_up = np.zeros((n, grid.n_steps))
        blow_up[1, step] = 1e12
        breakdown = np.zeros((n, grid.n_steps))
        breakdown[2, step] = 50.0
        alpha, dW = draw_drivers(spec, grid, n, 0)
        cases = [
            (NumericalError, "blow-up", lambda: innovation_forward(spec, grid, n, 0, dnu=blow_up),
             lambda: _observer_pass_per_column(spec, grid, None, None, blow_up)),
            (NumericalError, "filter state left",
             lambda: innovation_forward(spec, grid, n, 0, dnu=breakdown),
             lambda: _observer_pass_per_column(spec, grid, None, None, breakdown)),
            (DomainError, "explicit controls",
             lambda: coupled_forward(spec, grid, n, 0, controls=controls),
             lambda: _observer_pass_per_column(spec, grid, None, controls, dW, alpha)),
        ]
        for error, match, by_rows, per_column in cases:
            with pytest.raises(error, match=match) as want:
                per_column()
            with pytest.raises(error, match=match) as got:
                by_rows()
            assert str(got.value) == str(want.value)


class TestHistoryLayout:
    """Every forward pass stores its histories step-major, so that every
    step's row ``[:, k]`` is contiguous."""

    def test_innovation_histories_keep_their_shapes_with_contiguous_rows(self, spec):
        grid, n = TimeGrid(1.0, 30), 64
        given = np.random.default_rng(0).normal(0.0, math.sqrt(grid.dt), (n, grid.n_steps))
        for dnu in (None, given):
            ip = innovation_forward(spec, grid, n, 2, policy=zero_policy(), dnu=dnu)
            assert ip.states.shape == (n, 31) and ip.probs.shape == (n, 31, 2)
            assert ip.controls.shape == ip.dnu.shape == (n, 30)
            rows = [ip.states, ip.probs[..., 0], ip.probs[..., 1], ip.controls]
            if dnu is None:
                rows.append(ip.dnu)
            else:
                assert ip.dnu is given  # a given noise is kept as given
            for a in rows:
                assert all(a[:, k].flags.c_contiguous for k in range(a.shape[1]))

    def test_costs_do_not_depend_on_the_layout(self, spec):
        grid = TimeGrid(1.0, 40)
        ip = innovation_forward(spec, grid, 300, 4, policy=FeedbackPolicy(lambda t, x, pi: pi - x))
        copies = (ip.states.copy(), ip.probs.copy(), ip.controls.copy())
        assert all(a.flags.c_contiguous for a in copies)
        assert np.array_equal(transformed_cost_paths(spec, grid, ip.states, ip.probs, ip.controls),
                              transformed_cost_paths(spec, grid, *copies))

    def test_coupled_and_simulated_histories_have_contiguous_rows(self, spec):
        grid = TimeGrid(1.0, 30)
        cp = coupled_forward(spec, grid, 64, 2, policy=zero_policy())
        bundle = simulate_state(spec, grid, 64, 2)
        for a in (cp.bundle.states, cp.bundle.regimes, cp.bundle.controls, cp.bundle.noise,
                  cp.filter_path.probs, cp.filter_path.nu_increments,
                  bundle.states, bundle.regimes, bundle.controls, bundle.noise):
            assert _rows_are_contiguous(a)

    def test_replayed_histories_have_contiguous_rows(self, spec):
        grid = TimeGrid(0.3, 30)  # dt = 0.01, as the oracle needs
        cp = coupled_forward(spec, grid, 64, 2, policy=zero_policy())
        states, controls = cp.bundle.states.copy(), cp.bundle.controls.copy()  # path-major
        zakai = run_zakai_filter(spec, grid, states, controls)
        normalized = run_normalized_filter(spec, grid, states, controls)
        for a in (zakai.probs, zakai.V, zakai.nu_increments, normalized.probs,
                  normalized.nu_increments, discrete_bayes_oracle(spec, grid, states, controls)):
            assert _rows_are_contiguous(a)

    def test_innovation_qv_sums_each_path_in_path_order(self, coupled):
        # on a step-major history the plain per-path sum adds in another
        # order and rounds apart; the quadratic variation is the path-major sum
        _, cp = coupled
        nu = cp.filter_path.nu_increments
        assert _rows_are_contiguous(nu)
        before = nu.copy()
        want = np.sum(np.ascontiguousarray(nu)**2, axis=1)
        assert not np.array_equal(np.sum(nu**2, axis=1), want)
        assert np.array_equal(cp.filter_path.innovation_qv(), want)
        assert np.array_equal(nu, before)  # squared in a copy
        # a path-major history is squared in a copy too
        fp = FilterPath(grid=cp.filter_path.grid, probs=cp.filter_path.probs,
                        nu_increments=before)
        assert np.array_equal(fp.innovation_qv(), want) and np.array_equal(before, nu)
