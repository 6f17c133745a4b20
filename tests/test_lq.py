from __future__ import annotations

import collections
import dataclasses
import json
import logging
import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import hybridmp.adjoint as adjoint_mod
import hybridmp.lq as lq_mod
from hybridmp import ConfigError, LQSpec, NonConvergence, TimeGrid
from hybridmp.adjoint import (CompactCoeffs, PolyBasis, StepProjector, solve_adjoint_bsde,
                              stationarity_report)
from hybridmp.lq import (
    PiecewisePolyPolicy,
    _policy_sup_change,
    _quantile_lattice,
    full_observation_baseline,
    riccati_backward,
    riccati_cost,
    solve_lq,
    stationary_control,
)
from hybridmp.harness import ExperimentConfig, run_suite, stationarity_ratio
from hybridmp.model import zero_policy
from hybridmp.wonham import innovation_forward


@pytest.fixture(scope="module")
def solved(lq):
    grid = TimeGrid(1.0, 100)
    return grid, solve_lq(lq, grid, n_paths=1024, seed=3)


def _control_oracle(lq: LQSpec, p, phi_x, lam_pi):
    # dH/dv = 0 solved by hand for the LQ case:
    #   dH/dv = phi_x bbar + lam_pi (b1 - b2) p (1-p) / sigma + Rbar v
    # so v = -(phi_x bbar + lam_pi (b1-b2) p(1-p)/sigma) / Rbar, clipped
    p = np.asarray(p, dtype=np.float64)
    b1, b2 = lq.b
    rbar = lq.R[0] * p + lq.R[1] * (1.0 - p)
    bbar = b1 * p + b2 * (1.0 - p)
    grad0 = np.asarray(phi_x) * bbar + np.asarray(lam_pi) * (b1 - b2) * p * (1.0 - p) / lq.sigma
    return np.clip(-grad0 / rbar, *lq.control_domain)


def _update_from_zero(lq: LQSpec, x, p, phi_x, lam_pi):
    # the solver's update u - dH/dv / Rbar at u = 0, with dH/dv read off
    # the coefficient table
    x, p, u = np.array([x]), np.array([p]), np.zeros(1)
    hv = CompactCoeffs(lq).at(0.0, x, p, u).H_v(
        np.array([[phi_x, 0.0]]), np.array([[0.0, lam_pi]]))
    return stationary_control(lq, p, u, hv)[0]


class TestControlFormula:
    def test_zero_adjoint_is_zero_control(self, lq):
        u = _update_from_zero(lq, 0.7, 0.4, 0.0, 0.0)
        assert u == pytest.approx(0.0, abs=1e-15)

    def test_hand_point(self, lq):
        # p=1/2: bbar=0.75, Rbar=1.5, gain term 0.3*0.5*0.25/0.3=0.125
        u = _update_from_zero(lq, 0.0, 0.5, 1.0, 0.3)
        assert u == pytest.approx(-(0.75 + 0.125) / 1.5, abs=1e-12)

    def test_respects_control_domain(self, lq):
        bounded = dataclasses.replace(lq, control_domain=(-0.2, 0.2))
        u = _update_from_zero(bounded, 0.0, 0.5, 5.0, 0.0)
        assert u == pytest.approx(-0.2)


class TestRiccati:
    def test_terminal_values(self, lq):
        K, c = riccati_backward(lq, TimeGrid(1.0, 50))
        assert np.allclose(K[-1], lq.G)
        assert np.allclose(c[-1], 0.0)

    def test_uncontrolled_constant_case_is_exact(self):
        # a=b=0, no switching, Q=0: K stays at G and c integrates
        # sigma^2 G/2, so J = G/2 (x0^2 + sigma^2 T)
        hand = LQSpec(a=(0.0, 0.0), b=(0.0, 0.0), sigma=0.4, Q=(0.0, 0.0),
                      R=(1.0, 1.0), G=(2.0, 2.0), lambda1=0.0, lambda2=0.0,
                      horizon=1.5, x0=1.2, pi0=1.0)
        K, c = riccati_backward(hand, TimeGrid(1.5, 300))
        exact = 0.5 * 2.0 * (1.2**2 + 0.4**2 * 1.5)
        assert riccati_cost(hand, K, c) == pytest.approx(exact, abs=1e-12)

    def test_regime_free_matches_ivp_oracle(self, regime_free):
        grid = TimeGrid(1.0, 250)
        K, c = riccati_backward(regime_free, grid)
        a, b = regime_free.a[0], regime_free.b[0]
        q, r, g = regime_free.Q[0], regime_free.R[0], regime_free.G[0]
        sig = regime_free.sigma

        def rhs(t, y):
            return [-(2 * a * y[0] + q - y[0] ** 2 * b**2 / r),
                    -0.5 * sig**2 * y[0]]

        sol = solve_ivp(rhs, [1.0, 0.0], [g, 0.0], rtol=1e-10, atol=1e-12)
        assert abs(K[0, 0] - sol.y[0, -1]) <= 1e-8
        assert abs(c[0, 0] - sol.y[1, -1]) <= 1e-8
        # regimes are interchangeable here
        assert np.allclose(K[:, 0], K[:, 1], atol=1e-12)

    def test_full_observation_baseline_single_regime(self):
        # lambda=0 and pi0=1: the chain never leaves regime 1, so the
        # Monte Carlo side must match the scalar analytic cost
        single = LQSpec(a=(0.5, 0.0), b=(1.0, 1.0), sigma=0.3, Q=(1.0, 1.0),
                        R=(1.0, 1.0), G=(1.0, 1.0), lambda1=0.0,
                        lambda2=0.0, horizon=1.0, x0=1.0, pi0=1.0)
        grid = TimeGrid(1.0, 500)
        est, analytic = full_observation_baseline(single, grid, 20_000, 7)
        assert abs(est.mean - analytic) <= 3.0 * est.std_error + 2.0 * grid.dt


class TestPiecewisePolicy:
    def test_recovers_polynomial_feedback(self, rng):
        grid = TimeGrid(1.0, 4)
        n = 500
        states = np.repeat(rng.normal(0.0, 1.0, (n, 1)), 5, axis=1)
        probs = np.repeat(rng.uniform(0.1, 0.9, (n, 1))[:, :, None],
                          5, axis=1).repeat(2, axis=2)
        x, p = states[:, 0], probs[:, 0, 0]
        u = 0.4 - 1.1 * x + 0.6 * x * p - 0.2 * p**3
        controls = np.repeat(u[:, None], 4, axis=1)
        policy = PiecewisePolyPolicy.fit(grid, states, probs, controls)
        got = policy(0.3, x, p)
        assert np.max(np.abs(got - u)) <= 1e-8
        assert policy.fit_max_residual <= 1e-8

    def test_clips_to_training_envelope(self, rng):
        grid = TimeGrid(1.0, 2)
        n = 200
        states = rng.normal(0.0, 1.0, (n, 3))
        probs = rng.uniform(0.3, 0.7, (n, 3, 1)).repeat(2, axis=2)
        controls = rng.normal(0.0, 1.0, (n, 2))
        policy = PiecewisePolyPolicy.fit(grid, states, probs, controls)
        far = policy(0.0, np.array([1e6]), np.array([0.5]))
        lo, hi = policy.u_range[0]
        assert lo <= far[0] <= hi

    @pytest.mark.parametrize("domain", [(-np.inf, np.inf), (-0.5, 0.5)],
                             ids=["unbounded", "bounded"])
    def test_fit_step_returns_the_policy_on_its_paths(self, lq, domain):
        # what _fit_step returns is on_lattice on the training paths, bit
        # for bit; the cubic fit of a step target overshoots the widened
        # target range, so the u_range clip acts
        grid = TimeGrid(1.0, 50)
        path = innovation_forward(lq, grid, 300, 3, policy=zero_policy(lq.control_domain))
        policy = PiecewisePolyPolicy._blank(grid, 3, domain)
        clipped = 0
        for k in range(grid.n_steps):
            x, p = path.states[:, k], path.probs[:, k, 0]
            proj = StepProjector.on_basis(PolyBasis(3), x, p)
            got = policy._fit_step(k, proj, x, p, np.where(x > np.median(x), 1.0, -1.0))
            assert np.array_equal(got, policy.on_lattice([grid.times[k]], x[None], p[None])[0]), k
            fit = proj.A @ policy.coeffs[k]
            lo, hi = policy.u_range[k]
            clipped += np.count_nonzero((fit < lo) | (fit > hi))
        assert clipped > 0

    def test_collinear_design_uses_the_sweeps_rank_rule(self, rng):
        grid, states, probs, controls = _collinear_case(rng)
        policy = PiecewisePolyPolicy.fit(grid, states, probs, controls)
        assert np.max(np.abs(policy.coeffs)) < 10.0
        A = PolyBasis(3).design(states[:, 0], probs[:, 0, 0], policy.locs[0],
                                policy.scales[0])
        projected = StepProjector(A).fitted(controls[:, 0])
        assert np.max(np.abs(A @ policy.coeffs[0] - projected)) <= 1e-10


def _collinear_case(rng):
    # pi is constant up to 1e-9 noise, so the pi columns repeat the x
    # columns up to rounding; only a rank cutoff keeps the fit bounded.
    grid = TimeGrid(1.0, 1)
    n = 512
    states = rng.normal(0.0, 1.0, (n, 2))
    pi = 0.5 + 1e-9 * rng.normal(0.0, 1.0, (n, 2))
    probs = np.stack([pi, 1.0 - pi], axis=2)
    controls = 0.3 - 0.8 * states[:, :1] + 0.1 * rng.normal(0.0, 1.0, (n, 1))
    return grid, states, probs, controls


def _reference_lattice(states, probs, n_steps, n_x=9, n_p=5):
    # the per-step loop that _quantile_lattice replaced, kept verbatim
    qp = np.linspace(0.05, 0.95, n_p)
    X, P = [], []
    for k in range(n_steps):
        order = np.argsort(states[:, k])
        xs, ps = [], []
        for idx in np.array_split(order, n_x):
            if idx.size == 0:
                continue
            xs.append(np.full(n_p, np.median(states[idx, k])))
            ps.append(np.quantile(probs[idx, k, 0], qp))
        X.append(np.concatenate(xs))
        P.append(np.concatenate(ps))
    return np.array(X), np.array(P)


class TestQuantileLattice:
    @pytest.mark.parametrize("n_paths", [1998, 2048, 301, 7],
                             ids=["rem-0", "rem-5", "rem-4", "fewer-than-bins"])
    def test_matches_the_per_step_loop_bit_for_bit(self, rng, n_paths):
        grid = TimeGrid(1.0, 6)
        states = rng.normal(0.0, 1.0, (n_paths, 7))
        states[:, 2] = np.round(states[:, 2], 1)  # many tied x values
        states[:, 3] = 0.25                        # every x tied
        pi = rng.uniform(0.0, 1.0, (n_paths, 7))
        probs = np.stack([pi, 1.0 - pi], axis=2)
        X, P = _quantile_lattice(states, probs, grid.n_steps)
        want_X, want_P = _reference_lattice(states, probs, grid.n_steps)
        assert np.array_equal(X, want_X)
        assert np.array_equal(P, want_P)

        # the batched evaluator equals the one-step call on every row, and
        # the one-step call equals the per-step evaluation it replaced
        policy = PiecewisePolyPolicy.fit(grid, states, probs, rng.normal(0.0, 1.0, (n_paths, 6)))
        U = policy.on_lattice(grid.times[:-1], X, P)
        for k, t in enumerate(grid.times[:-1]):
            assert np.array_equal(U[k], policy(t, X[k], P[k]))
            x = np.clip(X[k], *policy.x_range[k])
            p = np.clip(P[k], *policy.p_range[k])
            A = PolyBasis(3).design(x, p, policy.locs[k], policy.scales[k])
            assert np.array_equal(U[k], np.clip(A @ policy.coeffs[k], *policy.u_range[k]))

    def test_sup_change_against_the_zero_policy(self, rng):
        grid = TimeGrid(1.0, 4)
        states = rng.normal(0.0, 1.0, (300, 5))
        pi = rng.uniform(0.0, 1.0, (300, 5))
        probs = np.stack([pi, 1.0 - pi], axis=2)
        policy = PiecewisePolyPolicy.fit(grid, states, probs, rng.normal(0.0, 1.0, (300, 4)))
        X, P = _quantile_lattice(states, probs, grid.n_steps)
        U = np.abs(policy.on_lattice(grid.times[:-1], X, P))
        sup, at = float(np.max(U)), int(np.argmax(np.max(U, axis=1)))
        assert _policy_sup_change(grid, zero_policy(), policy, states, probs) == (sup, at)
        assert _policy_sup_change(grid, policy, policy, states, probs) == (0.0, 0)


class TestStepProjectorCoef:
    def test_coef_reproduces_fitted_on_a_collinear_design(self, rng):
        _, states, probs, controls = _collinear_case(rng)
        proj = StepProjector.on_basis(PolyBasis(3), states[:, 0], probs[:, 0, 0])
        assert proj.svd_fallback and proj.rank < PolyBasis(3).n_terms
        s = np.linalg.svd(proj.A, compute_uv=False)
        assert proj.rank == np.count_nonzero(s > adjoint_mod.RCOND * s[0])
        u = controls[:, 0]
        assert np.max(np.abs(proj.A @ proj.coef(u) - proj.fitted(u))) <= 1e-10

    def test_coef_is_least_squares_on_a_full_rank_design(self, rng):
        n = 400
        A = PolyBasis(3).design(rng.normal(0.0, 1.0, n), rng.uniform(0.1, 0.9, n))
        u = rng.normal(0.0, 1.0, n)
        proj = StepProjector(A)
        assert proj.rank == A.shape[1]
        beta, *_ = np.linalg.lstsq(A, u, rcond=None)
        assert np.max(np.abs(proj.coef(u) - beta)) <= 1e-10


class TestSolveLq:
    def test_gram_route_solves_as_the_svd_route(self, lq, monkeypatch):
        # GRAM_MIN_RATIO = inf sends every design to the SVD
        grid = TimeGrid(1.0, 50)
        gram = solve_lq(lq, grid, n_paths=512, seed=3)
        monkeypatch.setattr(adjoint_mod, "GRAM_MIN_RATIO", np.inf)
        svd = solve_lq(lq, grid, n_paths=512, seed=3)
        assert svd.adjoint.svd_fallback.all() and not gram.adjoint.svd_fallback.all()
        assert gram.iterations == svd.iterations
        assert np.array_equal(gram.adjoint.ranks, svd.adjoint.ranks)
        assert gram.cost.mean == pytest.approx(svd.cost.mean, rel=1e-12, abs=0.0)
        assert stationarity_ratio(gram) == pytest.approx(stationarity_ratio(svd), rel=1e-9, abs=0.0)

    def test_converges_with_certificate(self, lq, solved):
        grid, sol = solved
        assert sol.converged
        assert sol.iterations <= 30
        assert sol.cost.mean == pytest.approx(0.80, abs=0.05)
        ratio = sol.residual["residual"] / sol.trace[0]["residual"]
        assert ratio <= 1e-2

    def test_trace_costs_never_increase_beyond_noise(self, solved):
        _, sol = solved
        costs = [row["cost"] for row in sol.trace]
        ses = [row["cost_se"] for row in sol.trace]
        for i in range(len(costs) - 1):
            slack = 3.0 * math.hypot(ses[i], ses[i + 1])
            assert costs[i + 1] <= costs[i] + slack

    def test_trace_row_contract(self, solved):
        _, sol = solved
        assert sorted(sol.trace[0]) == ["cost", "cost_se", "ensemble_change",
                                        "ensemble_norm", "fit_residual",
                                        "iteration", "r2_min", "residual", "step"]
        assert [row["iteration"] for row in sol.trace] == \
            list(range(1, len(sol.trace) + 1))

    def test_ensemble_stop_converges_in_at_most_9_iterations(self, solved):
        # stopping on the lattice sup-change takes 16 iterations here
        _, sol = solved
        assert sol.converged
        assert sol.iterations <= 9

    def test_stops_at_the_first_small_ensemble_change(self, lq, solved):
        # tol only decides where the loop stops, so the default solve's
        # trace is the tol=0 trace cut at the first row whose ensemble
        # change is within tol * max(1, ensemble norm)
        grid, sol = solved
        with pytest.raises(NonConvergence) as exc:
            solve_lq(lq, grid, n_paths=1024, seed=3, tol=0.0, max_iter=16)
        full = exc.value.solution.trace
        stop = next(i for i, row in enumerate(full)
                    if row["ensemble_change"] <= 1e-3 * max(1.0, row["ensemble_norm"]))
        assert sol.trace == full[:stop + 1]

    def test_safeguarded_step_converges_in_at_most_17_iterations(self, solved):
        # a fixed step of 0.5 takes 21 iterations here
        _, sol = solved
        assert sol.converged
        assert sol.iterations <= 17

    def test_step_rule_reads_off_the_trace(self, lq):
        # row 1 takes the damping; a later row takes a full step exactly
        # when the previous row's undamped change ensemble_change / step
        # fell below the one before it (infinite before row 1), else the
        # damping.  The default spec takes full steps after row 1, so a
        # cheaper control shows the damped branch too.
        cheap = dataclasses.replace(lq, R=(0.5, 0.5))
        with pytest.raises(NonConvergence) as exc:
            solve_lq(cheap, TimeGrid(1.0, 200), n_paths=256, seed=3, tol=0.0, max_iter=10)
        trace = exc.value.solution.trace
        rates = [math.inf] + [row["ensemble_change"] / row["step"] for row in trace]
        assert trace[0]["step"] == 0.5
        for i, row in enumerate(trace[1:], start=2):
            assert row["step"] == (1.0 if rates[i - 1] < rates[i - 2] else 0.5), i
        # both branches after row 1
        assert {row["step"] for row in trace[1:]} == {0.5, 1.0}

    def test_unit_damping_is_plain_picard(self, lq):
        with pytest.raises(NonConvergence) as exc:
            solve_lq(lq, TimeGrid(1.0, 20), n_paths=200, seed=5, damping=1.0,
                     tol=0.0, max_iter=4)
        assert [row["step"] for row in exc.value.solution.trace] == [1.0] * 4

    def test_policy_tracks_stationary_formula(self, lq, solved):
        # the fitted feedback surface must agree with the explicit
        # stationary control evaluated with the fitted adjoint
        grid, sol = solved
        path, adj = sol.path, sol.adjoint
        scale = max(1.0, float(np.max(np.abs(path.controls))))
        worst = 0.0
        for k in range(grid.n_steps):
            x = path.states[:, k]
            p = path.probs[:, k, 0]
            upol = sol.policy(grid.times[k], x, p)
            uform = _control_oracle(lq, p, adj.phi_pred[:, k, 0], adj.lam[:, k, 1])
            worst = max(worst, float(np.max(np.abs(upol - uform))))
        assert worst <= 0.05 * scale

    def test_zero_cost_weights_give_zero_control(self):
        flat = LQSpec(a=(0.5, -0.5), b=(1.0, 0.5), sigma=0.3, Q=(0.0, 0.0),
                      R=(1.0, 2.0), G=(0.0, 0.0), lambda1=1.0, lambda2=1.0,
                      horizon=1.0, x0=1.0, pi0=0.5)
        sol = solve_lq(flat, TimeGrid(1.0, 50), n_paths=512, seed=1)
        assert sol.converged
        assert abs(sol.cost.mean) <= 1e-10

    def test_nonconvergence_carries_best_iterate(self, lq):
        with pytest.raises(NonConvergence) as exc:
            solve_lq(lq, TimeGrid(1.0, 60), n_paths=512, seed=1, max_iter=2)
        sol = exc.value.solution
        assert not sol.converged
        assert sol.iterations == 2
        assert len(sol.trace) == 2

    def test_nonconvergence_names_the_ensemble_change_and_threshold(self, lq):
        with pytest.raises(NonConvergence) as exc:
            solve_lq(lq, TimeGrid(1.0, 20), n_paths=200, seed=5, tol=1e-4, max_iter=2)
        last = exc.value.solution.trace[-1]
        assert str(exc.value) == (
            f"no fixed point after 2 iterations (last ensemble change "
            f"{last['ensemble_change']:.3g}, threshold "
            f"{1e-4 * max(1.0, last['ensemble_norm']):.3g})")

    def test_each_iteration_factors_each_step_once(self, lq, monkeypatch):
        # one projector (one factorization, Gram or SVD) per backward step
        # per iteration, plus the certificate sweep; the policy fit reuses
        # the sweep's factorization
        calls = {"projector": 0, "lstsq": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(StepProjector, "__init__",
                            counting("projector", StepProjector.__init__))
        monkeypatch.setattr(np.linalg, "lstsq", counting("lstsq", np.linalg.lstsq))
        grid = TimeGrid(1.0, 20)
        with pytest.raises(NonConvergence) as exc:
            solve_lq(lq, grid, n_paths=200, seed=5, tol=0.0, max_iter=2)
        iterations = exc.value.solution.iterations
        assert iterations == 2
        assert calls == {"projector": grid.n_steps * (iterations + 1), "lstsq": 0}

    def test_each_backward_step_evaluates_the_coefficients_once(self, lq, monkeypatch):
        # one coefficient table per backward step, whose drift and running
        # cost tables are the only coefficient evaluations; the
        # certificate reads the sweep's dH/dv and evaluates none
        phase = ["other"]
        calls = collections.Counter()

        def counting(name, fn):
            def wrapped(*args):
                calls[phase[-1], name] += 1
                return fn(*args)
            return wrapped

        sweep, report = adjoint_mod.backward_sweep, adjoint_mod.stationarity_report

        def sweeping(*args, **kwargs):
            phase.append("sweep")
            try:
                yield from sweep(*args, **kwargs)
            finally:
                phase.pop()

        def reporting(*args, **kwargs):
            phase.append("report")
            calls["report", "calls"] += 1
            try:
                return report(*args, **kwargs)
            finally:
                phase.pop()

        monkeypatch.setattr(adjoint_mod, "backward_sweep", sweeping)
        monkeypatch.setattr(lq_mod, "backward_sweep", sweeping)
        monkeypatch.setattr(lq_mod, "stationarity_report", reporting)
        monkeypatch.setattr(CompactCoeffs, "at", counting("at", CompactCoeffs.at))
        for name in ("drift_table", "running_cost_table"):
            monkeypatch.setattr(adjoint_mod, name, counting(name, getattr(adjoint_mod, name)))
        grid = TimeGrid(1.0, 20)
        with pytest.raises(NonConvergence) as exc:
            solve_lq(lq, grid, n_paths=200, seed=5, tol=0.0, max_iter=2)
        sweeps = exc.value.solution.iterations + 1  # plus the certificate's
        per_sweep = grid.n_steps * sweeps
        assert calls["sweep", "at"] == per_sweep
        assert calls["sweep", "drift_table"] == per_sweep
        assert calls["sweep", "running_cost_table"] == per_sweep
        assert calls["report", "calls"] == sweeps
        assert [key for key in calls if key[0] == "report"] == [("report", "calls")]

    def test_mp_check_builds_three_tables_per_step(self, lq, monkeypatch, tmp_path):
        # the sweep, one Gateaux pass and one duality pass, each over every
        # step, with all five directions riding the two forward passes
        builds = []
        at = CompactCoeffs.at

        def counting(self, *args):
            builds.append(args[0])
            return at(self, *args)

        monkeypatch.setattr(CompactCoeffs, "at", counting)
        cfg = ExperimentConfig(suite="mp-check", spec=lq, n_paths=400, n_steps=20,
                               workers=1, out_dir=str(tmp_path))
        assert run_suite(cfg) == 0
        assert len(builds) == 3 * cfg.n_steps

    def test_policy_is_called_only_by_forward_passes(self, lq, monkeypatch):
        # the convergence check evaluates both policies on the whole
        # lattice at once, so one-step calls come only from the forward
        # passes: iteration 2's and the certificate's (iteration 1 runs
        # the zero policy)
        calls = []
        one_step = PiecewisePolyPolicy.__call__

        def counting(self, t, x, pi):
            calls.append(t)
            return one_step(self, t, x, pi)

        monkeypatch.setattr(PiecewisePolyPolicy, "__call__", counting)
        grid = TimeGrid(1.0, 20)
        with pytest.raises(NonConvergence):
            solve_lq(lq, grid, n_paths=200, seed=5, tol=0.0, max_iter=2)
        assert len(calls) == 2 * grid.n_steps

    def test_zero_tol_runs_exactly_max_iter_iterations(self, lq):
        with pytest.raises(NonConvergence) as exc:
            solve_lq(lq, TimeGrid(1.0, 20), n_paths=200, seed=5, tol=0.0, max_iter=3)
        sol = exc.value.solution
        assert not sol.converged
        assert [row["iteration"] for row in sol.trace] == [1, 2, 3]

    def test_iteration_log_names_the_step_of_the_sup_change(self, lq, caplog):
        # one line per iteration, then one for the final lattice sup-change
        grid = TimeGrid(1.0, 20)
        with caplog.at_level(logging.INFO, logger="hybridmp.lq"), pytest.raises(NonConvergence) as exc:
            solve_lq(lq, grid, n_paths=200, seed=5, tol=0.0, max_iter=2)
        lines = [r.getMessage() for r in caplog.records if r.name == "hybridmp.lq"]
        sol = exc.value.solution
        assert len(lines) == 3
        for line, row in zip(lines, sol.trace):
            found = re.fullmatch(r"iteration (\d+): step (\S+), cost (\S+), "
                                 r"ensemble-change (\S+)", line)
            assert found, line
            assert int(found[1]) == row["iteration"]
            assert float(found[2]) == float(f"{row['step']:.3g}")
            assert float(found[3]) == float(f"{row['cost']:.6f}")
            assert float(found[4]) == float(f"{row['ensemble_change']:.3g}")
        found = re.fullmatch(r"final sup-change (\S+) at k=(\d+) \(t=(\S+)\)", lines[2])
        assert found, lines[2]
        sup = sol.final_sup_change
        assert float(found[1]) == float(f"{sup['value']:.3g}")
        assert int(found[2]) == sup["k"] and sup["t"] == grid.times[sup["k"]]
        assert float(found[3]) == float(f"{sup['t']:.4g}")

        # a one-iteration solve moves away from the zero policy on the
        # zero-policy pass, so its step is the lattice row where the first
        # fit peaks
        with pytest.raises(NonConvergence) as first:
            solve_lq(lq, grid, n_paths=200, seed=5, tol=0.0, max_iter=1)
        path = innovation_forward(lq, grid, 200, 5, policy=zero_policy(lq.control_domain))
        X, P = _quantile_lattice(path.states, path.probs, grid.n_steps)
        U = np.abs(first.value.solution.policy.on_lattice(grid.times[:-1], X, P))
        assert first.value.solution.final_sup_change["k"] == int(np.argmax(np.max(U, axis=1)))
        assert first.value.solution.final_sup_change["value"] == float(np.max(U))

    def test_final_sup_change_compares_the_last_two_policies(self, lq, tmp_path):
        # results.json's final_sup_change is the lattice sup-change between
        # the final policy and the one before it, on the paths of the last
        # iteration (the forward pass under the one before it)
        grid = TimeGrid(lq.horizon, 40)
        cfg = ExperimentConfig(suite="lq-solve", spec=lq, n_paths=256, n_steps=40, seed=3,
                               out_dir=str(tmp_path / "out"))
        assert run_suite(cfg) == 0
        got = json.loads((tmp_path / "out" / "results.json").read_text())["final_sup_change"]

        final = solve_lq(lq, grid, n_paths=256, seed=3)
        with pytest.raises(NonConvergence) as exc:
            solve_lq(lq, grid, n_paths=256, seed=3, max_iter=final.iterations - 1)
        before = exc.value.solution.policy
        path = innovation_forward(lq, grid, 256, 3, policy=before)
        value, k = _policy_sup_change(grid, before, final.policy, path.states, path.probs)
        assert got == {"value": value, "k": k, "t": grid.times[k]} == final.final_sup_change

    def test_policy_is_the_fit_of_the_damped_targets(self, lq):
        grid = TimeGrid(1.0, 30)
        n_paths, seed, damping = 300, 4, 0.5
        with pytest.raises(NonConvergence) as exc:
            solve_lq(lq, grid, n_paths=n_paths, seed=seed, damping=damping, max_iter=1)
        got = exc.value.solution.policy

        path = innovation_forward(lq, grid, n_paths, seed,
                                  policy=zero_policy(lq.control_domain))
        adj = solve_adjoint_bsde(lq, path)
        u_star = np.column_stack([
            _control_oracle(lq, path.probs[:, k, 0], adj.phi_pred[:, k, 0], adj.lam[:, k, 1])
            for k in range(grid.n_steps)
        ])
        targets = (1.0 - damping) * path.controls + damping * u_star
        want = PiecewisePolyPolicy.fit(grid, path.states, path.probs, targets,
                                       control_domain=lq.control_domain)
        for name in ("coeffs", "locs", "scales", "x_range", "p_range", "u_range"):
            assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-12, name
        assert abs(got.fit_max_residual - want.fit_max_residual) <= 1e-12

    def test_trace_residual_is_the_certificates(self, lq):
        # With a bounded domain dH/dv is not Rbar (u - clip(u*)), so only
        # one definition can make stationarity_ratio a ratio of like terms.
        bounded = dataclasses.replace(lq, control_domain=(-0.2, 0.2))
        grid = TimeGrid(1.0, 40)
        with pytest.raises(NonConvergence) as exc:
            solve_lq(bounded, grid, n_paths=1000, seed=3, max_iter=1)
        path = innovation_forward(bounded, grid, 1000, 3,
                                  policy=zero_policy(bounded.control_domain))
        report = stationarity_report(bounded, path, solve_adjoint_bsde(bounded, path))
        assert exc.value.solution.trace[0]["residual"] == pytest.approx(
            report["residual"], rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"max_iter": 0}, {"tol": -1.0}, {"tol": float("nan")}, {"damping": 0.0},
    ], ids=["zero-max-iter", "negative-tol", "nan-tol", "zero-damping"])
    def test_bad_settings_raise_config_error(self, lq, kwargs):
        with pytest.raises(ConfigError):
            solve_lq(lq, TimeGrid(1.0, 10), n_paths=100, **kwargs)

    def test_label_swap_symmetry(self, lq):
        # relabeling the regimes and mirroring pi0 is a pathwise
        # symmetry of the innovation system, so the solve must land on
        # the same cost (the polynomial basis is closed under p -> 1-p)
        swapped = LQSpec(a=(lq.a[1], lq.a[0]), b=(lq.b[1], lq.b[0]),
                         sigma=lq.sigma, Q=(lq.Q[1], lq.Q[0]),
                         R=(lq.R[1], lq.R[0]), G=(lq.G[1], lq.G[0]),
                         lambda1=lq.lambda2, lambda2=lq.lambda1,
                         horizon=lq.horizon, x0=lq.x0, pi0=1.0 - lq.pi0)
        grid = TimeGrid(1.0, 60)
        s1 = solve_lq(lq, grid, n_paths=640, seed=3, max_iter=40)
        s2 = solve_lq(swapped, grid, n_paths=640, seed=3, max_iter=40)
        se = math.hypot(s1.cost.std_error, s2.cost.std_error)
        assert abs(s1.cost.mean - s2.cost.mean) <= 3.0 * se

    def test_quadratic_basis_still_converges(self, lq):
        sol = solve_lq(lq, TimeGrid(1.0, 50), n_paths=512, seed=2,
                       basis=PolyBasis(2))
        assert sol.converged
        assert sol.cost.mean == pytest.approx(0.80, abs=0.06)

    def test_default_spec_constants(self, lq):
        assert lq.a == (0.5, -0.5)
        assert lq.b == (1.0, 0.5)
        assert lq.sigma == 0.3
        assert lq.pi0 == 0.5
