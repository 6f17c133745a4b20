from __future__ import annotations

import dataclasses
import math
import types
import warnings

import numpy as np
import pytest

from hybridmp import (
    ConfigError,
    LQSpec,
    RegressionError,
    TimeGrid,
    zero_policy,
)
import hybridmp.adjoint as adjoint_mod
from hybridmp.adjoint import (
    CompactCoeffs,
    PolyBasis,
    StepProjector,
    gateaux_derivative,
    hamiltonian_direction_value,
    solve_adjoint_bsde,
    solve_variational,
    stationarity_report,
)
from hybridmp.harness import _direction_set
from hybridmp.model import drift_table, running_cost_table, terminal_cost_table
from hybridmp.wonham import InnovationPath, innovation_forward


def _quotient(table, z):
    """Central difference quotient of ``table`` at z, step 1e-5 max(1, |z|)."""
    h = 1e-5 * np.maximum(1.0, np.abs(z))
    return (table(z + h) - table(z - h)) / (2.0 * h)


class DifferenceCoeffs(CompactCoeffs):
    """``CompactCoeffs`` with the x- and v-slopes of the drift and cost
    tables taken by difference quotients: the reference the closed forms
    are held to.  sigma is constant, so its slopes stay 0."""

    def at(self, t, x, p, u):
        spec = self.spec
        return dataclasses.replace(
            super().at(t, x, p, u),
            b_x=_quotient(lambda z: drift_table(spec, z, u), x),
            b_v=_quotient(lambda z: drift_table(spec, x, z), u),
            f_x=_quotient(lambda z: running_cost_table(spec, z, u), x),
            f_v=_quotient(lambda z: running_cost_table(spec, x, z), u))

    def G_theta(self, x, p):
        g = terminal_cost_table(self.spec, x)
        g_x = _quotient(lambda z: terminal_cost_table(self.spec, z), x)
        return np.stack([g_x[0] * p + g_x[1] * (1.0 - p), g[0] - g[1]], axis=-1)


@pytest.fixture(scope="module")
def coeffs(spec):
    return CompactCoeffs(spec)


@pytest.fixture(scope="module")
def points():
    gen = np.random.default_rng(100)
    n = 64
    return (np.full(n, 0.3), gen.normal(0.0, 1.0, n),
            gen.uniform(0.02, 0.98, n), gen.normal(0.0, 0.8, n))


def _jacobians(tab, n):
    """B_Theta, Sigma_Theta, F_Theta and B_v, Sigma_v, F_v of a table, read off
    ``tangent`` at unit (g, w): column j of B_Theta is dB at g = e_j, w = 0
    (B_Theta[:, 1, 1] is dB_pi at g = (0, 1)), and B_v is dB at g = 0, w = 1."""
    g = np.zeros((3, n, 2))
    g[0, :, 0] = g[1, :, 1] = 1.0
    w = np.zeros((3, n))
    w[2] = 1.0
    d_b, d_sigma, d_f = tab.tangent(g, w)
    return {"B_theta": np.moveaxis(d_b[:2], 0, -1), "Sigma_theta": np.moveaxis(d_sigma[:2], 0, -1),
            "F_theta": d_f[:2].T, "B_v": d_b[2], "Sigma_v": d_sigma[2], "F_v": d_f[2]}


@pytest.fixture(scope="module")
def ensemble(spec):
    grid = TimeGrid(1.0, 100)
    path = innovation_forward(spec, grid, 1024, 5, policy=zero_policy())
    return grid, path, solve_adjoint_bsde(spec, path)


class TestCompactCoeffs:
    def test_belief_drift_component(self, lq, coeffs, points):
        t, x, p, u = points
        B = coeffs.at(t, x, p, u).B
        expected = -lq.lambda1 * p + lq.lambda2 * (1.0 - p)
        assert np.allclose(B[:, 1], expected, atol=1e-12)

    def test_belief_drift_slope_is_rate_sum(self, lq, coeffs, points):
        t, x, p, u = points
        Bt = _jacobians(coeffs.at(t, x, p, u), len(x))["B_theta"]
        assert np.allclose(Bt[:, 1, 1], -(lq.lambda1 + lq.lambda2),
                           atol=1e-12)

    def test_control_does_not_move_belief_drift(self, coeffs, points):
        t, x, p, u = points
        Bv = _jacobians(coeffs.at(t, x, p, u), len(x))["B_v"]
        assert np.allclose(Bv[:, 1], 0.0, atol=1e-12)

    def test_belief_noise_vanishes_at_simplex_corners(self, coeffs):
        t = np.zeros(2)
        x = np.ones(2)
        u = np.zeros(2)
        for corner in (0.0, 1.0):
            S = coeffs.at(t, x, np.full(2, corner), u).Sigma
            assert np.allclose(S[:, 1], 0.0, atol=1e-12)

    def test_running_cost_belief_slope(self, lq, coeffs, points):
        t, x, p, u = points
        Ft = _jacobians(coeffs.at(t, x, p, u), len(x))["F_theta"]
        expected = 0.5 * ((lq.Q[0] - lq.Q[1]) * x**2
                          + (lq.R[0] - lq.R[1]) * u**2)
        assert np.allclose(Ft[:, 1], expected, atol=1e-10)

    def test_terminal_gradient(self, lq, coeffs, points):
        _, x, p, _ = points
        Gt = coeffs.G_theta(x, p)
        gbar = p * lq.G[0] + (1.0 - p) * lq.G[1]
        assert np.allclose(Gt[:, 0], gbar * x, atol=1e-12)
        assert np.allclose(Gt[:, 1], 0.5 * (lq.G[0] - lq.G[1]) * x**2,
                           atol=1e-12)

    def test_regime_free_state_drift_ignores_belief(self, regime_free,
                                                    points):
        cf = CompactCoeffs(regime_free)
        t, x, p, u = points
        Bt = _jacobians(cf.at(t, x, p, u), len(x))["B_theta"]
        assert np.allclose(Bt[:, 0, 1], 0.0, atol=1e-12)

    def test_finite_difference_route_agrees(self, spec, coeffs, points):
        fd = DifferenceCoeffs(spec)
        t, x, p, u = points
        for name in ("B_theta", "B_v", "Sigma_theta", "Sigma_v",
                     "F_theta", "F_v"):
            got = _jacobians(fd.at(t, x, p, u), len(x))[name]
            want = _jacobians(coeffs.at(t, x, p, u), len(x))[name]
            assert np.allclose(got, want, atol=1e-5), name

    def test_terminal_gradient_fd_route(self, spec, coeffs, points):
        fd = DifferenceCoeffs(spec)
        _, x, p, _ = points
        assert np.allclose(fd.G_theta(x, p), coeffs.G_theta(x, p),
                           atol=1e-5)


class TestHamiltonian:
    def test_hand_value(self, coeffs):
        # x=0, p=1, u=1, Phi=(1,0), Lambda=0:
        # <B, Phi> = b1 = 1 and F = R1/2 = 0.5
        val = coeffs.at(0.0, np.zeros(1), np.ones(1), np.ones(1)).H(
            np.array([[1.0, 0.0]]), np.zeros((1, 2)))
        assert val[0] == pytest.approx(1.5, abs=1e-12)

    def test_gradient_with_zero_adjoint_is_weighted_control_cost(
            self, lq, coeffs, points):
        t, x, p, u = points
        hv = coeffs.at(t, x, p, u).H_v(np.zeros((len(x), 2)),
                                       np.zeros((len(x), 2)))
        rbar = p * lq.R[0] + (1.0 - p) * lq.R[1]
        assert np.allclose(hv, rbar * u, atol=1e-12)

    def test_regime_free_gradient_form(self, regime_free, points):
        cf = CompactCoeffs(regime_free)
        t, x, p, u = points
        phi = np.stack([x * 0.0 + 0.7, x * 0.0 - 0.2], axis=1)
        hv = cf.at(t, x, p, u).H_v(phi, np.zeros((len(x), 2)))
        assert np.allclose(hv, 0.7 * regime_free.b[0]
                           + regime_free.R[0] * u, atol=1e-12)

    def test_gradient_matches_central_difference(self, coeffs, rng):
        n = 1000
        t = np.full(n, 0.4)
        x = rng.normal(0.0, 1.0, n)
        p = rng.uniform(0.05, 0.95, n)
        u = rng.normal(0.0, 0.8, n)
        phi = rng.normal(0.0, 1.0, (n, 2))
        lam = rng.normal(0.0, 1.0, (n, 2))
        eps = 1e-5
        num = (coeffs.at(t, x, p, u + eps).H(phi, lam)
               - coeffs.at(t, x, p, u - eps).H(phi, lam)) / (2 * eps)
        ana = coeffs.at(t, x, p, u).H_v(phi, lam)
        assert np.max(np.abs(num - ana)) <= 1e-6 * (1.0 + np.max(np.abs(ana)))

    def test_state_gradient_matches_central_difference(self, coeffs, rng):
        n = 1000
        t = np.full(n, 0.4)
        x = rng.normal(0.0, 1.0, n)
        p = rng.uniform(0.05, 0.95, n)
        u = rng.normal(0.0, 0.8, n)
        phi = rng.normal(0.0, 1.0, (n, 2))
        lam = rng.normal(0.0, 1.0, (n, 2))
        eps = 1e-5
        ana = coeffs.at(t, x, p, u).H_theta(phi, lam)
        num_x = (coeffs.at(t, x + eps, p, u).H(phi, lam)
                 - coeffs.at(t, x - eps, p, u).H(phi, lam)) / (2 * eps)
        num_p = (coeffs.at(t, x, p + eps, u).H(phi, lam)
                 - coeffs.at(t, x, p - eps, u).H(phi, lam)) / (2 * eps)
        for num, col in ((num_x, ana[:, 0]), (num_p, ana[:, 1])):
            assert np.max(np.abs(num - col)) <= 1e-6 * (1.0 + np.max(np.abs(col)))

    @pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
    def test_driver_is_the_transpose_of_the_tangent(self, spec, rng, fd):
        # <phi, dB> + <lam, dSigma> + dF = <H_Theta(phi, lam), g> + H_v(phi, lam) w
        n = 500
        tab = (DifferenceCoeffs if fd else CompactCoeffs)(spec).at(
            0.3, rng.normal(0.0, 1.0, n), rng.uniform(0.05, 0.95, n), rng.normal(0.0, 0.8, n))
        phi, lam, g = (rng.normal(0.0, 1.0, (n, 2)) for _ in range(3))
        w = rng.normal(0.0, 1.0, n)
        d_b, d_sigma, d_f = tab.tangent(g, w)
        lhs = np.sum(phi * d_b, axis=1) + np.sum(lam * d_sigma, axis=1) + d_f
        rhs = np.sum(tab.H_theta(phi, lam) * g, axis=1) + tab.H_v(phi, lam) * w
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


class TestVariational:
    def test_zero_direction_gives_zero_sensitivity(self, spec, ensemble):
        grid, path, _ = ensemble
        gamma = solve_variational(spec, path,
                                  np.zeros((path.n_paths, grid.n_steps)))
        assert np.all(gamma == 0.0)

    def test_starts_from_zero(self, spec, ensemble):
        grid, path, _ = ensemble
        w = np.ones((path.n_paths, grid.n_steps))
        gamma = solve_variational(spec, path, w)
        assert np.all(gamma[:, 0] == 0.0)
        assert np.any(gamma[:, -1] != 0.0)

    def test_rejects_bad_shape(self, spec, ensemble):
        grid, path, _ = ensemble
        with pytest.raises(ConfigError):
            solve_variational(spec, path, np.zeros((path.n_paths, 3)))

    def test_is_exact_derivative_of_forward_map(self, spec, ensemble):
        # Theta^{u+eps w} - Theta^u - eps Gamma = O(eps^2) at fixed
        # innovation increments; paths whose belief ever hits a simplex
        # corner are excluded since the projection kink there is not
        # differentiable (the derivative is of the smooth recursion)
        grid, path, _ = ensemble
        pi = path.probs[:, :, 0]
        smooth = ~(((pi < 1e-12) | (pi > 1.0 - 1e-12)).any(axis=1))
        assert smooth.sum() > 0.8 * path.n_paths
        w = np.tile(np.cos(math.pi * grid.times[:-1]), (path.n_paths, 1))
        gamma = solve_variational(spec, path, w)
        resid = {}
        for eps in (1e-2, 1e-3):
            bumped = innovation_forward(spec, grid, path.n_paths, path.seed,
                                        controls=path.controls + eps * w,
                                        dnu=path.dnu)
            dx = bumped.states[smooth] - path.states[smooth] \
                - eps * gamma[smooth, :, 0]
            dp = bumped.probs[smooth][:, :, 0] - pi[smooth] \
                - eps * gamma[smooth, :, 1]
            resid[eps] = max(np.max(np.abs(dx)), np.max(np.abs(dp)))
        assert resid[1e-3] <= 0.02 * resid[1e-2]


class TestAdjointBsde:
    def test_terminal_condition_pathwise(self, spec, coeffs, ensemble):
        _, path, adj = ensemble
        want = coeffs.G_theta(path.states[:, -1], path.probs[:, -1, 0])
        assert np.array_equal(adj.phi[:, -1], want)

    def test_needs_enough_paths_for_basis(self, spec):
        grid = TimeGrid(1.0, 20)
        path = innovation_forward(spec, grid, 64, 1, policy=zero_policy())
        with pytest.raises(ConfigError):
            solve_adjoint_bsde(spec, path)  # 64 < 10 * 10 terms

    def test_duality_with_variational_route(self, spec, ensemble):
        grid, path, adj = ensemble
        w = np.tile(np.sin(2 * math.pi * grid.times[:-1]),
                    (path.n_paths, 1))
        direct = gateaux_derivative(spec, path, w)
        paired = hamiltonian_direction_value(spec, path, adj, w)
        assert abs(direct - paired) <= 0.05 * abs(direct)

    def test_direction_stack_rides_one_pass(self, spec, ensemble):
        # a (D, n, N) stack gives, bit for bit, the D single-direction values
        grid, path, adj = ensemble
        stack = _direction_set(grid, path)
        assert stack.shape == (5, path.n_paths, grid.n_steps)
        assert all(stack[..., k].flags.c_contiguous for k in range(grid.n_steps))
        for fn, args in ((gateaux_derivative, ()), (hamiltonian_direction_value, (adj,))):
            together = fn(spec, path, *args, stack)
            alone = np.array([fn(spec, path, *args, w) for w in stack])
            assert together.shape == (5,)
            assert np.array_equal(together, alone), fn.__name__

    @pytest.mark.parametrize("fn", [gateaux_derivative, hamiltonian_direction_value],
                             ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("extra", [(0, 1), (1, 0), None],
                             ids=["one-step-too-many", "one-path-too-many", "one-path-axis"])
    def test_rejects_a_direction_of_the_wrong_shape(self, spec, ensemble, fn, extra):
        # a step beyond the grid must not be dropped, whatever its value
        grid, path, adj = ensemble
        n, N = path.n_paths, grid.n_steps
        w = np.zeros(N) if extra is None else np.zeros((n + extra[0], N + extra[1]))
        w[..., N:] = 1e6
        args = (adj,) if fn is hamiltonian_direction_value else ()
        with pytest.raises(ConfigError, match="direction must have shape"):
            fn(spec, path, *args, w)

    def test_direction_set_does_not_depend_on_the_probs_layout(self):
        grid, n = TimeGrid(1.0, 200), 2048
        pi = np.random.default_rng(7).uniform(0.0, 1.0, (n, grid.n_steps + 1))
        probs = np.stack([pi, 1.0 - pi], axis=2)
        step_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(probs, 0, -1)), -1, 0)
        # on this data the per-path sums over time of the two layouts round
        # apart, and so does the mean square that scales a direction
        w, w_sm = probs[:, :-1, 0], step_major[:, :-1, 0]
        assert (np.mean(np.sum(w * w, axis=1) * grid.dt)
                != np.mean(np.sum(w_sm * w_sm, axis=1) * grid.dt))
        got = _direction_set(grid, types.SimpleNamespace(n_paths=n, probs=step_major))
        want = _direction_set(grid, types.SimpleNamespace(n_paths=n, probs=probs))
        assert np.array_equal(got, want)

    def test_residual_positive_away_from_optimum(self, spec, ensemble):
        _, path, adj = ensemble
        rep = stationarity_report(spec, path, adj)
        assert rep["residual"] > 0.1
        assert set(rep) == {"residual", "projected_residual", "n_paths",
                            "basis_degree", "per_step_r2_min"}
        assert rep["n_paths"] == path.n_paths

    @pytest.mark.parametrize("domain", [(-math.inf, math.inf), (-0.2, 0.2)],
                             ids=["unbounded", "bounded"])
    def test_report_reduces_the_sweeps_gradient(self, lq, domain):
        # the per-step loop the report ran before the sweep stored dH/dv,
        # kept as the reference; with a bounded domain the projected
        # residual differs from the plain one
        spec = dataclasses.replace(lq, control_domain=domain)
        grid = TimeGrid(1.0, 50)
        path = innovation_forward(spec, grid, 600, 8, policy=zero_policy(domain))
        adj = solve_adjoint_bsde(spec, path)
        coeffs = CompactCoeffs(spec)
        sq = sq_proj = 0.0
        for k in range(grid.n_steps):
            u = path.controls[:, k]
            tab = coeffs.at(grid.times[k], path.states[:, k], path.probs[:, k, 0], u)
            jac = _jacobians(tab, path.n_paths)
            phi, lam = adj.phi_pred[:, k], adj.lam[:, k]
            hv = (np.sum(phi * jac["B_v"], axis=1) + np.sum(lam * jac["Sigma_v"], axis=1)
                  + jac["F_v"])
            sq += float(np.mean(hv**2)) * grid.dt
            step = np.clip(u - hv, *domain)
            sq_proj += float(np.mean((u - step) ** 2)) * grid.dt
        rep = stationarity_report(spec, path, adj)
        assert rep["residual"] == pytest.approx(math.sqrt(sq), rel=1e-12)
        assert rep["projected_residual"] == pytest.approx(math.sqrt(sq_proj), rel=1e-12)
        if domain[0] > -math.inf:
            assert rep["projected_residual"] < 0.5 * rep["residual"]

    def test_finite_difference_route_through_the_sweep(self, spec, ensemble):
        _, path, adj = ensemble
        fd_coeffs = DifferenceCoeffs(spec)
        fd = solve_adjoint_bsde(spec, path, coeffs=fd_coeffs)
        for name in ("phi", "lam", "dH_dv"):
            assert np.max(np.abs(getattr(fd, name) - getattr(adj, name))) <= 1e-8, name

    def test_zero_cost_problem_has_zero_adjoint(self):
        flat = LQSpec(a=(0.5, -0.5), b=(1.0, 0.5), sigma=0.3, Q=(0.0, 0.0),
                      R=(1.0, 2.0), G=(0.0, 0.0), lambda1=1.0, lambda2=1.0,
                      horizon=1.0, x0=1.0, pi0=0.5)
        grid = TimeGrid(1.0, 50)
        path = innovation_forward(flat, grid, 256, 2, policy=zero_policy())
        adj = solve_adjoint_bsde(flat, path)
        assert np.max(np.abs(adj.phi)) <= 1e-12
        assert np.max(np.abs(adj.lam)) <= 1e-12
        rep = stationarity_report(flat, path, adj)
        assert rep["residual"] <= 1e-12

    def test_path_order_invariance(self, spec, ensemble):
        grid, path, adj = ensemble
        perm = np.random.default_rng(3).permutation(path.n_paths)
        shuffled = InnovationPath(
            grid=grid, states=path.states[perm], probs=path.probs[perm],
            controls=path.controls[perm], dnu=path.dnu[perm],
            seed=path.seed)
        adj2 = solve_adjoint_bsde(spec, shuffled)
        assert np.max(np.abs(adj2.phi - adj.phi[perm])) <= 1e-8
        assert np.max(np.abs(adj2.lam - adj.lam[perm])) <= 1e-8

    def test_r_squared_does_not_depend_on_the_units_of_the_cost(self, lq, ensemble):
        # Q, R and G times c leave the zero-policy paths as they are and
        # scale every regression target by c, so R^2 must not move
        grid, path, adj = ensemble
        c = 1e-10
        cheap = dataclasses.replace(lq, Q=tuple(c * q for q in lq.Q),
                                    R=tuple(c * r for r in lq.R),
                                    G=tuple(c * g for g in lq.G))
        scaled = solve_adjoint_bsde(cheap, path)
        assert adj.r_squared.min() < 0.99
        assert np.max(np.abs(scaled.r_squared - adj.r_squared)) <= 1e-9
        assert np.array_equal(scaled.svd_fallback, adj.svd_fallback)


class TestStepMajorSweep:
    """The sweep stores its adjoints step-major and reads the path's rows;
    its output does not depend on how the path is stored."""

    def test_adjoint_keeps_its_shapes_with_contiguous_rows(self, ensemble):
        grid, path, adj = ensemble
        n, N = path.n_paths, grid.n_steps
        assert adj.phi.shape == (n, N + 1, 2) and adj.dH_dv.shape == (N, n)
        assert adj.lam.shape == adj.phi_pred.shape == (n, N, 2)
        assert adj.phi[:, N].flags.c_contiguous
        for k in range(N):
            assert (adj.phi[:, k].flags.c_contiguous and adj.lam[:, k].flags.c_contiguous
                    and adj.phi_pred[:, k].flags.c_contiguous and adj.dH_dv[k].flags.c_contiguous)

    def test_sweep_on_a_path_major_copy_is_bit_identical(self, spec, ensemble):
        grid, path, adj = ensemble
        copy = InnovationPath(grid=grid, states=path.states.copy(), probs=path.probs.copy(),
                              controls=path.controls.copy(), dnu=path.dnu.copy(), seed=path.seed)
        assert not copy.states[:, 0].flags.c_contiguous  # a path-major copy
        other = solve_adjoint_bsde(spec, copy)
        # rank-deficient steps near the start are covered too
        assert np.array_equal(other.ranks, adj.ranks) and adj.ranks.min() < PolyBasis().n_terms
        for name in ("phi", "lam", "phi_pred", "dH_dv", "r_squared", "svd_fallback"):
            assert np.array_equal(getattr(other, name), getattr(adj, name)), name


def _synthetic_path(grid: TimeGrid, n: int, sigma: float,
                    seed: int) -> InnovationPath:
    # dispersed initial states keep the per-step regressions conditioned
    # at every node (a point mass at t=0 has no cross-section to fit)
    rng = np.random.default_rng(seed)
    dnu = rng.normal(0.0, math.sqrt(grid.dt), (n, grid.n_steps))
    states = rng.normal(0.0, 1.0, (n, 1)) + np.concatenate(
        [np.zeros((n, 1)), sigma * np.cumsum(dnu, axis=1)], axis=1)
    probs = np.full((n, grid.n_steps + 1, 2), 0.5)
    controls = np.zeros((n, grid.n_steps))
    return InnovationPath(grid=grid, states=states, probs=probs,
                          controls=controls, dnu=dnu, seed=seed)


@dataclasses.dataclass
class _LinearCoeffs:
    """Driver B_Theta = a I, Sigma_Theta = 0, F_Theta = 0 (so dH/dTheta = a
    phi), dH/dv = 0 and terminal gradient (x, p): the backward recursion
    then has the closed form Phi_k = (1 + a dt)^(N-k) (X_k, p_k) along
    martingale forwards."""

    a: float

    def at(self, t, x, p, u):
        return types.SimpleNamespace(H_theta=lambda phi, lam: self.a * phi,
                                     H_v=lambda phi, lam: np.zeros(len(x)))

    def G_theta(self, x, p):
        return np.stack([x, p], axis=1)


class TestLinearOracle:
    def test_value_and_martingale_coefficients(self, spec):
        a_rate, sigma = 0.8, 0.5
        grid = TimeGrid(1.0, 40)
        path = _synthetic_path(grid, 2000, sigma, seed=9)
        adj = solve_adjoint_bsde(spec, path, coeffs=_LinearCoeffs(a_rate))
        growth = (1.0 + a_rate * grid.dt) ** np.arange(grid.n_steps, -1, -1)
        worst_phi = 0.0
        worst_lam = 0.0
        for k in range(grid.n_steps + 1):
            exact = growth[k] * path.states[:, k]
            err = np.sqrt(np.mean((adj.phi[:, k, 0] - exact) ** 2))
            scale = np.sqrt(np.mean(exact**2))
            worst_phi = max(worst_phi, err / scale)
            if k < grid.n_steps:
                lam_exact = growth[k + 1] * sigma
                lam_err = np.sqrt(np.mean(
                    (adj.lam[:, k, 0] - lam_exact) ** 2))
                worst_lam = max(worst_lam, lam_err / lam_exact)
        assert worst_phi <= 0.05
        # the martingale integrand carries O(1) per-sample noise even
        # with the control variate, so its floor is sqrt(2 rank/n)
        assert worst_lam <= 0.15

    def test_moving_belief_oracle_takes_the_gram_route(self, spec):
        # Criterion 7's fake at its size, but pi is a bounded martingale
        # independent of dnu, p_{k+1} = p_k + c p_k (1 - p_k) eps_k with
        # eps_k = +-sqrt(dt), so the pi columns are no multiples of the x
        # columns.  E_k p_N = p_k, so the exact value is growth_k (x_k, p_k),
        # the x integrand is growth_{k+1} sigma and the pi integrand is 0.
        a_rate, sigma, c = 0.8, 0.5, 2.0
        grid = TimeGrid(1.0, 100)
        n = 10_000
        path = _synthetic_path(grid, n, sigma, seed=42)
        rng = np.random.default_rng(43)
        eps = math.sqrt(grid.dt) * rng.choice((-1.0, 1.0), (n, grid.n_steps))
        p = np.empty((n, grid.n_steps + 1))
        p[:, 0] = rng.uniform(0.2, 0.8, n)
        for k in range(grid.n_steps):
            p[:, k + 1] = p[:, k] + c * p[:, k] * (1.0 - p[:, k]) * eps[:, k]
        path = dataclasses.replace(path, probs=np.stack([p, 1.0 - p], axis=2))
        adj = solve_adjoint_bsde(spec, path, coeffs=_LinearCoeffs(a_rate))
        assert not adj.svd_fallback.any()
        assert (adj.ranks == PolyBasis().n_terms).all()

        growth = (1.0 + a_rate * grid.dt) ** np.arange(grid.n_steps, -1, -1)
        worst_phi = np.zeros(2)
        worst_lam_x = worst_lam_p = 0.0
        for k in range(grid.n_steps + 1):
            for j, theta in enumerate((path.states[:, k], p[:, k])):
                exact = growth[k] * theta
                err = np.sqrt(np.mean((adj.phi[:, k, j] - exact) ** 2))
                worst_phi[j] = max(worst_phi[j], err / np.sqrt(np.mean(exact**2)))
            if k < grid.n_steps:
                lam_exact = growth[k + 1] * sigma
                lam_err = np.sqrt(np.mean((adj.lam[:, k, 0] - lam_exact) ** 2))
                worst_lam_x = max(worst_lam_x, lam_err / lam_exact)
                worst_lam_p = max(worst_lam_p, np.sqrt(np.mean(adj.lam[:, k, 1] ** 2)))
        # criterion 7's bounds
        assert worst_phi.max() <= 0.05
        assert worst_lam_x <= 0.10
        # With the path seed s and the belief seed s + 1 for s = 0..49, the
        # worst step's RMS pi integrand was 0.032-0.053 (median 0.037); the
        # bound leaves 1.5x over the largest.
        assert worst_lam_p <= 0.08

    def test_constant_terminal_is_reproduced_exactly(self, spec):
        grid = TimeGrid(1.0, 30)
        path = _synthetic_path(grid, 500, 0.4, seed=4)

        @dataclasses.dataclass
        class _Const(_LinearCoeffs):
            def G_theta(self, x, p):
                out = np.empty((len(x), 2))
                out[:, 0] = 1.0
                out[:, 1] = 2.0
                return out

        adj = solve_adjoint_bsde(spec, path, coeffs=_Const(a=0.0))
        assert np.max(np.abs(adj.phi[:, :, 0] - 1.0)) <= 1e-10
        assert np.max(np.abs(adj.phi[:, :, 1] - 2.0)) <= 1e-10
        # centering makes the martingale target identically zero here
        assert np.max(np.abs(adj.lam)) <= 1e-10


class TestRegressionMachinery:
    def test_basis_term_count(self):
        assert PolyBasis(3).n_terms == 10
        assert PolyBasis(2).n_terms == 6
        assert PolyBasis(1).n_terms == 3

    @pytest.mark.parametrize("degree", range(7))
    def test_design_by_running_products_matches_powers(self, rng, degree):
        basis = PolyBasis(degree)
        x = rng.normal(0.5, 2.0, 300)
        p = rng.uniform(0.0, 1.0, 300)
        loc, scale = 0.4, 1.7
        z = (x - loc) / scale
        want = np.stack([z**i * p**j for i, j in basis.exponents], axis=1)
        got = basis.design(x, p, loc, scale)
        assert got.shape == (300, basis.n_terms)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        # a lattice of rows gives each row's design along the last axis
        rows = basis.design(x.reshape(3, 100), p.reshape(3, 100), loc, scale)
        assert np.array_equal(rows.reshape(300, -1), got)

    def test_design_columns_follow_exponents(self):
        assert PolyBasis(2).exponents == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        A = PolyBasis(2).design(np.array([2.0]), np.array([3.0]))
        assert A.tolist() == [[1.0, 3.0, 2.0, 9.0, 6.0, 4.0]]

    def test_projector_reproduces_polynomials(self, rng):
        x = rng.normal(0.0, 1.0, 400)
        p = rng.uniform(0.0, 1.0, 400)
        basis = PolyBasis(3)
        A = basis.design(x, p)
        target = 0.3 - 1.2 * x + 0.7 * p * x**2 - 0.1 * p**3
        proj = StepProjector(A)
        assert np.max(np.abs(proj.fitted(target) - target)) <= 1e-9

    def test_projector_rejects_nan_design(self):
        A = np.ones((50, 3))
        A[7, 1] = np.nan
        with pytest.raises(RegressionError):
            StepProjector(A)

    def test_projector_truncates_collinear_columns(self, rng):
        x = rng.normal(0.0, 1.0, 200)
        A = np.stack([np.ones_like(x), x, x, 2 * x], axis=1)
        proj = StepProjector(A)
        assert proj.rank == 2
        target = 1.0 + 3.0 * x
        assert np.max(np.abs(proj.fitted(target) - target)) <= 1e-9
        assert proj.svd_fallback

    def test_gram_route_matches_the_svd_route(self, rng, monkeypatch):
        n = 2048
        A = PolyBasis(3).design(rng.normal(0.0, 1.0, n), rng.uniform(0.1, 0.9, n))
        y = rng.normal(0.0, 1.0, (n, 2))
        gram = StepProjector(A)
        assert not gram.svd_fallback and gram.rank == A.shape[1]
        assert np.max(np.abs(gram.U.T @ gram.U - np.eye(gram.rank))) <= 1e-13
        monkeypatch.setattr(adjoint_mod, "GRAM_MIN_RATIO", np.inf)
        svd = StepProjector(A)
        assert svd.svd_fallback and svd.rank == gram.rank
        assert np.max(np.abs(gram.fitted(y) - svd.fitted(y))) <= 1e-12
        assert np.max(np.abs(gram.coef(y) - svd.coef(y))) <= 1e-12

    @pytest.mark.parametrize("ratio, fallback", [(0.9e-6, True), (1.1e-6, False)],
                             ids=["beyond", "inside"])
    def test_gram_ratio_decides_the_route(self, rng, ratio, fallback):
        # singular values from 1 down to ``ratio``: the Gram eigenvalues
        # span ratio^2, just beyond or just inside GRAM_MIN_RATIO; both
        # designs are full rank under the RCOND rule
        n, m = 1000, 10
        left, _ = np.linalg.qr(rng.normal(0.0, 1.0, (n, m)))
        right, _ = np.linalg.qr(rng.normal(0.0, 1.0, (m, m)))
        A = (left * np.geomspace(1.0, ratio, m)) @ right.T
        proj = StepProjector(A)
        assert proj.svd_fallback == fallback
        assert proj.rank == m
        assert np.max(np.abs(proj.U.T @ proj.U - np.eye(m))) <= 1e-13
        y = rng.normal(0.0, 1.0, n)
        assert np.max(np.abs(proj.fitted(y) - left @ (left.T @ y))) <= 1e-9

    def test_overflowing_gram_takes_the_svd_route(self, rng):
        # finite entries whose squares overflow: the SVD scales them
        A = rng.normal(0.0, 1.0, (50, 3))
        y = rng.normal(0.0, 1.0, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proj = StepProjector(A * 1e160)
        assert proj.svd_fallback and proj.rank == 3
        unit = StepProjector(A)
        assert not unit.svd_fallback
        assert np.max(np.abs(proj.fitted(y) - unit.fitted(y))) <= 1e-12
        assert np.max(np.abs(proj.coef(y) * 1e160 - unit.coef(y))) <= 1e-12
