"""End-to-end acceptance checks, one per shipped guarantee.

Each test records a PASS/FAIL line (printed in the terminal summary)
before asserting, so a red run still reports every criterion.  Sizes
are chosen so the whole module stays within a few minutes on a laptop
core while leaving each statistic a comfortable margin at seed 42.
"""
from __future__ import annotations

import hashlib
import json
import math
import types

import numpy as np
import pytest

import _report
from hybridmp import (
    FeedbackPolicy,
    TimeGrid,
    cost_from_paths,
    zero_policy,
)
from hybridmp.adjoint import gateaux_derivative, solve_adjoint_bsde
from hybridmp.harness import ExperimentConfig, _direction_set, run_suite
from hybridmp.lq import (
    full_observation_baseline,
    riccati_backward,
    riccati_cost,
    solve_lq,
)
from hybridmp.pathsim import RunningMoments, chain_marginal, run_blocks
from hybridmp.wonham import (
    InnovationPath,
    coupled_forward,
    discrete_bayes_oracle,
    innovation_forward,
    run_normalized_filter,
    run_zakai_filter,
    transformed_cost_paths,
)

SEED = 42


@pytest.fixture(scope="module")
def coupled_1k(spec):
    grid = TimeGrid(1.0, 1000)
    return grid, coupled_forward(spec, grid, 1000, SEED)


@pytest.fixture(scope="module")
def solved(lq):
    grid = TimeGrid(1.0, 400)
    sol = solve_lq(lq, grid, n_paths=4096, seed=SEED)
    return grid, sol


def test_01_filter_normalization(spec, coupled_1k):
    grid, cp = coupled_1k
    fp = run_normalized_filter(spec, grid, cp.bundle.states,
                               cp.bundle.controls, excursion_tol=1e-4)
    in_simplex = bool(np.all((fp.probs >= 0.0) & (fp.probs <= 1.0)))
    frac = fp.clamp_events / (fp.n_paths * grid.n_steps)
    ok = in_simplex and frac < 1e-3
    _report.record(1, "filter normalization", ok,
                   f"in [0,1]: {in_simplex}, excursions beyond 1e-4 on "
                   f"{100 * frac:.4f}% of steps (< 0.1%)")
    assert ok


def test_02_tower_property(spec):
    grid = TimeGrid(1.0, 1000)
    nodes = [250, 500, 1000]

    def block(offset, count):
        cp = coupled_forward(spec, grid, count, SEED, path_offset=offset)
        moms = []
        for node in nodes:
            m = RunningMoments()
            m.add(cp.filter_path.probs[:, node, 0])
            moms.append(m)
        return moms

    accs = [RunningMoments() for _ in nodes]
    for moms in run_blocks(block, 100_000, block_size=4096, workers=1):
        for acc, part in zip(accs, moms):
            acc.merge(part)

    z_max = 0.0
    for node, acc in zip(nodes, accs):
        target = chain_marginal(spec, grid.times[node])[0]
        z_max = max(z_max, abs(acc.mean - target) / acc.std_error)
    ok = z_max <= 3.0
    _report.record(2, "tower property", ok,
                   f"max |mean(pi_t) - P(regime 1)| = {z_max:.2f} SE "
                   f"over t in {{0.25, 0.5, 1.0}}, 1e5 paths (<= 3)")
    assert ok


def test_03_innovation_whiteness(coupled_1k):
    grid, cp = coupled_1k
    dnu = cp.filter_path.nu_increments
    qv_err = float(np.mean(np.abs(np.sum(dnu**2, axis=1) - grid.horizon))
                   / grid.horizon)
    lag1 = np.sum(dnu[:, :-1] * dnu[:, 1:], axis=1)
    z = abs(lag1.mean()) / (lag1.std(ddof=1) / math.sqrt(len(lag1)))
    ok = qv_err <= 0.05 and z <= 3.0
    _report.record(3, "innovation whiteness", ok,
                   f"mean |QV - T|/T = {qv_err:.4f} (<= 0.05), lag-1 "
                   f"autocorrelation z = {z:.2f} (<= 3)")
    assert ok


def test_04_ks_zakai_consistency(spec, coupled_1k):
    grid, _ = coupled_1k
    cp = coupled_forward(spec, grid, 100, SEED)

    def mean_sup_gap(grid_k, states, controls):
        fp = run_normalized_filter(spec, grid_k, states, controls)
        zk = run_zakai_filter(spec, grid_k, states, controls)
        sup = np.max(np.abs(zk.probs[..., 0] - fp.probs[..., 0]), axis=1)
        return float(np.mean(sup))

    fine = mean_sup_gap(grid, cp.bundle.states, cp.bundle.controls)
    coarse = mean_sup_gap(TimeGrid(1.0, 500), cp.bundle.states[:, ::2],
                          cp.bundle.controls[:, ::2])
    ratio = coarse / fine
    ok = ratio >= 1.2
    _report.record(4, "ks-zakai consistency", ok,
                   f"mean sup gap {coarse:.4f} (dt=2e-3) over {fine:.4f} "
                   f"(dt=1e-3): ratio {ratio:.2f} (>= 1.2), 100 paths")
    assert ok


def test_05_oracle_agreement(spec):
    fine = TimeGrid(1.0, 2000)
    cp = coupled_forward(spec, fine, 200, SEED)
    rmse = []
    for n_steps in (250, 500, 1000, 2000):
        factor = 2000 // n_steps
        grid_k = TimeGrid(1.0, n_steps)
        states = cp.bundle.states[:, ::factor]
        controls = cp.bundle.controls[:, ::factor]
        fp = run_normalized_filter(spec, grid_k, states, controls)
        oracle = discrete_bayes_oracle(spec, grid_k, states, controls)
        rmse.append(float(np.sqrt(np.mean(
            (fp.probs[..., 0] - oracle[..., 0]) ** 2))))
    ok = all(rmse[i] > rmse[i + 1] for i in range(len(rmse) - 1))
    _report.record(5, "oracle agreement", ok,
                   "filter-vs-oracle RMSE " +
                   " > ".join(f"{r:.5f}" for r in rmse) +
                   " monotone over n_steps {250,500,1000,2000}")
    assert ok


def test_06_cost_equivalence(spec):
    grid = TimeGrid(1.0, 1000)
    policy = FeedbackPolicy(lambda t, x, pi: -0.5 * x * pi)
    cp = coupled_forward(spec, grid, 10_000, SEED, policy=policy)
    realized = cost_from_paths(spec, cp.bundle)
    averaged = transformed_cost_paths(spec, grid, cp.bundle.states,
                                      cp.filter_path.probs,
                                      cp.bundle.controls)
    n = len(realized)
    se = math.hypot(realized.std(ddof=1), averaged.std(ddof=1)) \
        / math.sqrt(n)
    diff = abs(float(realized.mean()) - float(averaged.mean()))
    ok = diff <= 3.0 * se
    _report.record(6, "cost equivalence", ok,
                   f"|realized - regime-averaged| = {diff:.5f} "
                   f"(<= 3 SE = {3 * se:.5f}) at 1e4 paths")
    assert ok


def test_07_bsde_solver_oracle(spec):
    import dataclasses

    a_rate, sigma = 0.8, 0.5
    grid = TimeGrid(1.0, 100)
    n = 10_000
    rng = np.random.default_rng(SEED)
    dnu = rng.normal(0.0, math.sqrt(grid.dt), (n, grid.n_steps))
    states = rng.normal(0.0, 1.0, (n, 1)) + np.concatenate(
        [np.zeros((n, 1)), sigma * np.cumsum(dnu, axis=1)], axis=1)
    path = InnovationPath(
        grid=grid, states=states,
        probs=np.full((n, grid.n_steps + 1, 2), 0.5),
        controls=np.zeros((n, grid.n_steps)), dnu=dnu, seed=SEED)

    @dataclasses.dataclass
    class LinearCoeffs:
        a: float

        def at(self, t, x, p, u):
            # driver B_Theta = a I, Sigma_Theta = 0, F_Theta = 0
            return types.SimpleNamespace(H_theta=lambda phi, lam: self.a * phi,
                                         H_v=lambda phi, lam: np.zeros(len(x)))

        def G_theta(self, x, p):
            return np.stack([x, p], axis=1)

    adj = solve_adjoint_bsde(spec, path, coeffs=LinearCoeffs(a_rate))
    growth = (1.0 + a_rate * grid.dt) ** np.arange(grid.n_steps, -1, -1)
    worst_phi = 0.0
    worst_lam = 0.0
    for k in range(grid.n_steps + 1):
        exact = growth[k] * states[:, k]
        err = float(np.sqrt(np.mean((adj.phi[:, k, 0] - exact) ** 2)))
        worst_phi = max(worst_phi, err / float(np.sqrt(np.mean(exact**2))))
        if k < grid.n_steps:
            lam_exact = growth[k + 1] * sigma
            lam_err = float(np.sqrt(np.mean(
                (adj.lam[:, k, 0] - lam_exact) ** 2)))
            worst_lam = max(worst_lam, lam_err / lam_exact)
    ok = worst_phi <= 0.05 and worst_lam <= 0.10
    _report.record(7, "bsde solver oracle", ok,
                   f"closed-form max rel err: value {worst_phi:.4f} "
                   f"(<= 0.05), integrand {worst_lam:.4f} (<= 0.10) at "
                   f"1e4 paths, dt=1e-2")
    assert ok


def test_08_gateaux_consistency(spec):
    grid = TimeGrid(1.0, 200)
    eps = 1e-2
    path = innovation_forward(spec, grid, 2048, SEED, policy=zero_policy())
    base = transformed_cost_paths(spec, grid, path.states, path.probs,
                                  path.controls)
    worst = 0.0
    ok = True
    for w in _direction_set(grid, path):
        bumped = innovation_forward(spec, grid, path.n_paths, SEED,
                                    controls=path.controls + eps * w,
                                    dnu=path.dnu)
        costs = transformed_cost_paths(spec, grid, bumped.states,
                                       bumped.probs, bumped.controls)
        fd_paths = (costs - base) / eps
        fd = float(fd_paths.mean())
        se = float(fd_paths.std(ddof=1)) / math.sqrt(len(fd_paths))
        var = gateaux_derivative(spec, path, w)
        gap = abs(fd - var)
        tol = 3.0 * se + 0.1 * eps
        worst = max(worst, gap / tol)
        ok = ok and gap <= tol
    _report.record(8, "gateaux consistency", ok,
                   f"worst |FD - variational| / (3 SE + 0.1 eps) = "
                   f"{worst:.3f} (<= 1) over 5 directions, eps=1e-2")
    assert ok


def test_09_maximum_principle(lq, spec, solved):
    grid, sol = solved
    ratio = sol.residual["residual"] / sol.trace[0]["residual"]
    resid_ok = sol.converged and ratio <= 1e-2

    path = sol.path
    base = transformed_cost_paths(spec, grid, path.states, path.probs,
                                  path.controls)
    min_margin = math.inf
    local_ok = True
    for w in _direction_set(grid, path):
        for eps in (1e-2, -1e-2):
            bumped = innovation_forward(spec, grid, path.n_paths, SEED,
                                        controls=path.controls + eps * w,
                                        dnu=path.dnu)
            costs = transformed_cost_paths(spec, grid, bumped.states,
                                           bumped.probs, bumped.controls)
            diff = costs - base
            se = float(diff.std(ddof=1)) / math.sqrt(len(diff))
            allowance = 3.0 * se + 10.0 * eps**2
            margin = float(diff.mean()) + allowance
            min_margin = min(min_margin, margin)
            local_ok = local_ok and margin >= 0.0
    ok = resid_ok and local_ok
    _report.record(9, "maximum principle", ok,
                   f"residual ratio {ratio:.2e} (<= 1e-2); "
                   f"min J(u+eps v) - J(u) + allowance = {min_margin:.5f} "
                   f"(>= 0) over 5 directions, eps=+/-1e-2, CRN")
    assert ok


def test_10_degenerate_regime_equivalence(regime_free):
    grid = TimeGrid(1.0, 250)
    sol = solve_lq(regime_free, grid, n_paths=4096, seed=SEED)
    K, c = riccati_backward(regime_free, grid)
    oracle = riccati_cost(regime_free, K, c)
    tol = 3.0 * sol.cost.std_error + 2.0 * grid.dt
    diff = abs(sol.cost.mean - oracle)
    ok = sol.converged and diff <= tol
    _report.record(10, "degenerate-regime equivalence", ok,
                   f"|solve cost {sol.cost.mean:.5f} - Riccati "
                   f"{oracle:.5f}| = {diff:.5f} (<= 3 SE + 2 dt = "
                   f"{tol:.5f})")
    assert ok


def test_11_information_monotonicity(lq, solved):
    grid, sol = solved
    est, _ = full_observation_baseline(lq, grid, 10_000, seed=7)
    slack = 3.0 * math.hypot(est.std_error, sol.cost.std_error)
    ok = est.mean <= sol.cost.mean + slack
    _report.record(11, "information monotonicity", ok,
                   f"full-observation cost {est.mean:.5f} <= partial "
                   f"{sol.cost.mean:.5f} + 3 SE ({slack:.5f})")
    assert ok


def test_12_determinism(tmp_path, lq):
    spec_doc = lq.to_json()
    digests = []
    for tag, workers in (("a", 1), ("b", 4), ("c", 1)):
        out = tmp_path / tag
        cfg_path = tmp_path / f"cfg_{tag}.json"
        cfg_path.write_text(json.dumps({
            "suite": "filter-check", "spec": spec_doc, "n_steps": 200,
            "n_paths": 200, "seed": SEED, "out": str(out),
            "tolerances": {"qv_error": 0.2},
        }), encoding="utf-8")
        cfg = ExperimentConfig.from_file(str(cfg_path), workers=workers)
        run_suite(cfg)
        digests.append(hashlib.sha256(
            (out / "results.json").read_bytes()).hexdigest())
    ok = len(set(digests)) == 1
    _report.record(12, "determinism", ok,
                   f"results.json sha256 identical across workers "
                   f"{{1, 4, 1}}: {digests[0][:12]}...")
    assert ok
