from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from hybridmp import (
    CompactCoeffs,
    ConfigError,
    FeedbackPolicy,
    GeneratorSpec,
    LQSpec,
    TimeGrid,
    chain_marginal,
    constant_policy,
    coupled_forward,
    discrete_bayes_oracle,
    innovation_forward,
    load_spec,
    run_normalized_filter,
    run_zakai_filter,
    simulate_state,
    validate_spec,
    zero_policy,
)
from hybridmp.errors import DomainError
from hybridmp.model import drift_table, running_cost_table, terminal_cost_table
from hybridmp.pathsim import control_at

rates = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)


class TestGeneratorSpec:
    def test_two_state_matrix(self):
        g = GeneratorSpec(1.0, 2.0)
        assert np.allclose(g.matrix, [[-1.0, 1.0], [2.0, -2.0]])
        assert g.lambda1 == 1.0 and g.lambda2 == 2.0
        assert g.max_exit_rate == 2.0

    def test_rejects_negative_rate(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(-0.5, 1.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ConfigError, match="finite"):
            GeneratorSpec(rate, 1.0)

    def test_zero_rates_give_identity_kernel(self):
        g = GeneratorSpec(0.0, 0.0)
        assert np.allclose(g.transition_matrix(0.3), np.eye(2))

    @given(lam1=rates, lam2=rates, dt=st.floats(min_value=1e-6, max_value=0.5))
    def test_kernel_matches_matrix_exponential(self, lam1, lam2, dt):
        g = GeneratorSpec(lam1, lam2)
        P = g.transition_matrix(dt)
        assert np.allclose(P, expm(g.matrix * dt), atol=1e-12)

    @given(lam1=rates, lam2=rates, dt=st.floats(min_value=1e-6, max_value=0.5))
    def test_kernel_is_stochastic(self, lam1, lam2, dt):
        P = GeneratorSpec(lam1, lam2).transition_matrix(dt)
        assert np.all(P >= -1e-15)
        assert np.allclose(P.sum(axis=1), 1.0)

    def test_marginal_solves_forward_equation(self, lq):
        spec = LQSpec(**{**_fields(lq), "lambda1": 1.5, "lambda2": 0.7, "pi0": 0.3})
        p0 = np.array([0.3, 0.7])
        t = 0.9
        assert np.allclose(chain_marginal(spec, t), p0 @ expm(spec.generator.matrix * t))


@pytest.mark.parametrize("module", ["hybridmp", "hybridmp.cli"])
def test_import_loads_no_scipy(module):
    # scipy is a test-only reference; the package runs on numpy alone,
    # and in one thread, so it loads no executor pool either
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith('concurrent.futures')))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


class TestLQSpec:
    def test_rejects_bad_constants(self, lq):
        with pytest.raises(ConfigError):
            LQSpec(**{**_fields(lq), "sigma": 0.0})
        with pytest.raises(ConfigError):
            LQSpec(**{**_fields(lq), "R": (1.0, 0.0)})
        with pytest.raises(ConfigError):
            LQSpec(**{**_fields(lq), "Q": (-1.0, 1.0)})
        with pytest.raises(ConfigError):
            LQSpec(**{**_fields(lq), "pi0": 1.5})
        with pytest.raises(ConfigError):
            LQSpec(**{**_fields(lq), "lambda1": -2.0})
        with pytest.raises(ConfigError, match="finite"):
            LQSpec(**{**_fields(lq), "a": (math.nan, 0.5)})
        with pytest.raises(ConfigError, match="finite"):
            LQSpec(**{**_fields(lq), "x0": math.inf})
        with pytest.raises(ConfigError, match="control_domain"):
            LQSpec(**{**_fields(lq), "control_domain": (math.nan, 1.0)})
        LQSpec(**{**_fields(lq), "control_domain": (-math.inf, 1.0)})

    @pytest.mark.parametrize("pi0, match", [(1.5, "lie in"), (-0.5, "lie in"),
                                            (math.nextafter(1.0, 2.0), "lie in"),
                                            (-5e-324, "lie in"), (math.nan, "finite")])
    def test_rejects_a_pi0_outside_the_unit_interval(self, lq, pi0, match):
        with pytest.raises(ConfigError, match=match):
            LQSpec(**{**_fields(lq), "pi0": pi0})

    @pytest.mark.parametrize("domain", [(1.0, 1.0), (2.0, -1.0), (math.inf, math.inf)])
    def test_rejects_a_degenerate_control_domain(self, lq, domain):
        with pytest.raises(ConfigError, match="non-degenerate interval"):
            LQSpec(**{**_fields(lq), "control_domain": domain})

    def test_json_round_trip(self, lq):
        assert LQSpec.from_json(lq.to_json()) == lq

    def test_json_round_trip_with_bounds(self, lq):
        bounded = LQSpec(**{**_fields(lq), "control_domain": (-2.0, 3.0)})
        doc = bounded.to_json()
        assert doc["u_lo"] == -2.0 and doc["u_hi"] == 3.0
        assert LQSpec.from_json(doc) == bounded

    def test_json_missing_key(self, lq):
        doc = lq.to_json()
        del doc["sigma"]
        with pytest.raises(ConfigError, match="sigma"):
            LQSpec.from_json(doc)

    def test_problem_spec_coefficients(self, lq, spec):
        x, u = np.array([1.3, -2.0]), np.array([-0.4, 0.7])
        for i in (1, 2):
            assert drift_table(spec, x, u)[i - 1] == pytest.approx(
                lq.a[i - 1] * x + lq.b[i - 1] * u)
            assert running_cost_table(spec, x, u)[i - 1] == pytest.approx(
                0.5 * (lq.Q[i - 1] * x * x + lq.R[i - 1] * u * u))
            assert terminal_cost_table(spec, x)[i - 1] == pytest.approx(
                0.5 * lq.G[i - 1] * x * x)
        assert spec.volatility() == lq.sigma
        assert spec.prior.tolist() == [0.5, 0.5]

    def test_generator_matches_rates(self, lq):
        g = lq.generator
        assert g.lambda1 == lq.lambda1 and g.lambda2 == lq.lambda2


class TestProblem:
    @pytest.mark.parametrize("pi0", [0.0, 0.1, 0.3, 0.5, 1.0, 5e-324, math.nextafter(1.0, 0.0)])
    def test_pi0_pair_sums_to_one(self, lq, pi0):
        prior = LQSpec(**{**_fields(lq), "pi0": pi0}).prior
        assert prior[0] == pi0 and sum(prior) == 1.0

    def test_clamp_control(self, lq):
        bounded = LQSpec(**{**_fields(lq), "control_domain": (-1.0, 1.0)})
        u = control_at(bounded, 0.0, np.zeros(2), None, control=np.array([5.0, -5.0]))
        assert u.tolist() == [1.0, -1.0]

    @pytest.mark.parametrize("run", [
        lambda s, g, x, u: simulate_state(s, g, 4, 1),
        lambda s, g, x, u: coupled_forward(s, g, 4, 1),
        lambda s, g, x, u: innovation_forward(s, g, 4, 1),
        lambda s, g, x, u: run_normalized_filter(s, g, x, u),
        lambda s, g, x, u: run_zakai_filter(s, g, x, u),
        lambda s, g, x, u: discrete_bayes_oracle(s, g, x, u),
        lambda s, g, x, u: CompactCoeffs(s).at(0.0, x[:, 0], np.full(4, 0.5), u[:, 0]),
    ], ids=["simulate_state", "coupled_forward", "innovation_forward",
            "run_normalized_filter", "run_zakai_filter", "discrete_bayes_oracle",
            "CompactCoeffs.at"])
    def test_every_pass_names_a_volatility_below_the_floor(self, lq, run):
        low = LQSpec(**{**_fields(lq), "sigma": 1e-9})
        grid = TimeGrid(1.0, 100)  # the oracle wants dt <= 1e-2
        states, controls = np.ones((4, 101)), np.zeros((4, 100))
        with pytest.raises(DomainError, match="below the floor 1e-08"):
            run(low, grid, states, controls)

    def test_validate_clean_default(self, spec):
        assert validate_spec(spec) == []

    def test_validate_flags_steep_drift(self, lq):
        steep = LQSpec(**{**_fields(lq), "a": (1e9, -1e9)})
        problems = validate_spec(steep)
        assert problems and any("b_x" in msg for msg in problems)

    def test_validate_reports_a_non_finite_drift(self, lq):
        # a1 x and b1 v overflow to +inf and -inf off x = 0 and v = 0, so the
        # drift is NaN where they meet; NaN fails every comparison, so it must
        # be looked for (1320 points: 770 infinite and 550 NaN)
        wild = LQSpec(**{**_fields(lq), "a": (1e308, lq.a[1]), "b": (-1e308, lq.b[1])})
        assert validate_spec(wild) == [
            "A1: b(.,.,1,.) is non-finite at 1320 of 1331 lattice points"]

    def test_chain_marginal_closed_form(self, spec):
        # two-state occupation probability from the forward equation
        lam = 2.0
        p1 = 0.5 + (spec.pi0 - 0.5) * math.exp(-lam * 0.7)
        assert chain_marginal(spec, 0.7)[0] == pytest.approx(p1)


class TestPolicies:
    def test_zero_policy(self):
        u = zero_policy()(0.1, np.array([1.0, 2.0]), np.array([0.2, 0.9]))
        assert np.all(u == 0.0)

    def test_constant_policy_clamps(self):
        pol = constant_policy(4.0, control_domain=(-1.0, 1.0))
        assert pol(0.0, 0.0, 0.5) == 1.0

    def test_feedback_policy_clamps_function_output(self):
        pol = FeedbackPolicy(lambda t, x, p: 10.0 * x,
                             control_domain=(-2.0, 2.0))
        assert pol(0.0, 5.0, 0.5) == 2.0
        assert pol(0.0, -5.0, 0.5) == -2.0


class TestSerialization:
    def test_spec_json_round_trip(self, spec):
        doc = spec.to_json()
        again = LQSpec.from_json(doc)
        assert again == spec
        assert again.horizon == spec.horizon

    def test_load_spec_file(self, tmp_path, lq):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(lq.to_json()))
        assert load_spec(str(path)) == lq


def _fields(lq: LQSpec) -> dict:
    return {name: getattr(lq, name) for name in lq.__dataclass_fields__}
