from __future__ import annotations

import dataclasses
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
    ConfigError,
    FeedbackPolicy,
    GeneratorSpec,
    LQSpec,
    chain_marginal,
    constant_policy,
    load_spec,
    validate_spec,
    zero_policy,
)
from hybridmp.model import central_diff, eval_sigma
from hybridmp.errors import DomainError

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

    def test_marginal_solves_forward_equation(self):
        g = GeneratorSpec(1.5, 0.7)
        p0 = np.array([0.3, 0.7])
        t = 0.9
        assert np.allclose(g.marginal(p0, t), p0 @ expm(g.matrix * t))


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
        x, u = 1.3, -0.4
        for i in (1, 2):
            assert spec.drift(0.1, x, i, u) == pytest.approx(
                lq.a[i - 1] * x + lq.b[i - 1] * u)
            assert spec.vol(0.1, x, u) == pytest.approx(lq.sigma)
            assert spec.running_cost(0.1, x, i, u) == pytest.approx(
                0.5 * (lq.Q[i - 1] * x * x + lq.R[i - 1] * u * u))
            assert spec.terminal_cost(x, i) == pytest.approx(
                0.5 * lq.G[i - 1] * x * x)
        assert spec.lq is lq
        assert spec.pi0 == (0.5, 0.5)

    def test_generator_matches_rates(self, lq):
        g = lq.generator()
        assert g.lambda1 == lq.lambda1 and g.lambda2 == lq.lambda2


class TestProblemSpec:
    def test_pi0_normalized(self, lq):
        p = lq.to_problem_spec()
        assert math.isclose(sum(p.pi0), 1.0)

    @pytest.mark.parametrize("pi0", [(1.0,), (0.5, 0.25, 0.25), (1.5, -0.5), (0.5, 0.6),
                                     (math.nan, math.nan)])
    def test_rejects_a_pi0_that_is_not_a_probability_pair(self, spec, pi0):
        with pytest.raises(ConfigError, match="probability pair"):
            dataclasses.replace(spec, pi0=pi0)

    def test_clamp_control(self, lq):
        bounded = LQSpec(**{**_fields(lq), "control_domain": (-1.0, 1.0)})
        p = bounded.to_problem_spec()
        assert p.clamp_control(5.0) == 1.0
        assert p.clamp_control(-5.0) == -1.0

    def test_eval_sigma_floor(self, spec):
        assert eval_sigma(spec, 0.0, 1.0, 0.0) == pytest.approx(0.3)
        degenerate = dataclasses.replace(spec, lq=None)
        object.__setattr__(degenerate, "vol", lambda t, x, v: 0.0)
        with pytest.raises(DomainError):
            eval_sigma(degenerate, 0.0, 1.0, 0.0)

    def test_eval_sigma_names_a_volatility_below_the_floor(self, spec):
        low = dataclasses.replace(spec, lq=None,
                                  vol=lambda t, x, v: np.where(np.abs(x) > 2, 1e-9, 0.3))
        with pytest.raises(DomainError, match="below the floor 1e-08"):
            eval_sigma(low, 0.0, np.linspace(-3.0, 3.0, 7), 0.0)

    def test_eval_sigma_names_a_non_finite_volatility(self, spec):
        # inf or NaN is not a volatility below the floor
        for bad in (np.inf, np.nan):
            wild = dataclasses.replace(
                spec, lq=None, vol=lambda t, x, v, bad=bad: np.where(np.abs(x) > 2, bad, 0.3))
            with pytest.raises(DomainError, match="non-finite volatility") as exc:
                eval_sigma(wild, 0.0, np.linspace(-3.0, 3.0, 7), 0.0)
            assert "floor" not in str(exc.value)

    def test_validate_clean_default(self, spec):
        assert validate_spec(spec) == []

    def test_validate_reports_a_non_finite_drift(self, spec):
        # NaN fails every comparison, so it must be looked for; 8 of the
        # 11 lattice x values have |x| > 2, so 968 of 1331 points
        nan_drift = dataclasses.replace(
            spec, lq=None,
            drift=lambda t, x, i, v: np.where(np.abs(x) > 2, np.nan, spec.drift(t, x, i, v)))
        assert validate_spec(nan_drift) == [
            f"A1: b(.,.,{i},.) is non-finite at 968 of 1331 lattice points" for i in (1, 2)]

    def test_validate_reports_a_non_finite_volatility(self, spec):
        # not "|sigma_x| reaches nan": the derivative checks are skipped
        inf_vol = dataclasses.replace(
            spec, lq=None, vol=lambda t, x, v: np.where(np.abs(x) > 2, np.inf, 0.3))
        assert validate_spec(inf_vol) == [
            "A1: sigma is non-finite at 968 of 1331 lattice points"]

    def test_validate_flags_steep_drift(self, lq):
        steep = LQSpec(**{**_fields(lq), "a": (1e9, -1e9)})
        problems = validate_spec(steep.to_problem_spec())
        assert problems and any("b_x" in msg for msg in problems)

    def test_chain_marginal_closed_form(self, spec):
        # two-state occupation probability from the forward equation
        lam = 2.0
        p1 = 0.5 + (spec.pi0[0] - 0.5) * math.exp(-lam * 0.7)
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
        doc = spec.lq.to_json()
        again = LQSpec.from_json(doc).to_problem_spec()
        assert again.lq == spec.lq
        assert again.horizon == spec.horizon

    def test_load_spec_file(self, tmp_path, lq):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(lq.to_json()))
        assert load_spec(str(path)).lq == lq


class TestCentralDiff:
    def test_matches_polynomial_derivative(self):
        f = lambda x: x ** 3 - 2.0 * x
        for x in (-1.5, 0.0, 2.0):
            assert central_diff(f, x) == pytest.approx(3 * x * x - 2.0, rel=1e-6)


def _fields(lq: LQSpec) -> dict:
    return {name: getattr(lq, name) for name in lq.__dataclass_fields__}
