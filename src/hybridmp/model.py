"""Problem definition: LQ constants, regime generator, admissibility.

A control problem is a linear-quadratic diffusion whose drift, running
cost and terminal cost switch with a hidden two-state Markov chain:

    dX_t = [a(alpha_t) X_t + b(alpha_t) v_t] dt + sigma dW_t
    J(v) = (1/2) E[ integral_0^T (Q(alpha_t) X_t^2 + R(alpha_t) v_t^2) dt
                    + G(alpha_T) X_T^2 ]

The volatility carries no regime argument (regime-dependent volatility
would make the regime observable from the quadratic variation, a
singular estimation problem this package does not treat).  The
signal-to-noise ratio h = b / sigma drives the regime filter, so a
positive volatility floor is enforced wherever h is evaluated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, DomainError

Array = NDArray[np.float64]

# Volatility floor: h = b / sigma raises ``DomainError`` below it.
SIGMA_MIN = 1e-8

# ``validate_spec`` samples a (t, x, v) lattice of LATTICE_SHAPE over
# [0, T] x X_RANGE x the control domain cut to [-10, 10].
LATTICE_SHAPE = (11, 11, 11)
X_RANGE = (-10.0, 10.0)
DERIV_BOUND = 1e4
GROWTH_CONSTANT = 1e6  # large enough to disable the growth checks in practice


# ---------------------------------------------------------------------------
# Chain generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorSpec:
    """Switching rates of the hidden two-state chain.

    ``lambda1`` is the rate of the switch 1 -> 2 and ``lambda2`` that of
    2 -> 1.  Rates of zero are accepted (a frozen chain is the natural
    degenerate test case), although the fully ergodic model has both
    rates strictly positive.
    """

    lambda1: float
    lambda2: float

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            rate = float(getattr(self, name))
            if not math.isfinite(rate):
                raise ConfigError(f"{name} must be finite, got {rate}")
            if rate < 0:
                raise ConfigError("switching rates must be non-negative")
            object.__setattr__(self, name, rate)

    @property
    def matrix(self) -> Array:
        """The rate matrix Q; its rows sum to zero."""
        return np.array([[-self.lambda1, self.lambda1], [self.lambda2, -self.lambda2]])

    @property
    def max_exit_rate(self) -> float:
        return max(self.lambda1, self.lambda2)

    def transition_matrix(self, dt: float) -> Array:
        """exp(Q*dt), in closed form."""
        lam = self.lambda1 + self.lambda2
        if lam == 0.0:
            return np.eye(2)
        s = self.lambda2 / lam
        e = math.exp(-lam * dt)
        return np.array(
            [
                [s + (1.0 - s) * e, (1.0 - s) * (1.0 - e)],
                [s * (1.0 - e), (1.0 - s) + s * e],
            ]
        )


# ---------------------------------------------------------------------------
# The control problem: its linear-quadratic constants
# ---------------------------------------------------------------------------

# ``required`` and ``properties`` of ``$defs.lq_spec`` in
# docs/experiment_config.schema.json.
LQ_SPEC_REQUIRED = frozenset(
    "a1 a2 b1 b2 sigma Q1 Q2 R1 R2 G1 G2 lambda1 lambda2 T x0 pi0".split())
LQ_SPEC_KEYS = LQ_SPEC_REQUIRED | {"u_lo", "u_hi"}


@dataclass(frozen=True)
class LQSpec:
    """The control problem, held as its linear-quadratic constants.

    Dynamics dX = [a(alpha) X + b(alpha) v] dt + sigma dW with cost
    (1/2) E[ integral (Q(alpha) X^2 + R(alpha) v^2) dt + G(alpha_T) X_T^2 ].
    ``R > 0`` and ``sigma > 0`` are required; ``Q, G >= 0`` keep the cost
    convex so the first-order condition locates a minimiser.  ``pi0`` is
    P(alpha_0 = 1); ``control_domain`` is closed, infinite ends allowed.
    """

    a: tuple[float, float]
    b: tuple[float, float]
    sigma: float
    Q: tuple[float, float]
    R: tuple[float, float]
    G: tuple[float, float]
    lambda1: float
    lambda2: float
    horizon: float
    x0: float
    pi0: float
    control_domain: tuple[float, float] = (-math.inf, math.inf)

    def __post_init__(self):
        for name in ("a", "b", "sigma", "Q", "R", "G", "lambda1", "lambda2",
                     "horizon", "x0", "pi0"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if np.any(np.isnan(self.control_domain)):
            raise ConfigError("control_domain ends must be numbers (infinite ends allowed)")
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")
        if min(self.R) <= 0:
            raise ConfigError("control weights R must be positive")
        if min(self.Q) < 0 or min(self.G) < 0:
            raise ConfigError("state weights Q, G must be non-negative")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError("switching rates must be non-negative")
        if self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        if not 0.0 <= self.pi0 <= 1.0:
            raise ConfigError("pi0 must lie in [0, 1]")
        lo, hi = self.control_domain
        if not lo < hi:
            raise ConfigError("control_domain must be a non-degenerate interval")

    n_regimes = 2  # the shape of every per-regime table

    @property
    def generator(self) -> GeneratorSpec:
        return GeneratorSpec(self.lambda1, self.lambda2)

    @property
    def prior(self) -> Array:
        """The law (pi0, 1 - pi0) of alpha_0; a vertex is a known start."""
        return np.array([self.pi0, 1.0 - self.pi0])  # p + (1 - p) rounds to 1 exactly

    def volatility(self) -> float:
        """sigma, which ``__post_init__`` keeps finite and positive;
        ``DomainError`` below the floor ``SIGMA_MIN``.  Each pass reads it once."""
        if self.sigma < SIGMA_MIN:
            raise DomainError(f"volatility fell below the floor {SIGMA_MIN} "
                              f"(min observed {self.sigma})")
        return self.sigma

    def to_problem_spec(self) -> "LQSpec":
        return self  # the benchmark scripts still call it

    def to_json(self) -> dict:
        doc = {
            "a1": self.a[0], "a2": self.a[1],
            "b1": self.b[0], "b2": self.b[1],
            "sigma": self.sigma,
            "Q1": self.Q[0], "Q2": self.Q[1],
            "R1": self.R[0], "R2": self.R[1],
            "G1": self.G[0], "G2": self.G[1],
            "lambda1": self.lambda1, "lambda2": self.lambda2,
            "T": self.horizon, "x0": self.x0, "pi0": self.pi0,
        }
        if math.isfinite(self.control_domain[0]):
            doc["u_lo"] = self.control_domain[0]
        if math.isfinite(self.control_domain[1]):
            doc["u_hi"] = self.control_domain[1]
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "LQSpec":
        missing = LQ_SPEC_REQUIRED - doc.keys()
        if missing:
            raise ConfigError(f"LQ spec document missing keys: {sorted(missing)}")
        unknown = sorted(doc.keys() - LQ_SPEC_KEYS)
        if unknown:
            raise ConfigError(f"LQ spec document has unknown keys {unknown}; "
                              f"allowed: {sorted(LQ_SPEC_KEYS)}")

        def num(key: str, default: float | None = None) -> float:
            return json_value(f"LQ spec field {key}", doc[key], float) if key in doc else default

        kwargs = {}
        if "u_lo" in doc or "u_hi" in doc:
            kwargs["control_domain"] = (num("u_lo", -math.inf),
                                        num("u_hi", math.inf))
        return cls(
            a=(num("a1"), num("a2")),
            b=(num("b1"), num("b2")),
            sigma=num("sigma"),
            Q=(num("Q1"), num("Q2")),
            R=(num("R1"), num("R2")),
            G=(num("G1"), num("G2")),
            lambda1=num("lambda1"),
            lambda2=num("lambda2"),
            horizon=num("T"),
            x0=num("x0"),
            pi0=num("pi0"),
            **kwargs,
        )


# ---------------------------------------------------------------------------
# Coefficient tables from the LQ constants
# ---------------------------------------------------------------------------


def drift_table(spec: LQSpec, x: Array, u: Array) -> Array:
    """b(x, i, u) = a_i x + b_i u for every regime i, regime-major: shape (d, n_paths)."""
    return np.outer(spec.a, x) + np.outer(spec.b, u)


def running_cost_table(spec: LQSpec, x: Array, u: Array) -> Array:
    """f(x, i, u) = (Q_i x^2 + R_i u^2) / 2 for every regime i, shape (d, n_paths)."""
    return 0.5 * (np.outer(spec.Q, x**2) + np.outer(spec.R, u**2))


def terminal_cost_table(spec: LQSpec, x: Array) -> Array:
    """g(x, i) = G_i x^2 / 2 for every regime i, shape (d, n_paths)."""
    return np.outer(0.5 * np.asarray(spec.G), x**2)


# ---------------------------------------------------------------------------
# Standing-assumption validation (lattice, reporting only)
# ---------------------------------------------------------------------------


def validate_spec(spec: LQSpec) -> list[str]:
    """Evaluate the coefficients on a (t, x, v) lattice and report violations.

    Values come from the LQ constants on the lattice; derivatives are
    the closed forms b_x = a_i, b_v = b_i, sigma_x = sigma_v = 0,
    f_x = Q_i x, f_v = R_i v and g_x = G_i x.  Checks:

    * finiteness of b, f and g on the lattice (a coefficient with a
      non-finite value, from overflow, is reported once with its count,
      and its other checks are skipped);
    * boundedness of b_x and b_v against ``DERIV_BOUND`` (sigma's
      derivatives vanish);
    * quadratic growth of f, g and linear growth of their derivatives
      against ``GROWTH_CONSTANT``;
    * the volatility floor;
    * volatility independence of the regime (structural here: the
      constants hold one sigma).

    Purely reporting; an empty list means no violation.
    """
    violations: list[str] = []
    K = GROWTH_CONSTANT
    nt, nx, nv = LATTICE_SHAPE
    ts = np.linspace(0.0, spec.horizon, nt)
    xs = np.linspace(*X_RANGE, nx)
    lo, hi = spec.control_domain
    vs = np.linspace(max(lo, -10.0), min(hi, 10.0), nv)
    _, xx, vv = np.meshgrid(ts, xs, vs, indexing="ij")
    xx, vv = xx.ravel(), vv.ravel()

    def finite(label: str, name: str, values) -> bool:
        """Whether ``values`` are all finite; records a violation if not."""
        bad = np.count_nonzero(~np.isfinite(values))
        if bad:
            violations.append(f"{label}: {name} is non-finite at {bad} of "
                              f"{np.size(values)} lattice points")
        return not bad

    if spec.sigma < SIGMA_MIN:  # sigma is constant: its minimum is at the first lattice point
        violations.append(
            f"A4: sigma={spec.sigma:.3g} at (t={ts[0]:.3g}, x={xs[0]:.3g}, "
            f"v={vs[0]:.3g}) is below the floor {SIGMA_MIN:.3g}"
        )

    with np.errstate(over="ignore", invalid="ignore"):  # overflow is the non-finite value reported
        drifts, costs = drift_table(spec, xx, vv), running_cost_table(spec, xx, vv)
        terminals = terminal_cost_table(spec, xs)

    for i, drift, cost, terminal in zip((1, 2), drifts, costs, terminals):
        a, b, Q, R, G = (c[i - 1] for c in (spec.a, spec.b, spec.Q, spec.R, spec.G))
        if finite("A1", f"b(.,.,{i},.)", drift):
            for grad, name in ((a, f"b_x(i={i})"), (b, f"b_v(i={i})")):
                if abs(grad) > DERIV_BOUND:
                    violations.append(f"A1: |{name}| reaches {abs(grad):.3g} "
                                      f"(bound {DERIV_BOUND:.3g})")

        if finite("A2", f"f(.,.,{i},.)", cost):
            if np.any(np.abs(cost) > K * (1 + xx**2 + vv**2)):
                violations.append(f"A2: |f(.,.,{i},.)| exceeds K(1+x^2+v^2) with K={K:.3g}")
            for grad, name in ((Q * xx, "f_x"), (R * vv, "f_v")):
                if np.any(np.abs(grad) > K * (1 + np.abs(xx) + np.abs(vv))):
                    violations.append(
                        f"A2: |{name}(.,.,{i},.)| exceeds K(1+|x|+|v|) with K={K:.3g}"
                    )

        if finite("A2", f"g(.,{i})", terminal):
            if np.any(np.abs(terminal) > K * (1 + xs**2)):
                violations.append(f"A2: |g(.,{i})| exceeds K(1+x^2) with K={K:.3g}")
            if np.any(np.abs(G * xs) > K * (1 + np.abs(xs))):
                violations.append(f"A2: |g_x(.,{i})| exceeds K(1+|x|) with K={K:.3g}")

    return violations


# ---------------------------------------------------------------------------
# Feedback policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeedbackPolicy:
    """Measurable feedback map (t, x, pi) -> u, clamped to the control domain.

    ``pi`` is the filtered probability of regime 1, which is adapted to
    the observation filtration, so feedback in (t, x, pi) stays
    admissible.  ``func`` must broadcast over arrays in x and pi.  Passes
    that run no filter (``simulate_state``, ``estimate_cost``) call it
    with ``pi=None``.
    """

    func: Callable
    control_domain: tuple[float, float] = (-math.inf, math.inf)
    name: str = ""

    def __call__(self, t, x, pi):
        u = np.asarray(self.func(t, x, pi), dtype=np.float64)
        lo, hi = self.control_domain
        return np.clip(u, lo, hi)

    def on_lattice(self, times, X, P):
        """Feedback at row r of (X, P) at time ``times[r]``, one call per row."""
        return np.stack([self(t, x, p) for t, x, p in zip(times, X, P)])


def constant_policy(value: float, control_domain=(-math.inf, math.inf)) -> FeedbackPolicy:
    return FeedbackPolicy(
        func=lambda t, x, pi: np.full_like(np.asarray(x, dtype=np.float64), value),
        control_domain=control_domain,
        name=f"constant({value})",
    )


def zero_policy(control_domain=(-math.inf, math.inf)) -> FeedbackPolicy:
    return constant_policy(0.0, control_domain)


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------


# The schema's JSON type of a value read as each Python type.
JSON_TYPES = {int: "integer", float: "number", str: "string", bool: "boolean", dict: "object"}


def json_value(name: str, value, cast):
    """``cast(value)`` if ``value``, read from a JSON document, has the JSON
    type of ``cast``: an integer is a number without a fraction, NaN is no
    number and a bool neither; ``ConfigError`` naming ``name`` otherwise."""
    if isinstance(value, bool):
        ok = cast is bool
    elif cast is int:
        ok = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    elif cast is float:
        ok = isinstance(value, (int, float)) and value == value
    else:
        ok = isinstance(value, cast)
    if not ok:
        raise ConfigError(f"{name} must be a JSON {JSON_TYPES[cast]}, got {value!r}")
    return cast(value)


def read_json_object(path, what: str) -> dict:
    """The JSON object in file ``path``; ``ConfigError`` naming ``what`` and the
    file if it cannot be read, is not UTF-8 JSON or holds no object."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return doc


def load_spec(path: str) -> LQSpec:
    return LQSpec.from_json(read_json_object(path, "spec file"))
