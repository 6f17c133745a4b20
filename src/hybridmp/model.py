"""Problem definition: coefficients, costs, regime generator, admissibility.

A control problem is a diffusion whose drift, running cost and terminal
cost switch with a hidden two-state Markov chain:

    dX_t = b(t, X_t, alpha_t, v_t) dt + sigma(t, X_t, v_t) dW_t
    J(v) = E[ integral_0^T f(t, X_t, alpha_t, v_t) dt + g(X_T, alpha_T) ]

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

# Central-difference step used everywhere a coefficient derivative is
# needed numerically: step = FD_STEP_REL * max(1, |x|).
FD_STEP_REL = 1e-5

# Volatility floor: h = b / sigma raises ``DomainError`` below it.
SIGMA_MIN = 1e-8

# ``validate_spec`` samples a (t, x, v) lattice of LATTICE_SHAPE over
# [0, T] x X_RANGE x the control domain cut to [-10, 10].
LATTICE_SHAPE = (11, 11, 11)
X_RANGE = (-10.0, 10.0)
DERIV_BOUND = 1e4
GROWTH_CONSTANT = 1e6  # large enough to disable the growth checks in practice


def central_diff(fn: Callable, x):
    """Central finite difference of ``fn`` at ``x`` (broadcasts over arrays)."""
    x = np.asarray(x, dtype=np.float64)
    h = FD_STEP_REL * np.maximum(1.0, np.abs(x))
    return (np.asarray(fn(x + h)) - np.asarray(fn(x - h))) / (2.0 * h)


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

    def marginal(self, p0, t: float) -> Array:
        """Chain marginal law at time t from the initial distribution ``p0``."""
        p0 = np.asarray(p0, dtype=np.float64)
        return p0 @ self.transition_matrix(t)


# ---------------------------------------------------------------------------
# Linear-quadratic tag
# ---------------------------------------------------------------------------

# ``required`` and ``properties`` of ``$defs.lq_spec`` in
# docs/experiment_config.schema.json.
LQ_SPEC_REQUIRED = frozenset(
    "a1 a2 b1 b2 sigma Q1 Q2 R1 R2 G1 G2 lambda1 lambda2 T x0 pi0".split())
LQ_SPEC_KEYS = LQ_SPEC_REQUIRED | {"u_lo", "u_hi"}


@dataclass(frozen=True)
class LQSpec:
    """Constants of the linear-quadratic special case.

    Dynamics dX = [a(alpha) X + b(alpha) v] dt + sigma dW with cost
    (1/2) E[ integral (Q(alpha) X^2 + R(alpha) v^2) dt + G(alpha_T) X_T^2 ].
    ``R > 0`` and ``sigma > 0`` are required; ``Q, G >= 0`` keep the cost
    convex so the first-order condition locates a minimiser.
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

    def generator(self) -> GeneratorSpec:
        return GeneratorSpec(self.lambda1, self.lambda2)

    def to_problem_spec(self) -> "ProblemSpec":
        a, b = self.a, self.b
        Q, R, G = self.Q, self.R, self.G

        def drift(t, x, i, v):
            return a[i - 1] * x + b[i - 1] * v

        def vol(t, x, v):
            return self.sigma * np.ones_like(np.asarray(x, dtype=np.float64))

        def running_cost(t, x, i, v):
            return 0.5 * (Q[i - 1] * x**2 + R[i - 1] * v**2)

        def terminal_cost(x, i):
            return 0.5 * G[i - 1] * x**2

        return ProblemSpec(
            horizon=self.horizon,
            x0=self.x0,
            pi0=(self.pi0, 1.0 - self.pi0),
            generator=self.generator(),
            drift=drift,
            vol=vol,
            running_cost=running_cost,
            terminal_cost=terminal_cost,
            control_domain=self.control_domain,
            lq=self,
        )

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
# Problem spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """Full control problem: coefficients, costs, generator, admissibility.

    Coefficient callables must be pure and broadcast over numpy arrays in
    their ``x`` and ``v`` arguments (``t`` scalar, regime label ``i`` the
    plain integer 1 or 2).  All types here are immutable.

    Parameters
    ----------
    horizon : float
        Terminal time T > 0.
    x0 : float
        Initial diffusion state.
    pi0 : (float, float)
        Initial regime distribution, a probability pair (a vertex encodes
        a known initial regime).
    generator : GeneratorSpec
        Switching rates of the hidden chain.
    drift, vol, running_cost, terminal_cost : callables
        b(t, x, i, v), sigma(t, x, v), f(t, x, i, v), g(x, i).
    control_domain : (float, float)
        Closed interval of admissible control values; infinite ends allowed.
    lq : LQSpec, optional
        Tag carrying the constants when the problem is linear-quadratic;
        analytic coefficient derivatives and the Picard solver are only
        available for tagged specs.
    """

    horizon: float
    x0: float
    pi0: tuple[float, float]
    generator: GeneratorSpec
    drift: Callable
    vol: Callable
    running_cost: Callable
    terminal_cost: Callable
    control_domain: tuple[float, float] = (-math.inf, math.inf)
    lq: LQSpec | None = None

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ConfigError("horizon must be positive and finite")
        pi0 = np.asarray(self.pi0, dtype=np.float64)
        if pi0.shape != (2,) or not (np.all(pi0 >= 0) and abs(pi0.sum() - 1.0) <= 1e-10):
            raise ConfigError("pi0 must be a probability pair")
        object.__setattr__(self, "pi0", tuple(float(p) for p in pi0 / pi0.sum()))
        lo, hi = self.control_domain
        if not lo < hi:
            raise ConfigError("control_domain must be a non-degenerate interval")

    n_regimes = 2  # the shape of every per-regime table

    def clamp_control(self, u):
        lo, hi = self.control_domain
        return np.clip(u, lo, hi)


def eval_sigma(spec: ProblemSpec, t, x, v) -> Array:
    """Volatility, finite and above the floor ``SIGMA_MIN``."""
    sig = np.asarray(spec.vol(t, x, v), dtype=np.float64)
    if not np.all(np.isfinite(sig)):
        bad = np.count_nonzero(~np.isfinite(sig))
        raise DomainError(f"non-finite volatility ({bad} of {sig.size} values)")
    if np.any(sig < SIGMA_MIN):
        raise DomainError(f"volatility fell below the floor {SIGMA_MIN} "
                          f"(min observed {np.min(sig)})")
    return sig


# ---------------------------------------------------------------------------
# Standing-assumption validation (sampling, reporting only)
# ---------------------------------------------------------------------------


def validate_spec(spec: ProblemSpec) -> list[str]:
    """Sample the coefficients on a (t, x, v) lattice and report violations.

    Checks, by finite differences where derivatives are involved:

    * smoothness/boundedness of the x- and v-derivatives of b, sigma
      (flagged when a sampled derivative exceeds ``DERIV_BOUND``);
    * quadratic growth of f, g and linear growth of their derivatives
      against ``GROWTH_CONSTANT``;
    * the volatility floor on the lattice;
    * finiteness of every coefficient on the lattice (a coefficient with
      a non-finite value is reported once, and its other checks are
      skipped);
    * volatility independence of the regime (structural here: the
      ``vol`` callable takes no regime argument).

    Purely reporting; an empty list means no sampled violation.
    """
    violations: list[str] = []
    K = GROWTH_CONSTANT
    nt, nx, nv = LATTICE_SHAPE
    ts = np.linspace(0.0, spec.horizon, nt)
    xs = np.linspace(*X_RANGE, nx)
    lo, hi = spec.control_domain
    vs = np.linspace(max(lo, -10.0), min(hi, 10.0), nv)
    regimes = range(1, spec.n_regimes + 1)

    tt, xx, vv = np.meshgrid(ts, xs, vs, indexing="ij")
    tt, xx, vv = tt.ravel(), xx.ravel(), vv.ravel()

    def fd_x(fn):
        return central_diff(lambda z: fn(tt, z, vv), xx)

    def fd_v(fn):
        return central_diff(lambda z: fn(tt, xx, z), vv)

    def finite(label: str, name: str, values) -> bool:
        """Whether ``values`` are all finite; records a violation if not."""
        bad = np.count_nonzero(~np.isfinite(values))
        if bad:
            violations.append(f"{label}: {name} is non-finite at {bad} of "
                              f"{np.size(values)} lattice points")
        return not bad

    def derivs_bounded(fn, x_name: str, v_name: str) -> None:
        for grad, name in ((fd_x(fn), x_name), (fd_v(fn), v_name)):
            if np.any(np.abs(grad) > DERIV_BOUND):
                violations.append(f"A1: |{name}| reaches {np.max(np.abs(grad)):.3g} "
                                  f"(bound {DERIV_BOUND:.3g})")

    sig = np.asarray(spec.vol(tt, xx, vv), dtype=np.float64)
    sig_finite = finite("A1", "sigma", sig)
    if sig_finite and np.any(sig < SIGMA_MIN):
        k = int(np.argmin(sig))
        violations.append(
            f"A4: sigma={sig[k]:.3g} at (t={tt[k]:.3g}, x={xx[k]:.3g}, "
            f"v={vv[k]:.3g}) is below the floor {SIGMA_MIN:.3g}"
        )
    elif sig_finite:
        derivs_bounded(spec.vol, "sigma_x", "sigma_v")

    for i in regimes:
        b_i = lambda t, x, v, i=i: np.asarray(spec.drift(t, x, i, v), dtype=np.float64)
        if finite("A1", f"b(.,.,{i},.)", b_i(tt, xx, vv)):
            derivs_bounded(b_i, f"b_x(i={i})", f"b_v(i={i})")

        f_i = lambda t, x, v, i=i: np.asarray(spec.running_cost(t, x, i, v), dtype=np.float64)
        fv = f_i(tt, xx, vv)
        if finite("A2", f"f(.,.,{i},.)", fv):
            if np.any(np.abs(fv) > K * (1 + xx**2 + vv**2)):
                violations.append(f"A2: |f(.,.,{i},.)| exceeds K(1+x^2+v^2) with K={K:.3g}")
            for grad, name in ((fd_x(f_i), "f_x"), (fd_v(f_i), "f_v")):
                if np.any(np.abs(grad) > K * (1 + np.abs(xx) + np.abs(vv))):
                    violations.append(
                        f"A2: |{name}(.,.,{i},.)| exceeds K(1+|x|+|v|) with K={K:.3g}"
                    )

        gv = np.asarray(spec.terminal_cost(xs, i), dtype=np.float64)
        if finite("A2", f"g(.,{i})", gv):
            if np.any(np.abs(gv) > K * (1 + xs**2)):
                violations.append(f"A2: |g(.,{i})| exceeds K(1+x^2) with K={K:.3g}")
            g_x = central_diff(
                lambda z, i=i: np.asarray(spec.terminal_cost(z, i), dtype=np.float64), xs)
            if np.any(np.abs(g_x) > K * (1 + np.abs(xs))):
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


def load_spec(path: str) -> ProblemSpec:
    return LQSpec.from_json(read_json_object(path, "spec file")).to_problem_spec()
