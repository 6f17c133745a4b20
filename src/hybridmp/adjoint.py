"""Adjoint machinery for the observable two-regime control system.

With two regimes the filtered system closes in Theta = (X, pi), pi the
conditional probability of regime 1.  This module evaluates the compact
coefficients of that system and their first derivatives, integrates the
variational (pathwise derivative) equation forward, solves the adjoint
backward equation by least-squares Monte Carlo, and measures how far an
ensemble control sits from stationarity of the Hamiltonian.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, RegressionError
from .model import ProblemSpec, central_diff, eval_sigma
from .pathsim import TimeGrid
from .wonham import InnovationPath

Array = NDArray[np.float64]

logger = logging.getLogger(__name__)

# Regression needs this many paths per basis function before the normal
# equations are trustworthy.
MIN_PATHS_PER_TERM = 10

# Rank rule of every regression on the basis: singular directions below
# this fraction of the leading one are dropped.
RCOND = 1e-8


class CompactCoeffs:
    """Coefficients of the closed (X, pi) system and their derivatives.

    All methods take vectorized (t scalar, x, p, u arrays of shape (n,))
    and return arrays whose leading axis is the path axis; Theta-indexed
    quantities order components as (x, pi).

    Derivatives in x and v come from the tagged linear-quadratic
    constants when available and central differences otherwise; the
    pi-derivatives are exact either way because every compact
    coefficient is affine in pi.
    """

    def __init__(self, spec: ProblemSpec, force_fd: bool = False):
        if spec.n_regimes != 2:
            raise ConfigError(
                "the compact observable form needs exactly two regimes, "
                f"got {spec.n_regimes}"
            )
        self.spec = spec
        self.analytic = spec.lq is not None and not force_fd

    # -- raw per-regime tables -------------------------------------------

    def _b(self, t, x, u, i):
        return np.asarray(self.spec.drift(t, x, i, u), dtype=np.float64)

    def _sig(self, t, x, u):
        return eval_sigma(self.spec, t, x, u)

    def _f(self, t, x, u, i):
        return np.asarray(self.spec.running_cost(t, x, i, u), dtype=np.float64)

    def _g(self, x, i):
        return np.asarray(self.spec.terminal_cost(x, i), dtype=np.float64)

    def _h(self, t, x, u, i):
        return self._b(t, x, u, i) / self._sig(t, x, u)

    # -- values -----------------------------------------------------------

    def B(self, t, x, p, u) -> Array:
        q = self.spec.generator
        out = np.empty((x.shape[0], 2))
        out[:, 0] = self._b(t, x, u, 1) * p + self._b(t, x, u, 2) * (1.0 - p)
        out[:, 1] = -q.lambda1 * p + q.lambda2 * (1.0 - p)
        return out

    def Sigma(self, t, x, p, u) -> Array:
        out = np.empty((x.shape[0], 2))
        out[:, 0] = self._sig(t, x, u)
        out[:, 1] = (self._h(t, x, u, 1) - self._h(t, x, u, 2)) * p * (1.0 - p)
        return out

    def F(self, t, x, p, u) -> Array:
        return self._f(t, x, u, 1) * p + self._f(t, x, u, 2) * (1.0 - p)

    def G(self, x, p) -> Array:
        return self._g(x, 1) * p + self._g(x, 2) * (1.0 - p)

    # -- derivatives ------------------------------------------------------

    def B_theta(self, t, x, p, u) -> Array:
        q = self.spec.generator
        out = np.zeros((x.shape[0], 2, 2))
        if self.analytic:
            a = self.spec.lq.a
            out[:, 0, 0] = a[0] * p + a[1] * (1.0 - p)
        else:
            bx1 = central_diff(lambda z: self._b(t, z, u, 1), x)
            bx2 = central_diff(lambda z: self._b(t, z, u, 2), x)
            out[:, 0, 0] = bx1 * p + bx2 * (1.0 - p)
        out[:, 0, 1] = self._b(t, x, u, 1) - self._b(t, x, u, 2)
        out[:, 1, 1] = -q.lambda1 - q.lambda2
        return out

    def B_v(self, t, x, p, u) -> Array:
        out = np.zeros((x.shape[0], 2))
        if self.analytic:
            b = self.spec.lq.b
            out[:, 0] = b[0] * p + b[1] * (1.0 - p)
        else:
            bv1 = central_diff(lambda z: self._b(t, x, z, 1), u)
            bv2 = central_diff(lambda z: self._b(t, x, z, 2), u)
            out[:, 0] = bv1 * p + bv2 * (1.0 - p)
        return out

    def Sigma_theta(self, t, x, p, u) -> Array:
        out = np.zeros((x.shape[0], 2, 2))
        if self.analytic:
            lq = self.spec.lq
            hx_diff = (lq.a[0] - lq.a[1]) / lq.sigma
            out[:, 1, 0] = hx_diff * p * (1.0 - p)
        else:
            out[:, 0, 0] = central_diff(lambda z: self._sig(t, z, u), x)
            hx1 = central_diff(lambda z: self._h(t, z, u, 1), x)
            hx2 = central_diff(lambda z: self._h(t, z, u, 2), x)
            out[:, 1, 0] = (hx1 - hx2) * p * (1.0 - p)
        out[:, 1, 1] = (self._h(t, x, u, 1) - self._h(t, x, u, 2)) * (1.0 - 2.0 * p)
        return out

    def Sigma_v(self, t, x, p, u) -> Array:
        out = np.zeros((x.shape[0], 2))
        if self.analytic:
            lq = self.spec.lq
            hv_diff = (lq.b[0] - lq.b[1]) / lq.sigma
            out[:, 1] = hv_diff * p * (1.0 - p)
        else:
            out[:, 0] = central_diff(lambda z: self._sig(t, x, z), u)
            hv1 = central_diff(lambda z: self._h(t, x, z, 1), u)
            hv2 = central_diff(lambda z: self._h(t, x, z, 2), u)
            out[:, 1] = (hv1 - hv2) * p * (1.0 - p)
        return out

    def F_theta(self, t, x, p, u) -> Array:
        out = np.empty((x.shape[0], 2))
        if self.analytic:
            Q = self.spec.lq.Q
            out[:, 0] = (Q[0] * p + Q[1] * (1.0 - p)) * x
        else:
            fx1 = central_diff(lambda z: self._f(t, z, u, 1), x)
            fx2 = central_diff(lambda z: self._f(t, z, u, 2), x)
            out[:, 0] = fx1 * p + fx2 * (1.0 - p)
        out[:, 1] = self._f(t, x, u, 1) - self._f(t, x, u, 2)
        return out

    def F_v(self, t, x, p, u) -> Array:
        if self.analytic:
            R = self.spec.lq.R
            return (R[0] * p + R[1] * (1.0 - p)) * u
        fv1 = central_diff(lambda z: self._f(t, x, z, 1), u)
        fv2 = central_diff(lambda z: self._f(t, x, z, 2), u)
        return fv1 * p + fv2 * (1.0 - p)

    def G_theta(self, x, p) -> Array:
        out = np.empty((x.shape[0], 2))
        if self.analytic:
            G = self.spec.lq.G
            out[:, 0] = (G[0] * p + G[1] * (1.0 - p)) * x
        else:
            gx1 = central_diff(lambda z: self._g(z, 1), x)
            gx2 = central_diff(lambda z: self._g(z, 2), x)
            out[:, 0] = gx1 * p + gx2 * (1.0 - p)
        out[:, 1] = self._g(x, 1) - self._g(x, 2)
        return out


def hamiltonian(coeffs, t, x, p, u, phi: Array, lam: Array) -> Array:
    """H = <phi, B> + <lam, Sigma> + F along an ensemble."""
    return (
        np.sum(phi * coeffs.B(t, x, p, u), axis=1)
        + np.sum(lam * coeffs.Sigma(t, x, p, u), axis=1)
        + coeffs.F(t, x, p, u)
    )


def hamiltonian_v_gradient(coeffs, t, x, p, u, phi: Array, lam: Array) -> Array:
    """dH/dv = <phi, B_v> + <lam, Sigma_v> + F_v along an ensemble."""
    return (
        np.sum(phi * coeffs.B_v(t, x, p, u), axis=1)
        + np.sum(lam * coeffs.Sigma_v(t, x, p, u), axis=1)
        + coeffs.F_v(t, x, p, u)
    )


# ---------------------------------------------------------------------------
# Variational system (forward pathwise derivative)
# ---------------------------------------------------------------------------


def solve_variational(
    spec: ProblemSpec,
    path: InnovationPath,
    direction: Array,
    coeffs: CompactCoeffs | None = None,
) -> Array:
    """Pathwise derivative of the innovation-driven system in a control
    direction.

    Differentiating the forward recursion at fixed innovation increments
    gives, with Gamma_0 = 0,

    Gamma_{k+1} = Gamma_k + [B_Theta Gamma_k + B_v w_k] dt
                          + [Sigma_Theta Gamma_k + Sigma_v w_k] dnu_k.

    This is the exact derivative of the discrete map (not a
    discretization of the continuous equation), so central-difference
    checks against rerunning the forward system must agree to O(eps^2).
    Returns Gamma with shape (n_paths, N+1, 2).
    """
    if coeffs is None:
        coeffs = CompactCoeffs(spec)
    grid = path.grid
    dt = grid.dt
    times = grid.times
    direction = np.asarray(direction, dtype=np.float64)
    n = path.n_paths
    if direction.shape != (n, grid.n_steps):
        raise ConfigError(
            f"direction must have shape {(n, grid.n_steps)}, got {direction.shape}"
        )

    gamma = np.zeros((n, grid.n_steps + 1, 2))
    g = np.zeros((n, 2))
    for k in range(grid.n_steps):
        t = times[k]
        x = path.states[:, k]
        p = path.probs[:, k, 0]
        u = path.controls[:, k]
        w = direction[:, k]
        Bt = coeffs.B_theta(t, x, p, u)
        St = coeffs.Sigma_theta(t, x, p, u)
        drift = np.einsum("nij,nj->ni", Bt, g) + coeffs.B_v(t, x, p, u) * w[:, None]
        diff = np.einsum("nij,nj->ni", St, g) + coeffs.Sigma_v(t, x, p, u) * w[:, None]
        g = g + drift * dt + diff * path.dnu[:, k, None]
        gamma[:, k + 1] = g
    return gamma


def gateaux_derivative(
    spec: ProblemSpec,
    path: InnovationPath,
    direction: Array,
    coeffs: CompactCoeffs | None = None,
) -> float:
    """First-order cost change in a control direction, via the variational
    system:

    dJ = E[ sum_k (F_Theta . Gamma_k + F_v w_k) dt + G_Theta . Gamma_N ].
    """
    if coeffs is None:
        coeffs = CompactCoeffs(spec)
    grid = path.grid
    dt = grid.dt
    times = grid.times
    gamma = solve_variational(spec, path, direction, coeffs)
    total = np.zeros(path.n_paths)
    for k in range(grid.n_steps):
        x = path.states[:, k]
        p = path.probs[:, k, 0]
        u = path.controls[:, k]
        Ft = coeffs.F_theta(times[k], x, p, u)
        total += dt * (np.sum(Ft * gamma[:, k], axis=1)
                       + coeffs.F_v(times[k], x, p, u) * direction[:, k])
    Gt = coeffs.G_theta(path.states[:, -1], path.probs[:, -1, 0])
    total += np.sum(Gt * gamma[:, -1], axis=1)
    return float(np.mean(total))


# ---------------------------------------------------------------------------
# Polynomial regression basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyBasis:
    """Monomials in (standardized x, pi) up to a total degree."""

    degree: int = 3

    def __post_init__(self):
        if not 0 <= self.degree <= 6:
            raise ConfigError(f"basis degree must be in 0..6, got {self.degree}")

    @property
    def n_terms(self) -> int:
        return (self.degree + 1) * (self.degree + 2) // 2

    @property
    def exponents(self) -> list[tuple[int, int]]:
        return [(i, d - i) for d in range(self.degree + 1) for i in range(d + 1)]

    def design(self, x: Array, p: Array, loc=0.0, scale=1.0) -> Array:
        """Monomials z^i p^j of z = (x - loc) / scale, in ``exponents``
        order along a new last axis; x and p may have any (broadcasting)
        shape.  Powers are running products, not ``**``."""
        z = (np.asarray(x, dtype=np.float64) - loc) / scale
        p = np.asarray(p, dtype=np.float64)
        zs, ps = [np.ones_like(z)], [np.ones_like(p)]
        for _ in range(self.degree):
            zs.append(zs[-1] * z)
            ps.append(ps[-1] * p)
        return np.stack([zs[i] * ps[j] for i, j in self.exponents], axis=-1)


class StepProjector:
    """Orthogonal projector onto the significant column space of a design.

    Near a deterministic start the ensemble collapses onto a curve in
    (x, pi) and the monomials become exactly collinear, at any degree,
    so rank handling has to happen inside the step rather than by
    shrinking the basis: singular directions below ``RCOND`` times the
    leading one are dropped and the projection uses what remains.  At
    the initial node this degrades to the plain ensemble mean, which is
    the exact conditional expectation there.

    ``coef(y)`` gives coefficients on the design's columns, with
    ``A @ coef(y)`` equal to ``fitted(y)`` up to rounding; ``on_basis``
    records the standardization of x in ``loc`` and ``scale``.
    """

    loc, scale = 0.0, 1.0

    def __init__(self, A: Array):
        if not np.all(np.isfinite(A)):
            raise RegressionError("design matrix contains non-finite entries")
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        keep = s > RCOND * s[0] if s[0] > 0 else np.zeros_like(s, dtype=bool)
        self.rank = int(np.count_nonzero(keep))
        if self.rank == 0:
            raise RegressionError("design matrix is identically zero")
        self.A = A
        self.U = U[:, keep]
        # V Sigma^{-1} on the kept rank
        self.V_over_s = Vt[keep].T / s[keep]

    @classmethod
    def on_basis(cls, basis: PolyBasis, x: Array, p: Array) -> "StepProjector":
        """Projector of the basis design on (x standardized by its ensemble
        mean and standard deviation, p)."""
        loc, scale = float(np.mean(x)), max(float(np.std(x)), 1e-8)
        proj = cls(basis.design(x, p, loc, scale))
        proj.loc, proj.scale = loc, scale
        return proj

    def fitted(self, y: Array) -> Array:
        return self.U @ (self.U.T @ y)

    def coef(self, y: Array) -> Array:
        return self.V_over_s @ (self.U.T @ y)


def _r_squared(y: Array, fit: Array) -> float:
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst < 1e-14:
        return 1.0
    return 1.0 - float(np.sum((y - fit) ** 2)) / sst


# ---------------------------------------------------------------------------
# Backward equation by least-squares Monte Carlo
# ---------------------------------------------------------------------------


@dataclass
class AdjointPath:
    """Adjoint pair along an ensemble.

    ``phi`` has shape (n_paths, N+1, 2): the first adjoint (p, k) at
    every node, with phi[:, N] the exact terminal gradient.  ``lam``
    has shape (n_paths, N, 2): the second adjoint (P, K) per step.
    ``phi_pred`` is the regression of phi_{k+1} on node-k information
    (the predictable projection the discrete duality identity pairs with
    the step-k coefficients).  ``r_squared`` and ``ranks`` record the
    regression quality and the effective design rank at each backward step.
    """

    grid: TimeGrid
    phi: Array
    lam: Array
    phi_pred: Array
    r_squared: Array
    ranks: NDArray[np.int64]
    basis_degree: int


def solve_adjoint_bsde(spec: ProblemSpec, path: InnovationPath, basis: PolyBasis | None = None,
                       coeffs: CompactCoeffs | None = None) -> AdjointPath:
    """Backward sweep for the adjoint pair (Phi, Lambda) along an ensemble.

    Terminal condition Phi_N = G_Theta(Theta_N) holds pathwise.  Each
    backward step projects the centered martingale increment
    (Phi_{k+1} - E_k Phi_{k+1}) dnu_k / dt onto the basis to get
    Lambda_k (centering is a control variate; the conditional mean is
    unchanged), then projects

        Phi_{k+1} + [B_Theta^T Phi_{k+1} + Sigma_Theta^T Lambda_k
                     + F_Theta] dt

    onto the same basis to get Phi_k.  One design factorization per step
    is shared by all regression targets; collinear directions are
    truncated per step (see ``StepProjector``), with the effective rank
    recorded and logged when below the full basis size away from the
    start.  The minimum per-step R^2 across targets is recorded; it is
    structurally near zero at the first few steps (there is almost
    nothing to condition on yet), so diagnostics should read it per step
    rather than as a single scalar.
    """
    for _, _, adjoint in backward_sweep(spec, path, basis, coeffs):
        pass
    return adjoint


def backward_sweep(spec: ProblemSpec, path: InnovationPath, basis: PolyBasis | None = None,
                   coeffs: CompactCoeffs | None = None):
    """``solve_adjoint_bsde`` one backward step at a time.

    Yields ``(k, proj, adjoint)`` for k = N-1, ..., 0 once step k of
    ``adjoint`` is filled in.  ``proj`` is that step's projector, so a
    caller can regress further node-k targets on the same factorization
    while it is alive; rows below k are not filled yet, and the last
    yield carries the complete adjoint.
    """
    if basis is None:
        basis = PolyBasis()
    if coeffs is None:
        coeffs = CompactCoeffs(spec)
    grid = path.grid
    dt = grid.dt
    times = grid.times
    n = path.n_paths
    if n < MIN_PATHS_PER_TERM * basis.n_terms:
        raise ConfigError(
            f"{n} paths cannot support {basis.n_terms} basis terms; need at "
            f"least {MIN_PATHS_PER_TERM * basis.n_terms}"
        )

    phi = np.empty((n, grid.n_steps + 1, 2))
    lam = np.empty((n, grid.n_steps, 2))
    phi_pred = np.empty((n, grid.n_steps, 2))
    r2 = np.empty(grid.n_steps)
    ranks = np.empty(grid.n_steps, dtype=np.int64)
    adjoint = AdjointPath(grid=grid, phi=phi, lam=lam, phi_pred=phi_pred,
                          r_squared=r2, ranks=ranks, basis_degree=basis.degree)

    phi[:, -1] = coeffs.G_theta(path.states[:, -1], path.probs[:, -1, 0])

    for k in range(grid.n_steps - 1, -1, -1):
        t = times[k]
        x = path.states[:, k]
        p = path.probs[:, k, 0]
        u = path.controls[:, k]

        proj = StepProjector.on_basis(basis, x, p)
        ranks[k] = proj.rank
        if proj.rank < basis.n_terms and k > 5:
            logger.info("backward step %d: design rank %d of %d",
                        k, proj.rank, basis.n_terms)

        phi_next = phi[:, k + 1]
        m = proj.fitted(phi_next)
        phi_pred[:, k] = m
        # Martingale control variate: subtracting the fitted conditional
        # mean leaves E_k[(Phi_{k+1} - m) dnu/dt] unchanged but drops the
        # target variance from O(1/dt) to O(1), which is what keeps the
        # stationarity residual floor below the convergence tolerance.
        z = (phi_next - m) * (path.dnu[:, k, None] / dt)
        lam_k = proj.fitted(z)
        lam[:, k] = lam_k

        Bt = coeffs.B_theta(t, x, p, u)
        St = coeffs.Sigma_theta(t, x, p, u)
        driver = (
            np.einsum("nji,nj->ni", Bt, phi_next)
            + np.einsum("nji,nj->ni", St, lam_k)
            + coeffs.F_theta(t, x, p, u)
        )
        target = phi_next + driver * dt
        fit = proj.fitted(target)
        phi[:, k] = fit

        # Value regressions should explain nearly everything; the
        # martingale-increment targets carry O(1/dt) noise by design, so
        # their R^2 is small even for a perfect fit and is not recorded.
        r2[k] = min(
            _r_squared(target[:, 0], fit[:, 0]),
            _r_squared(target[:, 1], fit[:, 1]),
        )
        yield k, proj, adjoint


def hamiltonian_direction_value(
    spec: ProblemSpec,
    path: InnovationPath,
    adjoint: AdjointPath,
    direction: Array,
    coeffs: CompactCoeffs | None = None,
) -> float:
    """E[ sum_k dH/dv(t_k) w_k dt ]: the first-order cost change a control
    perturbation should produce according to the adjoint representation.

    The Phi factor is taken at node k+1 pathwise: since B_v, Sigma_v and
    w are node-k measurable, the tower property makes that estimator
    unbiased for the pairing with E[Phi_{k+1} | node k], and summation by
    parts shows exactly that pairing reproduces ``gateaux_derivative``
    for the discrete recursions.  Residual disagreement is regression
    error in Lambda and Phi, not an O(dt) defect.
    """
    if coeffs is None:
        coeffs = CompactCoeffs(spec)
    grid = path.grid
    dt = grid.dt
    times = grid.times
    direction = np.asarray(direction, dtype=np.float64)
    total = np.zeros(path.n_paths)
    for k in range(grid.n_steps):
        hv = hamiltonian_v_gradient(
            coeffs, times[k], path.states[:, k], path.probs[:, k, 0],
            path.controls[:, k], adjoint.phi[:, k + 1], adjoint.lam[:, k],
        )
        total += dt * hv * direction[:, k]
    return float(np.mean(total))


def stationarity_report(
    spec: ProblemSpec,
    path: InnovationPath,
    adjoint: AdjointPath,
    coeffs: CompactCoeffs | None = None,
) -> dict:
    """sqrt(E integral |dH/dv|^2 dt) along the ensemble controls.

    dH/dv is evaluated with the fitted node-k adjoint values (the
    squared norm needs conditional means, not unbiased samples).  For an
    interior optimum the gradient itself must vanish; with a bounded
    control domain the right object is the projected residual
    |u - proj(u - dH/dv)|, which also vanishes at domain-boundary
    optima.  Both are reported, with regression diagnostics.
    """
    if coeffs is None:
        coeffs = CompactCoeffs(spec)
    grid = path.grid
    dt = grid.dt
    times = grid.times
    lo, hi = spec.control_domain
    sq = 0.0
    sq_proj = 0.0
    for k in range(grid.n_steps):
        u = path.controls[:, k]
        hv = hamiltonian_v_gradient(
            coeffs, times[k], path.states[:, k], path.probs[:, k, 0], u,
            adjoint.phi_pred[:, k], adjoint.lam[:, k],
        )
        sq += float(np.mean(hv**2)) * dt
        step = np.clip(u - hv, lo, hi)
        sq_proj += float(np.mean((u - step) ** 2)) * dt
    return {
        "residual": float(np.sqrt(sq)),
        "projected_residual": float(np.sqrt(sq_proj)),
        "n_paths": path.n_paths,
        "basis_degree": int(adjoint.basis_degree),
        "per_step_r2_min": float(adjoint.r_squared.min()) if len(adjoint.r_squared) else 1.0,
    }
