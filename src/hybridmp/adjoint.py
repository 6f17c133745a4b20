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
from .model import ProblemSpec, drift_table, running_cost_table, terminal_cost_table
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

# A design is factored through its Gram matrix when the Gram eigenvalues
# span less than 1 / GRAM_MIN_RATIO: its singular values are then all
# above 1e-6 of the leading one, 100 x inside RCOND, so the rank rule
# would keep every column anyway, and two Gram passes orthonormalize to
# SVD accuracy while the condition number stays below about 1e8.
GRAM_MIN_RATIO = 1e-12


class CompactCoeffs:
    """Builder of the coefficient table of the closed (X, pi) system.

    ``at(t, x, p, u)`` evaluates the drift and running cost once per step
    from the linear-quadratic constants, and their first derivatives in
    x and v in closed form.  The volatility is the constant sigma, read
    once against the floor.  The pi-derivatives are exact because every
    compact coefficient is affine in pi.
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.sig = spec.volatility()

    def at(self, t, x, p, u) -> StepCoeffs:
        """The coefficient table at (t, x, p, u), arrays of shape (n,)."""
        spec, lq, q = self.spec, self.spec.lq, self.spec.generator
        return StepCoeffs(
            p=p, rates=(q.lambda1, q.lambda2),
            b=drift_table(spec, x, u), f=running_cost_table(spec, x, u), sig=self.sig,
            b_x=np.reshape(lq.a, (2, 1)), b_v=np.reshape(lq.b, (2, 1)),
            f_x=np.outer(lq.Q, x), f_v=np.outer(lq.R, u),
        )

    def G_theta(self, x, p) -> Array:
        """Terminal gradient (g_x, g_pi) of G = g1 p + g2 (1 - p)."""
        g, g_x = terminal_cost_table(self.spec, x), np.outer(self.spec.lq.G, x)
        return _assemble(len(p), g_x[0] * p + g_x[1] * (1.0 - p), g[0] - g[1])


def _assemble(n: int, first, second) -> Array:
    """Two entries broadcast to n paths, and any leading axes they carry, as
    a (..., n, 2) vector (or, as its transpose, a per-regime table)."""
    out = np.empty(np.broadcast_shapes(n, np.shape(first), np.shape(second)) + (2,))
    out[..., 0] = first
    out[..., 1] = second
    return out


@dataclass(frozen=True)
class StepCoeffs:
    """Coefficient table of the closed (X, pi) system at one step.

    Per-regime tables (drift b, running cost f and their x- and
    v-derivatives) have shape (2, n) or broadcast to it; sigma is the
    constant volatility, so Sigma's x-component has no derivative.  B,
    Sigma, H and H's linearization (``tangent``, its transpose
    ``H_theta``, and ``H_v``) are read from it here and nowhere else,
    path axis first and Theta ordered as (x, pi).
    """

    p: Array
    rates: tuple[float, float]
    b: Array
    b_x: Array
    b_v: Array
    f: Array
    f_x: Array
    f_v: Array
    sig: float

    def _mix(self, table) -> Array:
        return table[0] * self.p + table[1] * (1.0 - self.p)

    def _gain_slope(self, b_z) -> Array:
        """d/dz of the belief noise (h1 - h2) p (1 - p), h = b / sigma."""
        return (b_z[0] - b_z[1]) / self.sig * self.p * (1.0 - self.p)

    @property
    def _h_diff(self) -> Array:
        h = self.b / self.sig
        return h[0] - h[1]

    @property
    def B(self) -> Array:
        l1, l2 = self.rates
        return _assemble(len(self.p), self._mix(self.b), -l1 * self.p + l2 * (1.0 - self.p))

    @property
    def Sigma(self) -> Array:
        return _assemble(len(self.p), self.sig, self._h_diff * self.p * (1.0 - self.p))

    def H(self, phi: Array, lam: Array) -> Array:
        """H = <phi, B> + <lam, Sigma> + F along the ensemble."""
        return np.sum(phi * self.B, axis=1) + np.sum(lam * self.Sigma, axis=1) + self._mix(self.f)

    def H_theta(self, phi: Array, lam: Array) -> Array:
        """dH/dTheta = B_Theta^T phi + Sigma_Theta^T lam + F_Theta along the
        ensemble, the adjoint driver: the transpose of ``tangent`` in g.
        B_Theta has no (pi, x) entry and Sigma_Theta no x row."""
        d_x = (self._mix(self.b_x) * phi[..., 0]
               + self._gain_slope(self.b_x) * lam[..., 1]
               + self._mix(self.f_x))
        d_pi = (((self.b[0] - self.b[1]) * phi[..., 0] + -sum(self.rates) * phi[..., 1])
                + self._h_diff * (1.0 - 2.0 * self.p) * lam[..., 1]
                + (self.f[0] - self.f[1]))
        return _assemble(len(self.p), d_x, d_pi)

    def H_v(self, phi: Array, lam: Array) -> Array:
        """dH/dv = <phi, B_v> + <lam, Sigma_v> + F_v along the ensemble;
        B_v has no pi component and Sigma_v no x component."""
        return (phi[:, 0] * self._mix(self.b_v)
                + lam[:, 1] * self._gain_slope(self.b_v)
                + self._mix(self.f_v))

    def tangent(self, g: Array, w: Array) -> tuple[Array, Array, Array]:
        """(B_Theta g + B_v w, Sigma_Theta g + Sigma_v w, F_Theta . g + F_v w)
        at a state tangent g (..., n, 2) and a control tangent w (..., n);
        leading axes, one per direction say, carry through."""
        g_x, g_pi, n = g[..., 0], g[..., 1], len(self.p)
        d_b = _assemble(n, (self._mix(self.b_x) * g_x + (self.b[0] - self.b[1]) * g_pi)
                        + self._mix(self.b_v) * w, -sum(self.rates) * g_pi)
        d_sigma = _assemble(n, 0.0, (self._gain_slope(self.b_x) * g_x
                                     + self._h_diff * (1.0 - 2.0 * self.p) * g_pi)
                            + self._gain_slope(self.b_v) * w)
        d_f = (self._mix(self.f_x) * g_x + (self.f[0] - self.f[1]) * g_pi) \
            + self._mix(self.f_v) * w
        return d_b, d_sigma, d_f


# ---------------------------------------------------------------------------
# Variational system (forward pathwise derivative)
# ---------------------------------------------------------------------------


def _variational(path: InnovationPath, direction: Array, coeffs,
                 history: bool) -> tuple[Array, Array]:
    """Gamma_N (Gamma at every node with ``history``) and, per path, the
    running part sum_k (F_Theta . Gamma_k + F_v w_k) dt of the Gateaux
    derivative, from one coefficient table per step.  ``direction`` is
    (n, N) or a stack (D, n, N); the outputs carry its leading axis."""
    grid = path.grid
    direction = np.asarray(direction, dtype=np.float64)
    n = path.n_paths
    if direction.ndim not in (2, 3) or direction.shape[-2:] != (n, grid.n_steps):
        raise ConfigError(f"direction must have shape {(n, grid.n_steps)} or (D, "
                          f"{n}, {grid.n_steps}), got {direction.shape}")

    g = np.zeros(direction.shape[:-1] + (2,))
    running = np.zeros(direction.shape[:-1])
    gamma = np.zeros(direction.shape[:-1] + (grid.n_steps + 1, 2)) if history else None
    for k in range(grid.n_steps):
        w = direction[..., k]
        tab = coeffs.at(grid.times[k], path.states[:, k], path.probs[:, k, 0], path.controls[:, k])
        drift, diff, cost = tab.tangent(g, w)
        running += grid.dt * cost
        g = g + drift * grid.dt + diff * path.dnu[:, k, None]
        if history:
            gamma[..., k + 1, :] = g
    return (gamma if history else g), running


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
    return _variational(path, direction, coeffs or CompactCoeffs(spec), history=True)[0]


def gateaux_derivative(
    spec: ProblemSpec,
    path: InnovationPath,
    direction: Array,
    coeffs: CompactCoeffs | None = None,
) -> float | Array:
    """First-order cost change in a control direction (one per direction
    of a (D, n, N) stack, in one pass), via the variational system:

    dJ = E[ sum_k (F_Theta . Gamma_k + F_v w_k) dt + G_Theta . Gamma_N ].
    """
    coeffs = coeffs or CompactCoeffs(spec)
    gamma_N, total = _variational(path, direction, coeffs, history=False)
    Gt = coeffs.G_theta(path.states[:, -1], path.probs[:, -1, 0])
    total += np.sum(Gt * gamma_N, axis=-1)
    return np.mean(total, axis=-1) if total.ndim > 1 else float(np.mean(total))


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
        shape.  Powers are running products, not ``**``, written into one
        C-order array; a power 0 contributes no factor."""
        z = (np.asarray(x, dtype=np.float64) - loc) / scale
        p = np.asarray(p, dtype=np.float64)
        zs, ps = [None, z], [None, p]
        for _ in range(self.degree - 1):
            zs.append(zs[-1] * z)
            ps.append(ps[-1] * p)
        out = np.empty(np.broadcast_shapes(z.shape, p.shape) + (self.n_terms,))
        for c, (i, j) in enumerate(self.exponents):
            if i and j:
                np.multiply(zs[i], ps[j], out=out[..., c])
            else:
                out[..., c] = zs[i] if i else ps[j] if j else 1.0
        return out


class StepProjector:
    """Orthogonal projector onto the significant column space of a design.

    A well-conditioned design is orthonormalized through its Gram matrix
    G = A^T A, twice: with G = V diag(ev) V^T, M = V / sqrt(ev) makes
    A M orthonormal up to rounding of order eps cond(A)^2, and a second
    pass on (A M)^T (A M) brings that to eps (Cholesky-QR2 with an
    eigendecomposition in place of the Cholesky factor).  That route is
    taken only when G is finite and its eigenvalues span less than
    1 / ``GRAM_MIN_RATIO``, so it is full rank by construction; the
    ``svd_fallback`` flag records the other steps.

    Near a deterministic start the ensemble collapses onto a curve in
    (x, pi) and the monomials become exactly collinear, at any degree,
    so rank handling has to happen inside the step rather than by
    shrinking the basis: such a design falls back to a thin SVD, whose
    singular directions below ``RCOND`` times the leading one are
    dropped, and the projection uses what remains.  At the initial node
    this degrades to the plain ensemble mean, which is the exact
    conditional expectation there.

    ``coef(y)`` gives coefficients on the design's columns, with
    ``A @ coef(y)`` equal to ``fitted(y)`` up to rounding; ``on_basis``
    records the standardization of x in ``loc`` and ``scale``.
    """

    loc, scale = 0.0, 1.0

    def __init__(self, A: Array):
        self.A = A
        gram = _gram_orthonormal(A)
        self.svd_fallback = gram is None
        if gram is not None:
            self.U, self.V_over_s = gram
            self.rank = A.shape[1]
            return
        if not np.all(np.isfinite(A)):
            raise RegressionError("design matrix contains non-finite entries")
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        keep = s > RCOND * s[0] if s[0] > 0 else np.zeros_like(s, dtype=bool)
        self.rank = int(np.count_nonzero(keep))
        if self.rank == 0:
            raise RegressionError("design matrix is identically zero")
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


def _gram_orthonormal(A: Array) -> tuple[Array, Array] | None:
    """(U, M) with U = A M orthonormal, by two Gram passes, or None when
    A^T A is not finite (a non-finite design included) or its eigenvalues
    span 1 / ``GRAM_MIN_RATIO`` or more (an identically zero design
    included)."""
    with np.errstate(over="ignore", invalid="ignore"):
        G = A.T @ A
    if not np.all(np.isfinite(G)):
        return None
    ev, V = np.linalg.eigh(G)
    if not ev[0] > GRAM_MIN_RATIO * ev[-1]:
        return None
    M = V / np.sqrt(ev)
    U = A @ M
    ev, V = np.linalg.eigh(U.T @ U)
    M2 = V / np.sqrt(ev)
    return U @ M2, M @ M2


def _r_squared(y: Array, fit: Array) -> float:
    mean = float(y.mean())
    sst = float(np.sum((y - mean) ** 2))
    # A target is constant when its spread is negligible against its own
    # size, sst + n mean^2 = |y|^2.  An absolute bound would call every
    # target of a cheap enough cost constant, and R^2 = 1 would then pass
    # vacuously at every step.
    if sst <= 1e-14 * (sst + len(y) * mean * mean):
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
    the step-k coefficients).  All three are stored step-major, so that
    ``[:, k]`` is a contiguous (n_paths, 2) row.  ``dH_dv`` has shape
    (N, n_paths): the Hamiltonian's control gradient at (phi_pred, lam)
    per step, step-major.
    ``r_squared`` and ``ranks`` record the regression quality and the
    effective design rank at each backward step, and ``svd_fallback``
    the steps whose design was factored by SVD rather than through its
    Gram matrix (see ``StepProjector``).
    """

    grid: TimeGrid
    phi: Array
    lam: Array
    phi_pred: Array
    dH_dv: Array
    r_squared: Array
    ranks: NDArray[np.int64]
    svd_fallback: NDArray[np.bool_]
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

    onto the same basis to get Phi_k, and evaluates dH/dv at
    (E_k Phi_{k+1}, Lambda_k) from the same coefficient table.  One
    design factorization per step is shared by all regression targets:
    two passes through the design's Gram matrix when it is well
    conditioned, else a thin SVD whose collinear directions are truncated
    (see ``StepProjector``).  Which route ran is recorded per step, and
    the effective rank is recorded and logged when below the full basis
    size away from the start.  The minimum per-step R^2 across targets is
    recorded; it is structurally near zero at the first few steps (there
    is almost nothing to condition on yet), so diagnostics should read it
    per step rather than as a single scalar.
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
    basis = basis or PolyBasis()
    coeffs = coeffs or CompactCoeffs(spec)
    grid = path.grid
    dt = grid.dt
    times = grid.times
    n = path.n_paths
    if n < MIN_PATHS_PER_TERM * basis.n_terms:
        raise ConfigError(
            f"{n} paths cannot support {basis.n_terms} basis terms; need at "
            f"least {MIN_PATHS_PER_TERM * basis.n_terms}"
        )

    phi = np.empty((grid.n_steps + 1, n, 2)).transpose(1, 0, 2)
    lam = np.empty((grid.n_steps, n, 2)).transpose(1, 0, 2)
    phi_pred = np.empty((grid.n_steps, n, 2)).transpose(1, 0, 2)
    dH_dv = np.empty((grid.n_steps, n))
    r2 = np.empty(grid.n_steps)
    ranks = np.empty(grid.n_steps, dtype=np.int64)
    svd_fallback = np.empty(grid.n_steps, dtype=bool)
    adjoint = AdjointPath(grid=grid, phi=phi, lam=lam, phi_pred=phi_pred, dH_dv=dH_dv,
                          r_squared=r2, ranks=ranks, svd_fallback=svd_fallback,
                          basis_degree=basis.degree)

    phi[:, -1] = coeffs.G_theta(path.states[:, -1], path.probs[:, -1, 0])

    for k in range(grid.n_steps - 1, -1, -1):
        x = path.states[:, k]
        p = path.probs[:, k, 0]
        tab = coeffs.at(times[k], x, p, path.controls[:, k])

        proj = StepProjector.on_basis(basis, x, p)
        ranks[k] = proj.rank
        svd_fallback[k] = proj.svd_fallback
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
        dH_dv[k] = tab.H_v(m, lam_k)

        target = phi_next + tab.H_theta(phi_next, lam_k) * dt
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
) -> float | Array:
    """E[ sum_k dH/dv(t_k) w_k dt ]: the first-order cost change a control
    perturbation (or each of a (D, n, N) stack, in one pass) should produce
    according to the adjoint representation.

    The Phi factor is taken at node k+1 pathwise: since B_v, Sigma_v and
    w are node-k measurable, the tower property makes that estimator
    unbiased for the pairing with E[Phi_{k+1} | node k], and summation by
    parts shows exactly that pairing reproduces ``gateaux_derivative``
    for the discrete recursions.  Residual disagreement is regression
    error in Lambda and Phi, not an O(dt) defect.
    """
    coeffs = coeffs or CompactCoeffs(spec)
    grid = path.grid
    direction = np.asarray(direction, dtype=np.float64)
    total = np.zeros(direction.shape[:-1])
    for k in range(grid.n_steps):
        tab = coeffs.at(grid.times[k], path.states[:, k], path.probs[:, k, 0],
                        path.controls[:, k])
        total += grid.dt * tab.H_v(adjoint.phi[:, k + 1], adjoint.lam[:, k]) * direction[..., k]
    return np.mean(total, axis=-1) if total.ndim > 1 else float(np.mean(total))


def stationarity_report(spec: ProblemSpec, path: InnovationPath, adjoint: AdjointPath) -> dict:
    """sqrt(E integral |dH/dv|^2 dt) along the ensemble controls.

    dH/dv is the sweep's ``adjoint.dH_dv``, taken with the fitted node-k
    adjoint values (the squared norm needs conditional means, not
    unbiased samples), so no coefficient is evaluated here.  For an
    interior optimum the gradient itself must vanish; with a bounded
    control domain the right object is the projected residual
    |u - proj(u - dH/dv)|, which also vanishes at domain-boundary
    optima.  Both are reported, with regression diagnostics.
    """
    dt = path.grid.dt
    lo, hi = spec.control_domain
    sq = sq_proj = 0.0
    for u, hv in zip(path.controls.T, adjoint.dH_dv):
        sq += float(np.mean(hv**2)) * dt
        sq_proj += float(np.mean((u - np.clip(u - hv, lo, hi)) ** 2)) * dt
    return {
        "residual": float(np.sqrt(sq)),
        "projected_residual": float(np.sqrt(sq_proj)),
        "n_paths": path.n_paths,
        "basis_degree": int(adjoint.basis_degree),
        "per_step_r2_min": float(adjoint.r_squared.min()),
    }
