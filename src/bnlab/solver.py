"""Radial shooting solver on the unit ball.

The two-point problem is reduced to a single forward integration: normalize
the height to 1 and shoot in the perturbation strength eps_tilde.  The
profile u_tilde solves

    u'' + ((N-1)/r) u' + u^{2*-1} + eps_tilde u^{q-1} = 0,
    u(0) = 1, u'(0) = 0,

and its first zero R_tilde maps the profile back to the unit ball via
u(x) = R_tilde^{(N-2)/2} u_tilde(R_tilde x) with
eps = eps_tilde * R_tilde^{(2N-(N-2)q)/2}.

The energy functionals are accumulated as extra ODE components, so their
accuracy is the integrator tolerance rather than any resampling grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .constants import Params, omega_n
from .errors import DomainError, IntegrationFailureError, UnreachableEpsError

__all__ = [
    "ShootResult",
    "RadialSolution",
    "shoot",
    "scale_to_unit_ball",
    "solution_at",
    "solve_for_eps",
]

_R_START = 1e-4
PROFILE_POINTS = 4097


@dataclass
class ShootResult:
    """Outcome of one forward integration of the height-normalized ODE."""

    params: Params
    eps_tilde: float
    first_zero: Optional[float]
    r_grid: np.ndarray
    # scaled-variable quadratures accumulated by the integrator:
    # grad2 = int u'^2 r^{N-1}, mass_crit = int u^{2*} r^{N-1},
    # mass_q = int u^q r^{N-1}, all over [0, first_zero]
    grad2: float
    mass_crit: float
    mass_q: float
    du_at_zero: float
    dense: Callable = field(repr=False, default=None)

    def eval(self, s):
        """(u_tilde, u_tilde') at scaled radii s, series-started near 0."""
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        u = np.empty_like(s)
        du = np.empty_like(s)
        small = s < _R_START
        if np.any(small):
            a2, a4 = _series_coeffs(self.params, self.eps_tilde)
            ss = s[small]
            u[small] = 1.0 + a2 * ss**2 + a4 * ss**4
            du[small] = 2.0 * a2 * ss + 4.0 * a4 * ss**3
        if np.any(~small):
            vals = self.dense(s[~small])
            u[~small] = vals[0]
            du[~small] = vals[1]
        return (float(u[0]), float(du[0])) if scalar else (u, du)


@dataclass
class RadialSolution:
    """Positive radial solution on the unit ball with energy diagnostics."""

    params: Params
    eps: float
    eps_tilde: float
    mu: float  # max value u(0) = ||u||_inf
    R_tilde: float
    grad_sq: float
    l2star_norm: float
    lq_norm_q: float
    energy: float  # S_eps
    nehari_residual: float
    pohozaev_residual: float
    du_at_boundary: float
    shoot_result: ShootResult = field(repr=False, default=None)

    def eval_unit(self, r):
        """(u, u') at unit-ball radii r from the dense shooting output."""
        half = (self.params.N - 2.0) / 2.0
        Rt = self.R_tilde
        u, du = self.shoot_result.eval(np.asarray(r, dtype=float) * Rt)
        return Rt**half * u, Rt ** (half + 1.0) * du

    def profile(self):
        """(r, u, u') on PROFILE_POINTS equispaced unit-ball radii."""
        r = np.linspace(0.0, 1.0, PROFILE_POINTS)
        u, du = self.eval_unit(r)
        u[-1] = 0.0  # Dirichlet value, within the event tolerance
        return r, u, du


def _series_coeffs(p: Params, eps_tilde: float):
    """u = 1 + a2 r^2 + a4 r^4 matching the ODE through order r^2 at 0."""
    N = p.N
    f0 = 1.0 + eps_tilde
    f1 = (p.two_star - 1.0) + eps_tilde * (p.q - 1.0)
    a2 = -f0 / (2.0 * N)
    a4 = f0 * f1 / (8.0 * N * (N + 2.0))
    return a2, a4


def shoot(p: Params, eps_tilde: float, r_max: Optional[float] = None,
          tol: float = 1e-10, rtol: float = 1e-13,
          atol: float = 1e-16) -> ShootResult:
    """Integrate the height-normalized ODE until the first zero or r_max
    (by default the blow-up estimate of _estimate_r_max)."""
    if not 0.0 < eps_tilde < np.inf:
        raise DomainError(
            f"eps_tilde must be positive and finite, got {eps_tilde}"
        )
    if r_max is None:
        r_max = _estimate_r_max(p, eps_tilde)
    if not r_max > _R_START:
        raise DomainError(f"r_max must exceed {_R_START}, got {r_max}")
    N, q, p2 = p.N, p.q, p.two_star

    def rhs(r, y):
        u, du = y[0], y[1]
        up = max(u, 0.0)
        f = up ** (p2 - 1.0) + eps_tilde * up ** (q - 1.0)
        rn = r ** (N - 1)
        return (
            du,
            -(N - 1.0) / r * du - f,
            du * du * rn,
            up**p2 * rn,
            up**q * rn,
            f * rn,
        )

    def hit_zero(r, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1.0

    a2, a4 = _series_coeffs(p, eps_tilde)
    r0 = _R_START
    y0 = (
        1.0 + a2 * r0**2 + a4 * r0**4,
        2.0 * a2 * r0 + 4.0 * a4 * r0**3,
        # leading-order contributions of [0, r0] to the quadratures
        (2.0 * a2) ** 2 * r0 ** (N + 2) / (N + 2.0),
        r0**N / N,
        r0**N / N,
        (1.0 + eps_tilde) * r0**N / N,
    )
    # high order + tight tolerances matter: the first zero sits on the tail
    # where the profile is nearly harmonic, so early integration errors are
    # amplified by ~R_tilde^{N-2} in the zero location and hence in the
    # Pohozaev residual
    sol = solve_ivp(
        rhs, (r0, r_max), y0, method="DOP853", rtol=rtol, atol=atol,
        dense_output=True, events=hit_zero,
    )
    if sol.status == -1:
        raise IntegrationFailureError(f"integrator failed: {sol.message}")

    if sol.status == 1 and len(sol.t_events[0]):
        r_zero = float(sol.t_events[0][0])
        y_end = sol.y_events[0][0]
        if abs(y_end[0]) > tol:
            raise IntegrationFailureError(
                f"event root not polished below tol: |u|={abs(y_end[0])}"
            )
        first_zero = r_zero
        grad2, mass_crit, mass_q = y_end[2], y_end[3], y_end[4]
        # the flux identity r^{N-1} u' = -int_0^r s^{N-1} f(u) ds recovers
        # the boundary slope at the integrator's relative accuracy; the raw
        # derivative component loses precision once |u'| nears atol
        du_zero = -float(y_end[5]) / r_zero ** (N - 1)
    else:
        first_zero = None
        grad2 = mass_crit = mass_q = np.nan
        du_zero = np.nan

    return ShootResult(
        params=p,
        eps_tilde=eps_tilde,
        first_zero=first_zero,
        r_grid=sol.t,
        grad2=float(grad2),
        mass_crit=float(mass_crit),
        mass_q=float(mass_q),
        du_at_zero=du_zero,
        dense=sol.sol,
    )


def scale_to_unit_ball(p: Params, s: ShootResult) -> RadialSolution:
    """Map a shooting profile with a first zero back to the unit ball.

    The integrals are scale-invariant combinations of the quadratures
    accumulated along the shooting integration:
      int |grad u|^2      = omega_N * int u_t'^2 s^{N-1} ds
      int u^{2*}          = omega_N * int u_t^{2*} s^{N-1} ds
      int u^q             = omega_N * R^{(N-2)q/2 - N} int u_t^q s^{N-1} ds
    The Pohozaev residual is that of
    (omega_N/2N) u'(1)^2 = (1/q - 1/2*) eps int u^q.
    """
    if s.first_zero is None:
        raise DomainError("shoot result has no first zero; nothing to scale")
    N, q = p.N, p.q
    Rt = s.first_zero
    half = (N - 2.0) / 2.0
    eps = s.eps_tilde * Rt ** ((2.0 * N - (N - 2.0) * q) / 2.0)
    du_at_boundary = Rt ** (half + 1.0) * s.du_at_zero

    wN = omega_n(N)
    grad_sq = wN * s.grad2
    l2star_norm = wN * s.mass_crit
    lq_norm_q = wN * Rt ** ((N - 2.0) * q / 2.0 - N) * s.mass_q
    pohozaev_lhs = wN / (2.0 * N) * du_at_boundary**2
    pohozaev_rhs = (1.0 / q - 1.0 / p.two_star) * eps * lq_norm_q
    return RadialSolution(
        params=p,
        eps=eps,
        eps_tilde=s.eps_tilde,
        mu=Rt**half,
        R_tilde=Rt,
        grad_sq=grad_sq,
        l2star_norm=l2star_norm,
        lq_norm_q=lq_norm_q,
        energy=0.5 * grad_sq - l2star_norm / p.two_star - eps * lq_norm_q / q,
        nehari_residual=abs(grad_sq - l2star_norm - eps * lq_norm_q) / grad_sq,
        pohozaev_residual=abs(pohozaev_lhs - pohozaev_rhs) / abs(pohozaev_rhs),
        du_at_boundary=du_at_boundary,
        shoot_result=s,
    )


def solution_at(p: Params, eps_tilde: float) -> Optional[RadialSolution]:
    """The ball solution of shooting parameter eps_tilde, or None when the
    shoot finds no first zero within its default span."""
    s = shoot(p, eps_tilde)
    return None if s.first_zero is None else scale_to_unit_ball(p, s)


def _estimate_r_max(p: Params, eps_tilde: float) -> float:
    """Heuristic integration span: the blow-up product eps_t * R^{N-2} stays
    O(alpha_{N,q} R(0)); pad it by a wide margin."""
    from .constants import alpha_nq

    try:
        target = alpha_nq(p) / ((p.N - 2.0) * omega_n(p.N))
    except DomainError:
        target = 100.0
    guess = (max(target, 1.0) / eps_tilde) ** (1.0 / (p.N - 2.0))
    return max(1e3, 30.0 * guess)


def solve_for_eps(p: Params, eps_target: float,
                  tol: float = 1e-8) -> RadialSolution:
    """Find eps_tilde with eps(eps_tilde) = eps_target on the small-eps_tilde
    (large first zero) branch by bracketing plus Brent root solve."""
    if not 0.0 < eps_target < np.inf:
        raise DomainError(
            f"eps_target must be positive and finite, got {eps_target}"
        )

    cache: dict[float, RadialSolution] = {}

    def eps_of(log_et: float) -> float:
        sol = solution_at(p, float(np.exp(log_et)))
        if sol is None:
            return -np.inf
        cache[log_et] = sol
        return sol.eps

    grid = np.log(np.logspace(-14, 2, 33))
    lo = hi = None
    prev_log, prev_eps = None, None
    for log_et in grid:
        e = eps_of(log_et)
        if not np.isfinite(e):
            prev_log, prev_eps = None, None
            continue
        if prev_eps is not None and (prev_eps - eps_target) * (e - eps_target) <= 0:
            lo, hi = prev_log, log_et
            break
        if abs(e - eps_target) <= tol * eps_target:
            return cache[log_et]
        prev_log, prev_eps = log_et, e
    if lo is None:
        raise UnreachableEpsError(
            f"eps={eps_target} not bracketed for (N={p.N}, q={p.q}); "
            "the target may lie below the fold minimum"
        )

    root = brentq(lambda L: eps_of(L) - eps_target, lo, hi,
                  xtol=1e-13, rtol=1e-13)
    e = eps_of(root)
    sol = cache[root]
    if abs(e - eps_target) > tol * eps_target:
        raise UnreachableEpsError(
            f"bisection stalled at eps={e}, target {eps_target}"
        )
    return sol
