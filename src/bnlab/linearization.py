"""Spectrum of the linearized operator at a radial solution, mode by mode in
spherical harmonics, and the resulting numerical nondegeneracy certificate.

The mode-ell operator on the unit ball is

    L_ell v = -v'' - ((N-1)/r) v' + (ell(ell+N-2)/r^2) v - V(r) v,
    V = (2*-1) u^{2*-2} + eps (q-1) u^{q-2},  v(1) = 0,

whose eigenvalues equal R_tilde^2 times those of the same operator written
in the scaled variable s = R_tilde * r on (0, R_tilde) with the height-1
profile.  Eigenvalues are computed by Sturm shooting in the scaled variable:
the base profile is re-integrated jointly with the Pruefer angle theta of
the mode solution, tan(theta) = v / (s v'), in one integration over
(0, R_tilde) for every nu.  theta increases through each multiple of pi, so
floor(theta(R_tilde) / pi) is the exact zero count of v, and bisection on
that count finds each eigenvalue by index.  Accuracy near zero is that of
the shooting (rtol = 1e-13): a scaled eigenvalue of 1e-12 is resolved to
~0.4%, one of 1e-13 to a few percent and one of 1e-14 only to a factor
~1.5, which the ell = 1 eigenvalue (~ mu^{-2}) reaches at the deep end of
the default sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .constants import Params
from .errors import DomainError, IntegrationFailureError
from .solver import RadialSolution

__all__ = [
    "ModeOperator",
    "build_mode_operator",
    "eigenvalues_near_zero",
    "nondegeneracy_certificate",
]

_S_START = 1e-3
_MODE_RTOL = 1e-13
_XTOL_REL = 1e-6  # relative bracket width that ends the eigenvalue bisection


@dataclass(frozen=True)
class ModeOperator:
    """Mode-ell linearization at a radial solution, in the scaled variable."""

    params: Params
    ell: int
    eps_tilde: float
    R_tilde: float
    # multiplies the whole potential; 1.0 is the physical operator, other
    # values manufacture synthetic (near-)degenerate test problems
    potential_scale: float = 1.0

    @property
    def centrifugal(self) -> float:
        return self.ell * (self.ell + self.params.N - 2.0)


def build_mode_operator(p: Params, sol: RadialSolution, ell: int,
                        potential_scale: float = 1.0) -> ModeOperator:
    if ell < 0:
        raise DomainError(f"mode index must be nonnegative, got {ell}")
    return ModeOperator(
        params=p,
        ell=ell,
        eps_tilde=sol.eps_tilde,
        R_tilde=sol.R_tilde,
        potential_scale=potential_scale,
    )


def _series_coeffs(p: Params, eps_tilde: float):
    """u = 1 + a2 r^2 + a4 r^4 matching the ODE through order r^2 at 0."""
    N = p.N
    f0 = 1.0 + eps_tilde
    f1 = (p.two_star - 1.0) + eps_tilde * (p.q - 1.0)
    a2 = -f0 / (2.0 * N)
    a4 = f0 * f1 / (8.0 * N * (N + 2.0))
    return a2, a4


def _shoot_mode(op: ModeOperator, nu: float) -> int:
    """Number of Dirichlet eigenvalues below nu, by one shoot.

    The base profile is integrated together with the Pruefer angle theta of
    the mode solution v ~ s^ell, tan(theta) = v / (s v'), which stays
    bounded where v grows or decays exponentially.  Where theta is a
    multiple of pi its derivative is 1/s > 0, so every zero of v is crossed
    exactly once and upward: floor(theta(R_tilde) / pi) is the number of
    zeros on (0, R_tilde), which by Sturm oscillation is the number of
    eigenvalues below nu.
    """
    p = op.params
    N, q, p2 = p.N, p.q, p.two_star
    et = op.eps_tilde
    cl = op.centrifugal
    scale = op.potential_scale

    def rhs(s, y):
        u, du, th = y
        up = max(u, 0.0)
        w = scale * ((p2 - 1.0) * up ** (p2 - 2.0)
                     + et * (q - 1.0) * up ** (q - 2.0))
        c, sn = math.cos(th), math.sin(th)
        return (
            du,
            -(N - 1.0) / s * du - (up ** (p2 - 1.0) + et * up ** (q - 1.0)),
            (c * c + (N - 2.0) * sn * c + ((w + nu) * s * s - cl) * sn * sn)
            / s,
        )

    s0 = _S_START
    a2, a4 = _series_coeffs(p, et)
    # v = s^ell near 0 gives tan(theta) = 1/ell, i.e. theta = pi/2 at ell = 0
    y0 = [
        1.0 + a2 * s0**2 + a4 * s0**4,
        2.0 * a2 * s0 + 4.0 * a4 * s0**3,
        math.atan2(1.0, op.ell),
    ]
    sol = solve_ivp(rhs, (s0, op.R_tilde), y0, method="DOP853",
                    rtol=_MODE_RTOL, atol=1e-160, first_step=1e-4)
    if not sol.success:
        raise IntegrationFailureError(
            f"mode integration failed on [{s0}, {op.R_tilde}]: {sol.message}"
        )
    return int(sol.y[2, -1] // math.pi)


def _eigenvalue_by_index(op: ModeOperator, j: int, m0: int) -> float:
    """j-th (0-based) Dirichlet eigenvalue of the scaled mode operator.

    m0 is the number of eigenvalues below zero.  Anchoring the bracket at
    zero keeps the bisection in the cheap non-oscillatory regime for the
    eigenvalues adjacent to zero.
    """
    if m0 <= j:
        a = 0.0
    else:
        # lower bound: the operator is bounded below by -max potential
        a = -1.1 * (op.potential_scale
                    * ((op.params.two_star - 1.0) + op.eps_tilde
                       * (op.params.q - 1.0))) - 1e-6
    b, cb = 0.0, m0
    step = 4.0 / op.R_tilde**2
    while cb <= j:
        b += step
        step *= 4.0
        cb = _shoot_mode(op, b)
        if b > 1e8:
            raise IntegrationFailureError("eigenvalue search did not bracket")
    # pure bisection on the Sturm count: the count jumps j -> j+1 exactly at
    # the eigenvalue, so this is sign bisection in disguise and needs no
    # magnitude information (which spans thousands of orders here)
    for _ in range(240):
        if b - a <= _XTOL_REL * max(abs(a), abs(b)) + 1e-18:
            break
        mid = 0.5 * (a + b)
        if _shoot_mode(op, mid) <= j:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def eigenvalues_near_zero(op: ModeOperator):
    """The eigenvalues adjacent to zero (unit-ball units) and their count.

    Returns (below, above, n_negative); below is None when the spectrum is
    entirely positive.
    """
    m0 = _shoot_mode(op, 0.0)
    above = _eigenvalue_by_index(op, m0, m0) * op.R_tilde**2
    below = None
    if m0 > 0:
        below = _eigenvalue_by_index(op, m0 - 1, m0) * op.R_tilde**2
    return below, above, m0


def nondegeneracy_certificate(p: Params, sol: RadialSolution,
                              ell_max: int = 4, tol: float = 1e-3,
                              potential_scale: float = 1.0):
    """True iff every mode ell <= ell_max keeps its spectrum at distance
    >= tol from zero; the report carries per-mode distances and the
    centrifugal monotonicity check that covers ell > ell_max."""
    if ell_max < 2:
        raise DomainError(f"certificate needs ell_max >= 2, got {ell_max}")
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    if not np.isfinite(potential_scale):
        raise DomainError(
            f"potential_scale must be finite, got {potential_scale}"
        )
    report = {"per_mode": {}, "tol": tol}
    min_abs = []
    for ell in range(ell_max + 1):
        op = build_mode_operator(p, sol, ell, potential_scale=potential_scale)
        below, above, m0 = eigenvalues_near_zero(op)
        dist = abs(above)
        if below is not None:
            dist = min(dist, abs(below))
        min_abs.append(dist)
        report["per_mode"][ell] = {
            "nearest_below": below,
            "nearest_above": above,
            "n_negative": m0,
            "min_abs": dist,
        }
    report["monotone_from_ell2"] = bool(
        all(min_abs[i] <= min_abs[i + 1] for i in range(2, ell_max))
    )
    ok = all(d >= tol for d in min_abs)
    report["min_abs_overall"] = min(min_abs)
    return ok, report
