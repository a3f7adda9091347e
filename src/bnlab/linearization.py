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
floor(theta(R_tilde) / pi) is the exact zero count of v: it gives the
number of negative eigenvalues (the Morse index) and brackets each
eigenvalue by index.  theta(R_tilde; nu) is continuous and increasing in
nu, and the j-th eigenvalue is the root of theta(R_tilde; nu) = (j + 1) pi,
which Brent's method finds inside that bracket.

Each shoot runs Hairer's Fortran DOP853 (Hairer, Norsett & Wanner, Solving
ODEs I, II.10) through scipy.integrate.ode: the method and error norm of
solve_ivp's DOP853, with a compiled step loop, and with rtol = 1e-14 below
the 2.2e-14 floor to which solve_ivp clamps.  Two settings differ from that
code's defaults.  Legs towards smaller s run forward in t = -s, because it
takes its first step with the sign given and would otherwise start outward
past R_tilde.  Its stiffness test is off: in the forbidden ell = 0 tail at
nu < 0 the step is bound by stability, and the test stops integrations
there that complete without it (N = 3, q = 5, eps_tilde = 1e-4, nu = -0.5
at rtol = 1e-13).

Accuracy near zero is that of the shoot.  Measured on the ell = 1
eigenvalue against its closed-form limit at N = 3, 4 and 5, the absolute
error of a scaled eigenvalue nu is 2e-16 to 7e-16 (4e-15 at rtol = 1e-13):
nu = 3e-13 is resolved to 0.1%, 3e-14 to 0.8%, 8e-15 to 8% and 1e-15 only
to about 30%; 5e-16 is off by a factor 16.  The ell = 1 eigenvalue
(~ mu^{-2}) falls below 1e-14 at the deep end of the default sweeps.  An
eigenvalue with |nu| below _NU_RESOLVED = 1e-13, where the error is at most
0.7%, is reported as not resolved.

Below zero the tail where the potential is smaller than -nu is classically
forbidden, and theta(R_tilde; nu) is a step of height pi over a nu-window
about exp(-2 sqrt(-nu) R_tilde) wide, on which Brent can only bisect.  The
search for an eigenvalue below zero therefore matches two shoots (Pryce,
1993; SLEIGN2): a second leg integrates the profile and the angle phi of the
solution that vanishes at R_tilde back from R_tilde to the bubble length
s_m, and Theta = theta(s_m) - phi(s_m) + pi is smooth in nu, with the same
count floor(Theta / pi) and the same roots.  Searches at nu >= 0 cross no
forbidden tail and keep the one-sided angle.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import ode
from scipy.optimize import brentq

from .constants import Params
from .errors import DomainError, FitFailureError, IntegrationFailureError
from .solver import RadialSolution, _length_scale

__all__ = [
    "ModeOperator",
    "build_mode_operator",
    "eigenvalues_near_zero",
    "nondegeneracy_certificate",
]

_S_START = 1e-3
# relative tolerance of the mode shoot, which runs Hairer's DOP853 through
# scipy.integrate.ode: unlike solve_ivp it takes an rtol below 2.2e-14.
# Near zero it sets the absolute error of nu; the module docstring says why
# backward legs run in -s and why the stiffness test is off.
_MODE_RTOL = 1e-14
# smallest |nu| = |lambda| / R_tilde^2 reported as resolved, measured at
# _MODE_RTOL; do not lower it without measuring again
_NU_RESOLVED = 1e-13
# relative tolerance of Brent's eigenvalue root solve.  brentq returns an end
# of its last bracket, not the midpoint, so 5e-7 bounds the error as the
# 1e-6 bracket of the former bisection did.
_XTOL_REL = 5e-7


@dataclass(frozen=True)
class ModeOperator:
    """Mode-ell linearization at a radial solution, in the scaled variable."""

    params: Params
    ell: int
    eps_tilde: float
    R_tilde: float
    # u'(R_tilde) of the height-1 profile: the start of the backward leg
    du_at_R_tilde: float
    # multiplies the whole potential; 1.0 is the physical operator, other
    # values manufacture synthetic (near-)degenerate test problems
    potential_scale: float = 1.0

    @property
    def centrifugal(self) -> float:
        return self.ell * (self.ell + self.params.N - 2.0)

    @property
    def match_point(self) -> float:
        """Where the two legs of a matched shoot meet: the bubble length
        sqrt(N(N-2)), scaled with the profile's length, or R_tilde."""
        N = self.params.N
        return min(self.R_tilde,
                   math.sqrt(N * (N - 2.0)) * _length_scale(self.eps_tilde))


def build_mode_operator(p: Params, sol: RadialSolution, ell: int,
                        potential_scale: float = 1.0) -> ModeOperator:
    if ell < 0:
        raise DomainError(f"mode index must be nonnegative, got {ell}")
    return ModeOperator(
        params=p,
        ell=ell,
        eps_tilde=sol.eps_tilde,
        R_tilde=sol.R_tilde,
        du_at_R_tilde=sol.shoot_result.du_at_zero,
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


def _shoot_mode(op: ModeOperator, nu: float,
                s_match: float | None = None) -> float:
    """Pruefer angle of the mode solution at nu, by one shoot.

    The base profile is integrated together with the Pruefer angle theta of
    the mode solution v ~ s^ell, tan(theta) = v / (s v'), which stays
    bounded where v grows or decays exponentially.  Where theta is a
    multiple of pi its derivative is 1/s > 0, so every zero of v is crossed
    exactly once and upward: floor(theta(R_tilde) / pi) is the number of
    zeros on (0, R_tilde), which by Sturm oscillation is the number of
    eigenvalues below nu.

    With s_match < R_tilde the forward leg stops there, and a backward leg
    carries the profile and the angle phi of the solution with v(R_tilde) =
    0, v'(R_tilde) < 0 (phi = pi) down to s_match.  The return value
    theta(s_match) - phi(s_match) + pi is a multiple of pi exactly when the
    two solutions are proportional, increases in nu and equals
    theta(R_tilde) at s_match = R_tilde, so it keeps the count and the
    roots of the one-sided angle.
    """
    p = op.params
    N, q, p2 = p.N, p.q, p.two_star
    et = op.eps_tilde
    cl = op.centrifugal
    scale = op.potential_scale
    scale_len = _length_scale(et)

    def leg(s_from, s_to, y0):
        # Hairer's code takes first_step with the sign it is given, so a leg
        # towards smaller s would first march outward past R_tilde (and end
        # about pi off at N = 4, eps_tilde = 1e8).  Every leg runs forward
        # in t = d s instead; the state stays (u, u', angle) in s, so each
        # derivative is multiplied by d.
        d = 1.0 if s_to > s_from else -1.0

        def rhs(t, y):
            u, du, th = y
            s = d * t
            up = max(u, 0.0)
            w = scale * ((p2 - 1.0) * up ** (p2 - 2.0)
                         + et * (q - 1.0) * up ** (q - 2.0))
            c, sn = math.cos(th), math.sin(th)
            return (
                d * du,
                d * (-(N - 1.0) / s * du
                     - (up ** (p2 - 1.0) + et * up ** (q - 1.0))),
                d * (c * c + (N - 2.0) * sn * c
                     + ((w + nu) * s * s - cl) * sn * sn) / s,
            )

        r = ode(rhs).set_integrator("dop853", rtol=_MODE_RTOL, atol=1e-160,
                                    first_step=1e-4 * scale_len,
                                    nsteps=2**31 - 1)
        r.set_initial_value(y0, d * s_from)
        # IWORK(4) < 0 switches Hairer's stiffness test off, which would stop
        # the forbidden ell = 0 tail at nu < 0; the scipy wrapper has no
        # keyword for it
        r._integrator.iwork[3] = -1
        with warnings.catch_warnings():
            # the wrapper warns before it reports a failed run; the error
            # below carries the return code instead
            warnings.filterwarnings("ignore", "dop853: ", UserWarning)
            y = r.integrate(d * s_to)
        if not r.successful():
            raise IntegrationFailureError(
                f"mode integration failed on [{s_from}, {s_to}]: "
                f"dop853 return code {r.get_return_code()}"
            )
        return float(y[2])

    s0 = _S_START * scale_len
    s_m = op.R_tilde if s_match is None else s_match
    a2, a4 = _series_coeffs(p, et)
    # v = s^ell near 0 gives tan(theta) = 1/ell, i.e. theta = pi/2 at ell = 0
    theta = leg(s0, s_m, [
        1.0 + a2 * s0**2 + a4 * s0**4,
        2.0 * a2 * s0 + 4.0 * a4 * s0**3,
        math.atan2(1.0, op.ell),
    ])
    if s_m >= op.R_tilde:
        return theta
    phi = leg(op.R_tilde, s_m, [0.0, op.du_at_R_tilde, math.pi])
    return theta - phi + math.pi


def _eigenvalue_by_index(op: ModeOperator, theta, j: int, m0: int) -> float:
    """j-th (0-based) Dirichlet eigenvalue of the scaled mode operator.

    theta(nu) is the memoised one-sided Pruefer angle of the operator's mode
    shoot and m0 the number of eigenvalues below zero.  Anchoring the
    bracket at zero keeps the search in the cheap non-oscillatory regime for
    the eigenvalues adjacent to zero.  An eigenvalue below zero is bracketed
    by [a, 0] and searched on the matched angle, which has the same count
    and roots but no step in the forbidden tail for Brent to bisect.
    """
    if m0 <= j:
        a = 0.0
    else:
        theta = functools.cache(
            lambda nu: _shoot_mode(op, nu, op.match_point))
        # lower bound: the operator is bounded below by -max potential
        a = -1.1 * (op.potential_scale
                    * ((op.params.two_star - 1.0) + op.eps_tilde
                       * (op.params.q - 1.0))) - 1e-6
        if theta(a) >= (j + 1) * math.pi:
            raise IntegrationFailureError(
                f"eigenvalue {j} lies below the potential bound {a}"
            )
    b, cb = 0.0, m0
    step = 4.0 / op.R_tilde**2
    while cb <= j:
        b += step
        step *= 4.0
        cb = theta(b) // math.pi
        if b * op.R_tilde**2 > 1e8:  # unit-ball units
            raise IntegrationFailureError("eigenvalue search did not bracket")
    # the count is <= j exactly where theta < (j + 1) pi, so this has the
    # sign of the count test on the bracket [a, b]; Brent adds its magnitude
    nu, res = brentq(lambda x: theta(x) - (j + 1) * math.pi, a, b,
                     xtol=1e-18, rtol=_XTOL_REL, full_output=True, disp=False)
    if not res.converged:
        raise FitFailureError(
            f"eigenvalue {j} root solve on [{a}, {b}]: {res.flag}"
        )
    return nu


def eigenvalues_near_zero(op: ModeOperator):
    """The eigenvalues adjacent to zero (unit-ball units) and their count.

    Returns (below, above, n_negative); below is None when the spectrum is
    entirely positive.
    """
    # one integration per nu: the bracket ends and nu = 0 are reused
    theta = functools.cache(lambda nu: _shoot_mode(op, nu))
    m0 = int(theta(0.0) // math.pi)
    above = _eigenvalue_by_index(op, theta, m0, m0) * op.R_tilde**2
    below = None
    if m0 > 0:
        below = _eigenvalue_by_index(op, theta, m0 - 1, m0) * op.R_tilde**2
    return below, above, m0


def nondegeneracy_certificate(p: Params, sol: RadialSolution,
                              ell_max: int = 4, tol: float = 1e-3,
                              potential_scale: float = 1.0):
    """True iff every mode ell <= ell_max keeps its spectrum at a resolved
    distance >= tol from zero; the report carries per-mode distances, whether
    each is resolved (|lambda| / R_tilde^2 >= _NU_RESOLVED), and the
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
            # the nearest eigenvalue has the smallest |nu| of the mode
            "resolved": dist >= _NU_RESOLVED * op.R_tilde**2,
        }
    report["monotone_from_ell2"] = bool(
        all(min_abs[i] <= min_abs[i + 1] for i in range(2, ell_max))
    )
    # all modes share R_tilde, so the overall minimum is resolved iff every
    # mode's is
    report["resolved"] = all(m["resolved"]
                             for m in report["per_mode"].values())
    ok = report["resolved"] and all(d >= tol for d in min_abs)
    report["min_abs_overall"] = min(min_abs)
    return ok, report
