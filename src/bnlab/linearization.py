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
nu, and the j-th eigenvalue is the root of theta(R_tilde; nu) = (j + 1) pi.
Each shoot also carries theta_nu = d theta / d nu, the solution of the
angle's variational equation

    theta_nu' = [(N-2)(cos^2 - sin^2) + 2((W+nu) s^2 - ell(ell+N-2) - 1)
                 sin cos] / s * theta_nu + s sin^2,

so the root is found by Newton's method on the angle, safeguarded by the
count bracket (Pryce, Numerical Solution of Sturm-Liouville Problems, 1993,
ch. 5; rtsafe in Numerical Recipes).  It starts from the nu = 0 shoot of
the count and converges quadratically, also where theta is flat over most
of the bracket.  Both right-hand sides are written with the products
cos^2, sin^2 and sin cos, not the double angle: 1 - cos(2 theta) loses its
digits where theta is near a multiple of pi, as in the forbidden ell = 0
tail, where it took 4.5 times the right-hand-side calls (N = 3, q = 5,
eps_tilde = 1e-3, nu = -0.5).

Each shoot runs Hairer's compiled DOP853 on a long-lived integrator of
bnlab.dop853, the runner of the base shoot too, with rtol = 1e-14 below the
2.2e-14 floor to which solve_ivp clamps.  Its stiffness test is off: in
the forbidden ell = 0 tail at nu < 0 the step is bound by stability, and
the test stops integrations there that complete without it (N = 3, q = 5,
eps_tilde = 1e-4, nu = -0.5 at rtol = 1e-13).

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
about exp(-2 sqrt(-nu) R_tilde) wide, on which a search can only bisect.
The certificate does not search there.  It needs the eigenvalue nearest
zero, and when the mode has m0 = count(0) > 0 eigenvalues below zero, one
more shoot at nu_w = -|nu_above| counts those in [nu_w, 0): if
count(nu_w) = m0 there are none, and |nu_above| is the distance of the
spectrum from zero.  Otherwise the eigenvalue m0 - 1 lies in that window
and is searched inside it, where sqrt(-nu) R_tilde <= sqrt(|lambda_above|)
and the tail is short.  A Morse eigenvalue further down (nu = -0.39 at
N = 5, eps_tilde = 1e-2; -0.59 at N = 4, eps_tilde = 1e-5) is not computed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import Params
from .dop853 import Dop853
from .errors import DomainError, FitFailureError, IntegrationFailureError
from .solver import RadialSolution, _length_scale

__all__ = [
    "ModeOperator",
    "build_mode_operator",
    "check_certificate_options",
    "eigenvalues_near_zero",
    "nondegeneracy_certificate",
]

_S_START = 1e-3
# relative tolerance of the mode shoot, which runs Hairer's DOP853: unlike
# solve_ivp it takes an rtol below 2.2e-14.  Near zero it sets the absolute
# error of nu; the module docstring says why the stiffness test is off.
_MODE_RTOL = 1e-14
# smallest |nu| = |lambda| / R_tilde^2 reported as resolved, measured at
# _MODE_RTOL; do not lower it without measuring again
_NU_RESOLVED = 1e-13
# relative tolerance of the eigenvalue search: it stops once a step is this
# small relative to nu.  A Newton step that small leaves an error far below
# it; a bisection step that small bounds the error by it.  Below
# _NU_RESOLVED the stop is _XTOL_REL * _NU_RESOLVED = 5e-20 absolute, far
# below the shoot's own error of nu, so that a root within that error of
# nu = 0 still ends the search.
_XTOL_REL = 5e-7
# most shoots one eigenvalue search may take before it raises
_SEARCH_MAXITER = 60


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
    """The mode-ell operator at sol; p must be the solution's own (N, q)."""
    if p != sol.params:
        raise DomainError(f"parameters {p} do not match the solution's "
                          f"{sol.params}")
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


def _mode_rhs(s, y, et, cl, nm1, nm2, e2, eq, w2, wq, nu, off):
    """Right-hand side of the mode shoot: the base profile (u, u'), the
    Pruefer angle theta and z = theta_nu + off.  cl = ell(ell+N-2),
    nm1 = N-1, nm2 = N-2, e2 = 2*-2, eq = q-2, and w2, wq are 2*-1 and
    q-1 times the potential scale."""
    # Python floats: arithmetic on numpy scalars costs more
    u, du, th, z = y.tolist()
    up = u if u > 0.0 else 0.0
    # two powers per call; the others are products of these
    u2 = up ** e2
    uq = et * up ** eq
    k = (w2 * u2 + wq * uq + nu) * s * s - cl
    # products, not double angles (see the module docstring)
    c, sn = math.cos(th), math.sin(th)
    cc, ss, sc = c * c, sn * sn, sn * c
    return (
        du,
        -nm1 / s * du - (u2 + uq) * up,
        (cc + nm2 * sc + k * ss) / s,
        (nm2 * (cc - ss) + 2.0 * (k - 1.0) * sc) / s * (z - off) + s * ss,
    )


_DOP853 = Dop853(_mode_rhs)  # the mode shoots' integrator


def _shoot_mode(op: ModeOperator, nu: float) -> tuple[float, float]:
    """Pruefer angle theta(R_tilde) of the mode solution at nu and its
    nu-derivative, by one shoot.

    The base profile is integrated together with the Pruefer angle theta of
    the mode solution v ~ s^ell, tan(theta) = v / (s v'), which stays
    bounded where v grows or decays exponentially.  Where theta is a
    multiple of pi its derivative is 1/s > 0, so every zero of v is crossed
    exactly once and upward: floor(theta(R_tilde) / pi) is the number of
    zeros on (0, R_tilde), which by Sturm oscillation is the number of
    eigenvalues below nu.  theta_nu = d theta / d nu >= 0 is carried as a
    fourth state, by the variational equation of the angle's equation.
    """
    p = op.params
    et = op.eps_tilde
    scale_len = _length_scale(et)
    # theta_nu starts at 0 and stays >= 0 (Sturm comparison), but dop853
    # takes one scalar atol, 1e-160 here, and stalls on a state that starts
    # at exactly 0.  z = theta_nu + R_tilde^2 >= R_tilde^2 is on the scale
    # of theta_nu (the source term s sin^2 integrates to about
    # R_tilde^2 / 4), so its relative error control is meaningful from the
    # first step.
    off = op.R_tilde**2

    s0 = _S_START * scale_len
    a2, a4 = _series_coeffs(p, et)
    # v = s^ell near 0 gives tan(theta) = 1/ell, i.e. theta = pi/2 at ell = 0
    y0 = (
        1.0 + a2 * s0**2 + a4 * s0**4,
        2.0 * a2 * s0 + 4.0 * a4 * s0**3,
        math.atan2(1.0, op.ell),
        off,
    )
    args = (et, op.centrifugal, p.N - 1.0, p.N - 2.0, p.two_star - 2.0,
            p.q - 2.0, op.potential_scale * (p.two_star - 1.0),
            op.potential_scale * (p.q - 1.0), nu, off)
    y, _ = _DOP853.run(args, y0, s0, op.R_tilde, _MODE_RTOL, 1e-160,
                       first_step=1e-4 * scale_len)
    return float(y[2]), float(y[3]) - off


def _eigenvalue_by_index(op: ModeOperator, theta, j: int, lo: float) -> float:
    """j-th (0-based) Dirichlet eigenvalue of the scaled mode operator.

    theta(nu) is the memoised mode shoot (Pruefer angle and its
    nu-derivative) and lo a nu with at most j eigenvalues below it.  The
    root of theta(nu) = (j + 1) pi is found by Newton's method on the angle
    and its carried derivative, safeguarded as in Numerical Recipes'
    rtsafe.  The count keeps a bracket [lo, hi].  A Newton step is taken
    when it lands inside the bracket and either keeps the direction of the
    last step or is at most half the step before it; otherwise the search
    bisects, or expands x4 while there is no upper end.  The search starts
    at nu = 0, whose shoot the count has already made, and stops once a
    step is within _XTOL_REL of nu (see there).
    """
    target = (j + 1) * math.pi
    hi = math.inf
    # dx is the last step (nu -= dx) and dx_old the one before; the first
    # expansion goes to lambda = 4 in unit-ball units
    nu, dx, dx_old = 0.0, -1.0 / op.R_tilde**2, math.inf
    for _ in range(_SEARCH_MAXITER):
        th, dth = theta(nu)
        # the count is <= j exactly where th < target
        if th < target:
            lo = nu
        else:
            hi = nu
        step = (th - target) / dth if dth > 0.0 else math.inf
        if not (lo < nu - step <= hi
                and (step * dx > 0.0 or 2.0 * abs(step) <= abs(dx_old))):
            if hi == math.inf:
                step = -4.0 * abs(dx)
            else:
                step = nu - 0.5 * (lo + hi)
        dx_old, dx = dx, step
        nu -= step
        if abs(step) <= _XTOL_REL * max(abs(nu), _NU_RESOLVED):
            return nu
    raise FitFailureError(
        f"eigenvalue {j} search did not converge in {_SEARCH_MAXITER} "
        f"shoots; last bracket [{lo}, {hi}]"
    )


def eigenvalues_near_zero(op: ModeOperator):
    """The eigenvalues adjacent to zero (unit-ball units) and their count.

    Returns (below, above, n_negative).  below is the largest eigenvalue
    below zero if it lies in [-|above|, 0), and None otherwise: then no
    eigenvalue is nearer to zero from below than above is from above.
    """
    # one integration per nu: the search above zero starts from nu = 0
    theta = functools.cache(lambda nu: _shoot_mode(op, nu))
    m0 = int(theta(0.0)[0] // math.pi)
    nu_above = _eigenvalue_by_index(op, theta, m0, 0.0)
    below = None
    if m0 > 0:
        # eigenvalues in [nu_w, 0): m0 minus the count at nu_w
        nu_w = -abs(nu_above)
        count = int(theta(nu_w)[0] // math.pi)
        if count > m0:
            raise IntegrationFailureError(
                f"Sturm count {count} at nu = {nu_w} exceeds the count "
                f"{m0} at nu = 0"
            )
        if count < m0:
            below = (_eigenvalue_by_index(op, theta, m0 - 1, nu_w)
                     * op.R_tilde**2)
    return below, nu_above * op.R_tilde**2, m0


def check_certificate_options(ell_max: int, tol: float = 1e-3,
                              potential_scale: float = 1.0) -> None:
    """Raise DomainError for options that nondegeneracy_certificate rejects."""
    if ell_max < 2:
        raise DomainError(f"certificate needs ell_max >= 2, got {ell_max}")
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    if not np.isfinite(potential_scale):
        raise DomainError(
            f"potential_scale must be finite, got {potential_scale}"
        )


def nondegeneracy_certificate(p: Params, sol: RadialSolution,
                              ell_max: int = 4, tol: float = 1e-3,
                              potential_scale: float = 1.0):
    """True iff every mode ell <= ell_max keeps its spectrum at a resolved
    distance >= tol from zero and the distances do not fall from ell = 2 to
    ell_max, the centrifugal monotonicity that covers ell > ell_max; the
    report carries per-mode distances, whether each is resolved
    (|lambda| / R_tilde^2 >= _NU_RESOLVED), and the monotonicity check."""
    check_certificate_options(ell_max, tol, potential_scale)
    report = {"per_mode": {}}
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
    ok = (report["resolved"] and report["monotone_from_ell2"]
          and all(d >= tol for d in min_abs))
    report["min_abs_overall"] = min(min_abs)
    return ok, report
