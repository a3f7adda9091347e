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

so the root is found by Newton's method on the angle, bnlab.dop853.newton,
safeguarded by the count bracket (Pryce, Numerical Solution of
Sturm-Liouville Problems, 1993, ch. 5).  It starts from the nu = 0 shoot of
the count, or from the Dirichlet bound below, and converges quadratically,
also where theta is flat over most of the bracket.  Both right-hand sides
are written with the products cos^2, sin^2 and sin cos, not the double
angle: 1 - cos(2 theta) loses its digits where theta is near a multiple of
pi, as in the forbidden ell = 0 tail.

For ell >= 2 and potential_scale > 0 the potential is positive, so
L_ell < -Delta_ell, and by min-max the lowest eigenvalue of the mode lies
strictly below j_{m,1}^2, m = ell + N/2 - 1, the mode-ell Dirichlet
eigenvalue of the Laplacian on the unit ball (Courant and Hilbert I,
ch. VI; DLMF 10.21).  As eps_tilde -> 0 it tends to that bound from below:
from 19% to 1e-14 relative for ell = 2 to 4 at the 15 certified points
of the default sweeps at N = 3 to 7.  So when such a mode has no eigenvalue
below zero, its search shoots once at nu_j = j_{m,1}^2 / R_tilde^2, an
upper end of the bracket and a near-exact Newton start.  The count there
must be 1; a count of 0 contradicts the bound and raises
IntegrationFailureError.  Modes with eigenvalues below zero, and
potential_scale <= 0 (at 0 the bound is the root itself), start at
nu = 0.

Every shoot starts at s0 from the series of its solutions that
bnlab.series gives, exact to rounding; W is scaled by potential_scale
where the start reads it.

Each shoot is one call of scipy's compiled DOP853 by bnlab.dop853.run, at
rtol = _MODE_RTOL.  Its stiffness test is off: in the forbidden ell = 0
tail at nu < 0 the step is bound by stability, and the test stops
integrations there that complete without it (N = 3, q = 5,
eps_tilde = 1e-4, nu = -0.5 at rtol = 1e-13).

Accuracy near zero is that of the shoot.  Measured on the ell = 1
eigenvalue against its closed-form limit at N = 3, 4 and 5, the absolute
error of a scaled eigenvalue nu from the Pruefer shoot is 2e-16 to 7e-16
(4e-15 at rtol = 1e-13): nu = 3e-13 is resolved to 0.1%, 3e-14 to 0.8%,
8e-15 to 8% and 1e-15 only to about 30%; 5e-16 is off by a factor 16.  An
eigenvalue of the Pruefer shoot with |nu| below _NU_RESOLVED = 1e-13, where
the error is at most 0.7%, is reported as not resolved.

The physical ell = 1 operator (potential_scale = 1) is shot differently.
Differentiating the profile equation gives L_1 u' = 0 exactly: u' is the
translation kernel at nu = 0 (Bianchi & Egnell, J. Funct. Anal. 100, 1991),
and lambda_1 ~ mu^{-2} falls to nu = 1e-26 at the deep end of the default
sweeps, far below the Pruefer shoot's error.  There the Pruefer angle
cancels u' against its own rounding: in the tail u' ~ s^{1-N} is the
decaying solution, which a forward shoot loses, so both the value and the
count go wrong.  The kernel shoot carries the deviation from u' instead:
v = c u' + nu y with c = 1/(2 a_1), a_1 the s^2 coefficient of u,
(L_1 - nu) y = c u', and w = dy/dnu with (L_1 - nu) w = y.  lambda_1 is
the first root of v(R_tilde; nu) = c u'(R_tilde) + nu y(R_tilde; nu),
whose nu-derivative is y + nu w, and the zero count of v is the number of
its sign changes at the accepted step ends, 0 at nu = 0 by construction.
The same Newton search finds the root from nu = 0, where its first step is
the perturbation estimate -c u'(R_tilde) / y(R_tilde; 0): 2 or 3 shoots per
eigenvalue at the 15 certified points of the default sweeps at N = 3 to 7.
Its error is relative to nu: it agrees with the Pruefer root to within
6e-16 in nu wherever that one is resolved, a shoot at rtol x 100 moves it
by at most 7e-11 relative, and mu^2 lambda_1 is within 1.2e-5 of its
closed-form limit at eps_tilde = 1e-8 for N = 3, 4, 5.  So its search
stops on a relative step alone and its value is reported as resolved.
Modes ell != 1 and operators with potential_scale != 1 have no exact
kernel, and no such cancellation: they stay on the Pruefer shoot.

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

Nor does the certificate search every mode, only ell = 0, 1, ... up to the
first ell >= ell_max with no eigenvalue below zero.  L_{ell+1} - L_ell =
(2 ell + N - 1) / r^2 > 0, so by min-max (Courant and Hilbert I, ch. VI)
every higher mode's eigenvalues lie above that mode's lowest one, its
distance from zero.  At the physical potential it is ell = 1: a default
sweep's certificates take 23 to 25 mode shoots per cell at N = 3 to 7.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import dop853
from .constants import Params
from .errors import DomainError, FitFailureError, IntegrationFailureError
from .series import (SERIES_TERMS, check_no_zero, frobenius_pair,
                     profile_series)
from .solver import RadialSolution

__all__ = [
    "ModeOperator",
    "build_mode_operator",
    "check_certificate_options",
    "eigenvalues_near_zero",
    "nondegeneracy_certificate",
]

# relative tolerance of the mode shoots.  Near zero it sets the absolute
# error of nu of the Pruefer shoot; the module docstring says why the
# stiffness test is off.
_MODE_RTOL = 1e-14
# smallest |nu| = |lambda| / R_tilde^2 reported as resolved, measured at
# _MODE_RTOL; do not lower it without measuring again
_NU_RESOLVED = 1e-13
# relative tolerance of the eigenvalue search: it stops once a step is this
# small relative to nu.  A Newton step that small leaves an error far below
# it; a bisection step that small bounds the error by it.  On the Pruefer
# shoot, below _NU_RESOLVED the stop is _XTOL_REL * _NU_RESOLVED = 5e-20
# absolute, far below the shoot's own error of nu, so that a root within
# that error of nu = 0 still ends the search.
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
    """The mode-ell operator at sol; p must be the solution's own (N, q),
    with q >= 2: below it the potential term (q-1) eps u^{q-2} is unbounded
    at the boundary zero of u."""
    if p != sol.params:
        raise DomainError(f"parameters {p} do not match the solution's "
                          f"{sol.params}")
    if ell < 0:
        raise DomainError(f"mode index must be nonnegative, got {ell}")
    if p.q < 2.0:
        raise DomainError(f"the mode operator needs q >= 2, got q={p.q:g}")
    return ModeOperator(
        params=p,
        ell=ell,
        eps_tilde=sol.eps_tilde,
        R_tilde=sol.R_tilde,
        potential_scale=potential_scale,
    )


def _start(op: ModeOperator, nu: float):
    """Where a mode shoot at nu starts, the series' start at
    omega^2 = |nu| + |W(0)|, and what the series give there: s0,
    x0 = s0^2, the profile's c_k = a_k x0^k of u = sum a_k s^{2k}, the
    potential's x0^{k+1} w_k of W = sum w_k s^{2k}, and (u, u') at s0."""
    ser = profile_series(op.params, op.eps_tilde)
    L, a, w = ser.L, ser.A, op.potential_scale * ser.W
    s0 = ser.start(math.sqrt(abs(nu) + abs(w[0]) / L**2))
    rk = ser.powers(s0)
    c = a * rk
    u0 = (float(c.sum()), float(2.0 * (np.arange(len(c)) @ c) / s0))
    # rk[1] = (s0 / L)^2
    return s0, s0 * s0, c, w * (rk * rk[1]), u0


def _mode_start(op: ModeOperator, nu: float):
    """s0 and the mode shoot's state (u, u', theta, theta_nu) there.

    v = s^ell B(x), x = s^2, so s v' = s^ell (ell B + 2 x B') and
    theta = atan2(B, ell B + 2 x B'); theta_nu follows from D = dB/dnu.
    """
    s0, x0, _, x0w, u0 = _start(op, nu)
    b, d = frobenius_pair(x0w, x0, nu, op.ell, op.params.N, 1.0,
                          [0.0] * SERIES_TERMS)
    check_no_zero(b, "mode solution")
    k = op.ell + 2.0 * np.arange(b.size)
    P, Q, Pn, Qn = b.sum(), k @ b, d.sum(), k @ d
    return s0, (*u0, math.atan2(P, Q), (Q * Pn - P * Qn) / (P * P + Q * Q))


def _mode_args(op: ModeOperator, nu: float, off: float) -> tuple:
    p = op.params
    return (op.eps_tilde, op.centrifugal, p.N - 1.0, p.N - 2.0,
            p.two_star - 2.0, p.q - 2.0,
            op.potential_scale * (p.two_star - 1.0),
            op.potential_scale * (p.q - 1.0), nu, off)


def _mode_rhs(s, y, et, cl, nm1, nm2, e2, eq, w2, wq, nu, off):
    """Right-hand side of the mode shoot: the base profile (u, u'), the
    Pruefer angle theta and z = theta_nu + off.  cl = ell(ell+N-2),
    nm1 = N-1, nm2 = N-2, e2 = 2*-2, eq = q-2, and w2, wq are 2*-1 and
    q-1 times the potential scale.  It cannot raise: the powers read
    max(u, 0), and build_mode_operator refuses q < 2, so eq >= 0."""
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


def _shoot_mode(op: ModeOperator, nu: float) -> tuple[int, float, float]:
    """The count floor(theta / pi) of eigenvalues below nu, the Pruefer
    angle theta(R_tilde) of the mode solution v ~ s^ell at nu and its
    nu-derivative, by one shoot of the base profile with theta and
    theta_nu.  Where theta is a multiple of pi its derivative is 1/s > 0,
    so the count is the number of zeros of v on (0, R_tilde)."""
    # theta_nu stays >= 0 (Sturm comparison), but dop853 takes one scalar
    # atol, 1e-160 here, and theta_nu(s0) is as small as s0^2.
    # z = theta_nu + R_tilde^2 >= R_tilde^2 is on the scale of theta_nu (the
    # source term s sin^2 integrates to about R_tilde^2 / 4), so its
    # relative error control is meaningful from the first step.
    off = op.R_tilde**2
    s0, (u, du, th, th_nu) = _mode_start(op, nu)
    y, _ = dop853.run(_mode_rhs, _mode_args(op, nu, off),
                      (u, du, th, th_nu + off), s0, op.R_tilde, _MODE_RTOL,
                      1e-160)
    th = float(y[2])
    return int(th // math.pi), th, float(y[3]) - off


def _kernel_start(op: ModeOperator, nu: float):
    """s0, c = 1 / (2 a_1) and the kernel shoot's state
    (u, u', y, y', w, w') at s0, for ell = 1: y = s Y(x), x = s^2, with
    the source c u' = s sum 2 c (k+1) a_{k+1} x^k, and w = dy/dnu with
    the source y."""
    s0, x0, cs, x0w, u0 = _start(op, nu)
    # c u' ~ s near 0
    c = 0.5 * x0 / cs[1]
    src = np.zeros(SERIES_TERMS + 1)
    src[:len(cs) - 1] = 2.0 * c * np.arange(1, len(cs)) * cs[1:]
    y, w = frobenius_pair(x0w, x0, nu, 1, op.params.N, 0.0, src.tolist())
    # v / s = c u' / s + nu y / s, in powers of (s / s0)^2
    check_no_zero(src[:y.size] / x0 + nu * y, "kernel solution")
    k = 2.0 * np.arange(y.size) + 1.0
    return s0, c, (*u0, s0 * y.sum(), k @ y, s0 * w.sum(), k @ w)


def _kernel_args(op: ModeOperator, nu: float, c: float) -> tuple:
    p = op.params
    return (op.eps_tilde, p.N - 1.0, p.two_star - 2.0, p.q - 2.0,
            p.two_star - 1.0, p.q - 1.0, nu, c)


def _kernel_rhs(s, y, et, nm1, e2, eq, w2, wq, nu, c):
    """Right-hand side of the ell = 1 kernel shoot: the base profile
    (u, u'), y with (L_1 - nu) y = c u' and w = dy/dnu with
    (L_1 - nu) w = y, each with its derivative.  nm1 = N-1, e2 = 2*-2,
    eq = q-2, w2 = 2*-1, wq = q-1.  Like _mode_rhs, it cannot raise."""
    u, du, z, dz, w, dw = y.tolist()
    up = u if u > 0.0 else 0.0
    u2 = up ** e2
    uq = et * up ** eq
    a = nm1 / s
    # W + nu minus the ell = 1 centrifugal term (N-1)/s^2
    k = w2 * u2 + wq * uq + nu - a / s
    return (du, -a * du - (u2 + uq) * up,
            dz, -a * dz - k * z - c * du,
            dw, -a * dw - k * w - z)


def _carries_kernel(op: ModeOperator) -> bool:
    """Whether op is the physical ell = 1 operator, whose kernel at nu = 0
    is exactly u' (the translation mode), so that _shoot_kernel applies."""
    return op.ell == 1 and op.potential_scale == 1.0


def _shoot_kernel(op: ModeOperator, nu: float) -> tuple[int, float, float]:
    """Zero count of the ell = 1 mode solution v = c u' + nu y at nu, and
    -v(R_tilde) with its nu-derivative, by one shoot.

    u' solves the ell = 1 equation exactly at nu = 0, so v carries it and
    the shoot integrates only the deviation y, with (L_1 - nu) y = c u',
    and w = dy/dnu, with (L_1 - nu) w = y, both from their series at s0
    (_kernel_start).  c = 1 / (2 a_1) makes v ~ s near 0.  The count is
    the number of sign changes of v at the accepted step ends, R_tilde
    included; at nu = 0 it is 0, as v = c u' > 0.  -v(R_tilde) rises
    through zero at lambda_1, as the Pruefer angle rises through pi.
    """
    s0, c, y0 = _kernel_start(op, nu)
    count, neg = 0, False

    def sign_changes(s, y):
        nonlocal count, neg
        if (c * y[1] + nu * y[2] < 0.0) != neg:
            count, neg = count + 1, not neg

    # atol 1e-300 leaves pure relative control: y and w are O(s0^3) and
    # O(s0^5) at the start, and u' is O(R_tilde^{1-N}) at the end
    y, _ = dop853.run(_kernel_rhs, _kernel_args(op, nu, c), y0, s0,
                      op.R_tilde, _MODE_RTOL, 1e-300, solout=sign_changes)
    return (count, -float(c * y[1] + nu * y[2]),
            -float(y[2] + nu * y[4]))


@functools.cache
def _bessel_zero(m: float) -> float:
    """j_{m,1}, the first positive zero of J_m, for m > 1/2.

    The bracket [a, a + pi], a = m + 1.8557571 m^(1/3), holds j_{m,1} and
    no other zero: a is Qu and Wong's lower bound on j_{m,1}, their upper
    bound lies 1.0331 m^(-1/3) < pi above it (Trans. AMS 351, 1999; DLMF
    10.21(vii)), and for m > 1/2 consecutive zeros of J_m lie more than pi
    apart, by Sturm comparison of sqrt(x) J_m(x) with sin(x).
    """
    from scipy.special import jv  # only spectrum at ell >= 2 needs it
    a = m + 1.8557570814892386 * m ** (1.0 / 3.0)
    return dop853.brentq(lambda x: jv(m, x), a, a + math.pi, xtol=1e-15,
                         rtol=4.0 * np.finfo(float).eps)


def _dirichlet_bound(op: ModeOperator):
    """j_{m,1}^2, m = ell + N/2 - 1, for ell >= 2 and potential_scale > 0,
    else None: the mode-ell Dirichlet eigenvalue of the Laplacian on the
    unit ball, strictly above the mode's lowest eigenvalue (unit-ball
    units; the module docstring says why)."""
    if op.ell < 2 or not op.potential_scale > 0.0:
        return None
    return _bessel_zero(op.ell + op.params.N / 2.0 - 1.0) ** 2


def _eigenvalue_by_index(op: ModeOperator, shoot, j: int, lo: float,
                         target: float, nu_floor: float,
                         nu: float = 0.0) -> float:
    """j-th (0-based) Dirichlet eigenvalue of the scaled mode operator: the
    root of f(nu) = target by bnlab.dop853.newton from nu, a shoot the
    caller has already made (nu = 0, or the Dirichlet bound).  shoot(nu) is
    a memoised mode shoot that returns the count of eigenvalues below nu,
    which keeps the bracket, f(nu) and f'(nu), where f rises through target
    at the eigenvalue; lo has at most j eigenvalues below it.  The first
    expansion goes to lambda = 4, and the search stops once a step is
    within _XTOL_REL of max(|nu|, nu_floor) (see there)."""
    def g(nu):
        count, f, df = shoot(nu)
        return count > j, f - target, df

    return dop853.newton(g, nu, lo, math.inf, -1.0 / op.R_tilde**2,
                         _XTOL_REL, nu_floor, _SEARCH_MAXITER,
                         f"eigenvalue {j} search")


def eigenvalues_near_zero(op: ModeOperator):
    """The eigenvalues adjacent to zero (unit-ball units) and their count.

    Returns (below, above, n_negative).  below is the largest eigenvalue
    below zero if it lies in [-|above|, 0), and None otherwise: then no
    eigenvalue is nearer to zero from below than above is from above.
    """
    R2 = op.R_tilde**2
    if _carries_kernel(op):
        # no eigenvalue below zero, as v = c u' > 0 at nu = 0; the kernel
        # shoot's error of nu is relative, so the search stops on that alone
        kernel = functools.cache(lambda nu: _shoot_kernel(op, nu))
        nu_above = _eigenvalue_by_index(op, kernel, 0, 0.0, 0.0, 0.0)
        return None, nu_above * R2, kernel(0.0)[0]
    # one shoot per nu; the search above zero starts at nu = 0 or at the
    # Dirichlet bound
    angle = functools.cache(lambda nu: _shoot_mode(op, nu))
    m0 = angle(0.0)[0]
    nu = 0.0
    bound = _dirichlet_bound(op)
    if bound is not None and m0 == 0:
        nu = bound / R2
        count = angle(nu)[0]
        if count <= m0:
            raise IntegrationFailureError(
                f"Sturm count {count} at the Dirichlet bound nu = {nu} "
                f"does not exceed the count {m0} at nu = 0"
            )
    nu_above = _eigenvalue_by_index(op, angle, m0, 0.0, (m0 + 1) * math.pi,
                                    _NU_RESOLVED, nu)
    below = None
    if m0 > 0:
        # eigenvalues in [nu_w, 0): m0 minus the count at nu_w
        nu_w = -abs(nu_above)
        count = angle(nu_w)[0]
        if count > m0:
            raise IntegrationFailureError(
                f"Sturm count {count} at nu = {nu_w} exceeds the count "
                f"{m0} at nu = 0"
            )
        if count < m0:
            below = _eigenvalue_by_index(op, angle, m0 - 1, nu_w,
                                         m0 * math.pi, _NU_RESOLVED) * R2
    return below, nu_above * R2, m0


def check_certificate_options(ell_max: int, tol: float = 1e-3,
                              potential_scale: float = 1.0) -> None:
    """Raise DomainError for options that nondegeneracy_certificate rejects."""
    if ell_max < 0:
        raise DomainError(f"certificate needs ell_max >= 0, got {ell_max}")
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    if not np.isfinite(potential_scale):
        raise DomainError(
            f"potential_scale must be finite, got {potential_scale}"
        )


def nondegeneracy_certificate(p: Params, sol: RadialSolution,
                              ell_max: int = 0, tol: float = 1e-3,
                              potential_scale: float = 1.0):
    """True iff every mode keeps its spectrum at a resolved distance >= tol
    from zero.  Modes ell = 0, 1, ... are searched up to the first
    ell >= ell_max with no eigenvalue below zero, which covers every higher
    mode (see the module docstring); FitFailureError if none does within
    _SEARCH_MAXITER modes past ell_max.  The report lists the searched
    modes, the covering one last, with their distances, whether each is
    resolved (always on the kernel shoot, else |lambda| / R_tilde^2 >=
    _NU_RESOLVED) and the Dirichlet bound of each mode ell >= 2 when
    potential_scale > 0."""
    check_certificate_options(ell_max, tol, potential_scale)
    modes = {}
    for ell in range(ell_max + _SEARCH_MAXITER + 1):
        op = build_mode_operator(p, sol, ell, potential_scale=potential_scale)
        below, above, m0 = eigenvalues_near_zero(op)
        # below, where found, lies in [-|above|, 0)
        dist = abs(above if below is None else below)
        modes[ell] = {
            "nearest_below": below,
            "nearest_above": above,
            "n_negative": m0,
            "min_abs": dist,
            # the nearest eigenvalue has the smallest |nu| of the mode; the
            # kernel shoot's error is relative to lambda_1
            "resolved": (_carries_kernel(op)
                         or dist >= _NU_RESOLVED * op.R_tilde**2),
            # j_{m,1}^2, above the mode's lowest eigenvalue, or None
            "dirichlet_bound": _dirichlet_bound(op),
        }
        if ell >= ell_max and m0 == 0:
            break
    else:
        raise FitFailureError(f"modes {ell_max} to {ell} all have an "
                              "eigenvalue below zero; none covers the rest")
    # the cover reads only the listed modes' values, so only they must hold
    resolved = all(m["resolved"] for m in modes.values())
    min_abs = min(m["min_abs"] for m in modes.values())
    report = {"per_mode": modes, "resolved": resolved,
              "min_abs_overall": min_abs}
    return resolved and min_abs >= tol, report
