"""Radial shooting solver on the unit ball.

The two-point problem is reduced to a single forward integration: normalize
the height to 1 and shoot in the perturbation strength eps_tilde.  The
profile u_tilde solves

    u'' + ((N-1)/r) u' + u^{2*-1} + eps_tilde u^{q-1} = 0,
    u(0) = 1, u'(0) = 0,

and its first zero R_tilde maps the profile back to the unit ball via
u(x) = R_tilde^{(N-2)/2} u_tilde(R_tilde x) with
eps = eps_tilde * R_tilde^{(2N-(N-2)q)/2}.

The integrated unknown is the deviation v = u - U from the height-1 bubble
U = (1 + s^2/(N(N-2)))^{-(N-2)/2}, which solves the eps_tilde = 0 equation
exactly (the radial form of the split u = PU + w).  On the tail
u ~ A s^{2-N} + B, and the first zero is set by the constant B, which is
O(R_tilde^{2-N}) small; integrating u itself forms B as 1 minus an O(1)
integral and amplifies the integration error by ~R_tilde^{N-2}, while v
carries B at its own relative accuracy.  The energy functionals and the
boundary flux are accumulated as extra ODE components, so their accuracy is
the integrator tolerance rather than any resampling grid.

shoot(p, eps_tilde) integrates over the span _estimate_r_max, 30 times the
blow-up estimate of R_tilde and at least 1e3, at the tolerance _SHOOT_RTOL.
The integration stops at the first zero, so the span only caps it: spans of
1e3 and 1e4 gave the same bits as the default at N = 4 and 5 and
eps_tilde = 1e-3 to 1e-2.  Every shoot finds that zero: 368 of 368 over
16 (N, q) cells with N = 3 to 7 and eps_tilde = 1e-14 to 1e8 by decades.
A shoot that reaches the span end without it has lost the zero, and
raises IntegrationFailureError; an eps_tilde whose span^{N-1}, the
quadratures' weight at the span end, overflows a float is a DomainError.

The shoot starts at s0 from the profile's series (bnlab.series): the four
quadratures over [0, s0] are summed from its Cauchy products, and
ShootResult.eval reads v below s0 from it.

The shoot calls scipy's compiled DOP853 by bnlab.dop853.run, records each
accepted step end and stops at the first one with u <= 0.  The zero is
found by bnlab.dop853.newton on -u from the crossing step's start, each
iterate redoing that step as one DOP853 integration from its start to
the iterate, so the search ends on the integration that ends on the zero:
2 to 7 runs per crossing at N = 3 to 7 and eps_tilde = 1e-14 to 1e8.
ShootResult.dense is the DOP853 interpolant of (v, v'), built on its first
read from the recorded step ends with the stages of all steps in one
vectorised pass, and read at all requested radii in another.

solve_for_eps inverts eps(eps_tilde) by one search: a secant in
(log eps_tilde, log eps) seeded from the blow-up law
eps_tilde R_tilde^{N-2} -> alpha_{N,q} R(0), clipped to eps_tilde in
[1e-14, 100] and held inside the bracket that its own iterates form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import dop853, series
from .bubbles import normalized_bubble_r2
from .constants import Params, blowup_target, omega_n
from .errors import DomainError, IntegrationFailureError, UnreachableEpsError

__all__ = [
    "ShootResult",
    "RadialSolution",
    "shoot",
    "scale_to_unit_ball",
    "solution_at",
    "solve_for_eps",
]

# relative tolerance of the shoot, and the absolute tolerance of the
# quadratures.  DOP853 takes one scalar atol, so (v, v') are carried times
# the exact power of two _V_SCALE: their atol is _QUAD_ATOL / _V_SCALE =
# 1.2e-300, in effect none, so they are held to _SHOOT_RTOL relative to
# their own size, which is O(eps_tilde) like the tail constant
_SHOOT_RTOL = 2e-12
_QUAD_ATOL = 1e-14
_V_SCALE = 2.0**950
_V_UNSCALE = 2.0**-950
_EPS = np.finfo(float).eps
_ZERO_TOL = 1e-10  # largest |u| accepted at the located first zero
# most iterates of the first-zero search: bisection alone halves a step to
# 4 eps in 52
_CROSSING_MAXITER = 100
PROFILE_POINTS = 4097


@dataclass
class ShootResult:
    """Outcome of one forward integration of the height-normalized ODE."""

    params: Params
    eps_tilde: float
    first_zero: float
    r_grid: np.ndarray
    # scaled-variable quadratures accumulated by the integrator:
    # grad2 = int u'^2 r^{N-1}, mass_crit = int u^{2*} r^{N-1},
    # mass_q = int u^q r^{N-1}, all over [0, first_zero]
    grad2: float
    mass_crit: float
    mass_q: float
    du_at_zero: float
    # the recorded step ends and (v, v') there, which dense is built from
    _steps: tuple = field(repr=False)

    @functools.cached_property
    def dense(self):
        """The DOP853 interpolant of the deviation (v, v') from the bubble,
        built from the recorded step ends on first read; eval adds the
        bubble back."""
        args = _rhs_args(self.params, self.eps_tilde)
        return _StackedDense(lambda s, y: _deviation_rows(s, y, *args),
                             *self._steps)

    def eval(self, s):
        """(u_tilde, u_tilde') at an array of scaled radii s: the bubble plus
        the deviation, read from the profile series below the shoot's start
        and from the interpolant beyond it."""
        s = np.asarray(s, dtype=float)
        v = np.empty_like(s)
        dv = np.empty_like(s)
        ser = series.profile_series(self.params, self.eps_tilde)
        small = s < ser.start()
        if np.any(small):
            v[small], dv[small] = ser.deviation(s[small])
        if np.any(~small):
            vals = self.dense(s[~small])
            v[~small] = vals[0]
            dv[~small] = vals[1]
        N = self.params.N
        U = normalized_bubble_r2(N, s * s)
        return U + v, dv - s / N * U ** (N / (N - 2.0))  # U' in closed form


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
        du[0] = 0.0  # radial symmetry; the series gives it as -0.0
        return r, u, du


def _series_start(p: Params, eps_tilde: float):
    """s0 and the shoot's state there: (v, v') times _V_SCALE, then the
    four quadratures over [0, s0], from the profile series.

    With c_k = A_k x0^k, x0 = (s0 / L)^2, u = sum c_k (s / s0)^{2k} and
    s u' = sum 2k c_k (s / s0)^{2k}, so each quadrature sums a Cauchy
    product term by term: int_0^s0 (s/s0)^{2m} s^{n-1} ds = s0^n / (2m+n).
    The flux int_0^s0 s^{N-1} f(u) ds is -s0^{N-1} u'(s0), exactly.
    """
    ser = series.profile_series(p, eps_tilde)
    N = p.N
    s0 = ser.start()
    x0k = ser.powers(s0)
    c, b = ser.A * x0k, ser.b * x0k
    k2 = 2.0 * np.arange(len(c))
    sc = k2 * c

    def integral(products, n):
        return s0**n * float(products @ (1.0 / (np.arange(
            0.0, 2.0 * len(products), 2.0) + n)))

    return s0, (
        float(b.sum()) * _V_SCALE,
        float(k2 @ b) / s0 * _V_SCALE,
        integral(np.convolve(sc, sc), N - 2),
        integral(np.convolve(c, ser.P * x0k), N),
        integral(np.convolve(c, ser.Q * x0k), N),
        -s0 ** (N - 2) * float(sc.sum()),
    )


def _rhs_args(p: Params, eps_tilde: float) -> tuple:
    """The constants of _deviation_rhs and _deviation_rows: N, N(N-2),
    (N-2)/2, 2*-1, q-1, N-1, -(N-1) and eps_tilde."""
    N = p.N
    return (N, N * (N - 2.0), (N - 2.0) / 2.0, p.two_star - 1.0, p.q - 1.0,
            N - 1, -(N - 1.0), eps_tilde)


def _deviation_rhs(s, y, N, k, half, p1, q1, n1, neg_n1, eps_tilde):
    """Right-hand side of the shoot: (v, v') times _V_SCALE, then the four
    quadratures; the constants are _rhs_args'."""
    # Python floats: arithmetic on numpy scalars costs more
    V, dV, *_ = y.tolist()
    v, dv = V * _V_UNSCALE, dV * _V_UNSCALE
    t = k / (k + s * s)
    U = t**half
    fU = U * t * t  # U^{2*-1}
    x = v / U
    if x > -1.0:
        u = U + v
        # u^{2*-1} - U^{2*-1}, free of cancellation for small v/U
        df = fU * math.expm1(p1 * math.log1p(x))
        uq1 = u**q1
    else:  # a stage past the zero: f(u) = f(max(u, 0))
        u = uq1 = 0.0
        df = -fU
    f = fU + df  # u^{2*-1}
    du = dv - s / N * U * t  # U' = -(s/N) U t
    sn = s**n1
    return (
        dV,
        (neg_n1 / s * dv - df - eps_tilde * uq1) * _V_SCALE,
        du * du * sn,
        f * u * sn,
        uq1 * u * sn,
        (f + eps_tilde * uq1) * sn,
    )


def _deviation_rows(s, y, N, k, half, p1, q1, n1, neg_n1, eps_tilde):
    """The (v, v') rows of _deviation_rhs, unscaled, at arrays of radii s
    and states y[:, :2]: the interpolant's stages need no other rows."""
    v, dv = y[:, 0], y[:, 1]
    t = k / (k + s * s)
    U = t**half
    fU = U * t * t
    x = v / U
    inside = x > -1.0
    df = np.where(inside, fU * np.expm1(
        p1 * np.log1p(np.where(inside, x, 0.0))), -fU)
    uq1 = np.where(inside, U + v, 0.0) ** q1
    return np.stack((dv, neg_n1 / s * dv - df - eps_tilde * uq1), axis=1)


def shoot(p: Params, eps_tilde: float) -> ShootResult:
    """Integrate the deviation from the bubble up to the first zero of
    u = U + v.  DomainError unless eps_tilde is positive and finite and
    s^{N-1} stays finite over the span _estimate_r_max;
    IntegrationFailureError if the shoot reaches the span end without u <= 0.

    v and v' are held to _SHOOT_RTOL alone; the accumulated quadratures also
    get the absolute tolerance _QUAD_ATOL.
    """
    if not 0.0 < eps_tilde < np.inf:
        raise DomainError(
            f"eps_tilde must be positive and finite, got {eps_tilde}"
        )
    N = p.N
    cell = f"eps_tilde={eps_tilde:g} at (N={N}, q={p.q:g})"
    span = _estimate_r_max(p, eps_tilde)
    try:
        # _deviation_rhs forms s^{N-1} up to the span end, and DOP853 does
        # not stop on an exception raised there
        span ** (N - 1)
    except OverflowError:
        raise DomainError(f"span {span:.6g} of {cell} overflows s^{N - 1}"
                          ) from None
    args = _rhs_args(p, eps_tilde)
    ts, ys = [], []

    def record(s, y):
        """Keep each step end; stop at the first with u <= 0."""
        ts.append(s)
        ys.append(y.tolist())
        u = normalized_bubble_r2(N, s * s) + ys[-1][0] * _V_UNSCALE
        return -1 if u <= 0.0 else 0

    s0, y0 = _series_start(p, eps_tilde)
    _, crossed = dop853.run(_deviation_rhs, args, y0, s0, span, _SHOOT_RTOL,
                            _QUAD_ATOL, solout=record)
    if not crossed:
        raise IntegrationFailureError(
            f"no first zero of {cell} within the span {span:.6g}")
    first_zero, y_end, redone = _crossing(args, ts[-2], ts[-1], ys[-2])
    u_end = normalized_bubble_r2(N, first_zero**2) + y_end[0] * _V_UNSCALE
    if abs(u_end) > _ZERO_TOL:
        raise IntegrationFailureError(
            f"event root not polished below tol: |u|={abs(u_end)}"
        )
    return ShootResult(
        params=p,
        eps_tilde=eps_tilde,
        first_zero=first_zero,
        r_grid=np.array(ts[:-2] + redone),
        grad2=y_end[2],
        mass_crit=y_end[3],
        mass_q=y_end[4],
        # the flux identity r^{N-1} u' = -int_0^r s^{N-1} f(u) ds recovers
        # the boundary slope from a positive integrand, at the integrator's
        # relative accuracy
        du_at_zero=-y_end[5] / first_zero ** (N - 1),
        _steps=(np.array(ts), np.array(ys)[:, :2] * _V_UNSCALE),
    )


def _crossing(args, lo: float, hi: float, y_lo):
    """The zero of u = U + v in the step [lo, hi] that crosses it,
    u(lo) > 0 >= u(hi), by bnlab.dop853.newton on -u from lo, where y_lo
    is the recorded state.  Each later iterate s redoes the step as one
    DOP853 integration from lo to s, tried in one step: Hairer's
    initial-step guess fails there with return code -3 at N = 3, q = 5,
    eps_tilde = 1e-14 (R_tilde = 8.7e14).  u' = U' + v', with U' in closed
    form.  Near the zero u is convex, so the Newton iterates from lo rise
    to it.  Returns the zero, the state there and the step ends of the
    integration that ends on it."""
    N = args[0]
    last = [lo, y_lo, None]  # the latest iterate, its state and step ends

    def run_to(s):
        ends = []
        y, _ = dop853.run(_deviation_rhs, args, y_lo, lo, s, _SHOOT_RTOL,
                          _QUAD_ATOL, first_step=s - lo,
                          solout=lambda t, y: ends.append(t))
        last[:] = s, y.tolist(), ends

    def g(s):
        if s != last[0]:
            run_to(s)
        V, dV = last[1][:2]
        U = normalized_bubble_r2(N, s * s)
        u = U + V * _V_UNSCALE
        return u <= 0.0, -u, s / N * U ** (N / (N - 2.0)) - dV * _V_UNSCALE

    zero = dop853.newton(g, lo, lo, hi, math.inf, 4.0 * _EPS, 0.0,
                         _CROSSING_MAXITER, "the first-zero search")
    if zero != last[0]:
        run_to(zero)
    return zero, last[1], last[2]


class _StackedDense:
    """The DOP853 interpolant of (v, v') over every step, stacked into arrays
    on the first read of ShootResult.dense and read at any 1-D array of
    radii in one vectorised pass.

    It is rebuilt from the step ends ts and the states y there (columns v,
    v') that the integration recorded.  rows(s, y), the (v, v') rows of the
    right-hand side, read only (v, v'), so the 12 stages, the FSAL stage and
    the 3 extra stages of every step are formed at once from the tableau
    bnlab.dop853.TABLEAU, and the coefficient rows F as solve_ivp's DOP853
    dense output forms them (Hairer, Norsett & Wanner, Solving ODEs I,
    II.6).  A read at a step end returns the recorded state to rounding.
    The last step keeps its full length when the first zero ends the shoot
    inside it.
    """

    def __init__(self, rows, ts, y):
        self.ts = ts
        self.t_old, self.h, self.y_old = ts[:-1], np.diff(ts), y[:-1]
        h = self.h[:, None]
        f_ends = rows(ts, y)
        K = np.empty((16, len(self.h), 2))
        K[0], K[12] = f_ends[:-1], f_ends[1:]  # the first and FSAL stages
        A, C = dop853.TABLEAU.A, dop853.TABLEAU.C
        # stages 1-11 of each step, then the 3 extra ones of its interpolant
        for s in (*range(1, 12), 13, 14, 15):
            dy = np.tensordot(A[s, :s], K[:s], 1) * h
            K[s] = rows(self.t_old + C[s] * self.h, self.y_old + dy)
        delta_y = y[1:] - self.y_old
        F = np.empty((7,) + delta_y.shape)
        F[0] = delta_y
        F[1] = h * K[0] - delta_y
        F[2] = 2 * delta_y - h * (K[12] + K[0])
        F[3:] = h * np.tensordot(dop853.TABLEAU.D, K, 1)
        # indexed [row, step, component], in the order of the read below
        # (last row first)
        self.F = F[::-1]

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        seg = np.clip(np.searchsorted(self.ts, s, side="left") - 1,
                      0, len(self.h) - 1)
        x = ((s - self.t_old[seg]) / self.h[seg])[:, None]
        factors = (x, 1 - x)
        y = np.zeros((len(s), 2))
        for i, f in enumerate(self.F):
            y += f[seg]
            y *= factors[i % 2]
        y += self.y_old[seg]
        return y.T


def scale_to_unit_ball(s: ShootResult) -> RadialSolution:
    """Map a shooting profile back to the unit ball at its first zero.

    The integrals are scale-invariant combinations of the quadratures
    accumulated along the shooting integration:
      int |grad u|^2      = omega_N * int u_t'^2 s^{N-1} ds
      int u^{2*}          = omega_N * int u_t^{2*} s^{N-1} ds
      int u^q             = omega_N * R^{(N-2)q/2 - N} int u_t^q s^{N-1} ds
    The Pohozaev residual is that of
    (omega_N/2N) u'(1)^2 = (1/q - 1/2*) eps int u^q.
    """
    p = s.params
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


def solution_at(p: Params, eps_tilde: float) -> RadialSolution:
    """The ball solution of shooting parameter eps_tilde; raises as shoot
    does."""
    return scale_to_unit_ball(shoot(p, eps_tilde))


def _estimate_r_max(p: Params, eps_tilde: float) -> float:
    """Heuristic integration span: the blow-up product eps_t * R^{N-2} stays
    O(alpha_{N,q} R(0)); pad it by a wide margin."""
    target = blowup_target(p) if p.regime_ok else 100.0
    guess = (max(target, 1.0) / eps_tilde) ** (1.0 / (p.N - 2.0))
    return max(1e3, 30.0 * guess)


# log eps_tilde span of solve_for_eps, and its shoot cap: bisection alone
# would narrow the span, 36.8 wide, below 1e-10 in 39 shoots
_LOG_ET_SPAN = (math.log(1e-14), math.log(100.0))
_MAX_SHOOTS = 40
# relative tolerance on eps at which solve_for_eps accepts a solution
_EPS_RTOL = 1e-8


def solve_for_eps(p: Params, eps_target: float) -> RadialSolution:
    """Find eps_tilde with eps(eps_tilde) = eps_target, where eps increases
    with eps_tilde: a secant in (x, g) = (log eps_tilde, log(eps/eps_target))
    from the blow-up-law seed, clipped to _LOG_ET_SPAN.  The latest iterates
    with g < 0 and g > 0 bracket the root, and a step that would leave the
    bracket goes to its midpoint (Dekker's safeguard; Brent 1973, ch. 4).
    A target beyond eps at a span end is unreachable."""
    p.require_regime()
    if not 0.0 < eps_target < np.inf:
        raise DomainError(
            f"eps_target must be positive and finite, got {eps_target}"
        )
    N, q = p.N, p.q
    cell = f"for (N={N}, q={q:g})"
    # eps = eps_tilde R^a with eps_tilde R^{N-2} ~ T gives
    # eps ~ T^{a/(N-2)} eps_tilde^law_slope
    a = (2.0 * N - (N - 2.0) * q) / 2.0
    law_slope = slope = 1.0 - a / (N - 2.0)
    x = (math.log(eps_target) - a / (N - 2.0) * math.log(blowup_target(p))
         ) / law_slope
    below = above = prev = None
    for _ in range(_MAX_SHOOTS):
        x = min(max(x, _LOG_ET_SPAN[0]), _LOG_ET_SPAN[1])
        sol = solution_at(p, math.exp(x))
        if abs(sol.eps - eps_target) <= _EPS_RTOL * eps_target:
            return sol
        g = math.log(sol.eps / eps_target)
        if x == _LOG_ET_SPAN[g < 0.0]:  # eps rises with eps_tilde
            raise UnreachableEpsError(
                f"eps={eps_target:.6g} {'above' if g < 0.0 else 'below'} "
                f"eps={sol.eps:.6g} at eps_tilde={math.exp(x):g} {cell}"
            )
        below, above = (x, above) if g < 0.0 else (below, x)
        if prev is not None:
            secant = (g - prev[1]) / (x - prev[0])
            slope = secant if secant > 0.0 else law_slope
        prev = (x, g)
        x -= g / slope
        if below is not None and above is not None and not below < x < above:
            x = 0.5 * (below + above)
    raise UnreachableEpsError(f"eps={eps_target:.6g} not within "
                              f"tol={_EPS_RTOL:g} after {_MAX_SHOOTS} "
                              f"shoots {cell}")
