"""Continuation sweeps in the shooting parameter and quantitative checks of
the blow-up asymptotics: rate limit, energy-deficit exponent, profile
convergence, uniform upper bound, boundary Green-function limit, and the
three-dimensional solution fold.
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .bubbles import normalized_bubble_r2
from .constants import Params, alpha_n, blowup_target, omega_n, sobolev_sn2_exact
from .errors import DomainError, FitFailureError
from .green import BallGreen, green
from .solver import RadialSolution, solution_at

__all__ = [
    "SweepRecord",
    "FitReport",
    "default_grid",
    "sweep_with_solutions",
    "blowup_rate_fit",
    "deficit_rate_fit",
    "profile_distance",
    "upper_bound_check",
    "boundary_green_limit",
    "branch_map",
]

_PROFILE_GRID = np.linspace(0.0, 10.0, 512)
_UPPER_BOUND_POINTS = 2048
_GREEN_BAND = (0.7, 0.95)  # radii where mu * u_eps meets its Green limit
_GREEN_BAND_POINTS = 64
# eps_tilde values the branch map shoots, from the large-eps side down
_BRANCH_GRID = np.logspace(1.0, -4.0, 51)


@dataclass
class SweepRecord:
    """One continuation point with all scalar diagnostics."""

    eps_tilde: float
    eps: float
    mu: float
    R_tilde: float
    S_eps: float
    blowup_product: float  # eps * mu^{q+2-2*}
    deficit: float  # S^{N/2}/N - S_eps
    profile_dist: float  # sup |u_tilde - U| on [0, 10]
    upper_bound_ratio: float  # sup u_tilde / U on [0, R_tilde]
    nehari_residual: float
    pohozaev_residual: float
    params: Params = field(repr=False)  # the solution's (N, q); not a column


SWEEP_FIELDS = tuple(f.name for f in fields(SweepRecord) if f.name != "params")


@dataclass
class FitReport:
    """Outcome of a limit or rate fit against its closed-form target."""

    limit_estimate: float
    target: float
    rel_error: float
    slope_estimate: float = float("nan")
    slope_target: float = float("nan")
    details: dict = field(default_factory=dict)


def default_grid(n: int = 25, lo: float = 1e-8, hi: float = 1e-2) -> np.ndarray:
    """Log-uniform eps_tilde grid, decreasing from hi to lo."""
    return np.logspace(np.log10(hi), np.log10(lo), n)


def _record(sol: RadialSolution, sn2: float) -> SweepRecord:
    p = sol.params
    power = p.q + 2.0 - p.two_star
    return SweepRecord(
        eps_tilde=sol.eps_tilde,
        eps=sol.eps,
        mu=sol.mu,
        R_tilde=sol.R_tilde,
        S_eps=sol.energy,
        blowup_product=sol.eps * sol.mu**power,
        deficit=sn2 / p.N - sol.energy,
        profile_dist=profile_distance(sol),
        upper_bound_ratio=upper_bound_check(sol),
        nehari_residual=sol.nehari_residual,
        pohozaev_residual=sol.pohozaev_residual,
        params=p,
    )


def _solutions(p: Params, grid, jobs: int = 1) -> list:
    """The solutions at the eps_tilde values of grid, in grid order.  jobs > 1
    solves them in that many worker processes."""
    solve = functools.partial(solution_at, p)
    ets = [float(et) for et in grid]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(solve, ets))
    return list(map(solve, ets))


def sweep_with_solutions(p: Params, eps_tilde_grid=None, jobs: int = 1):
    """Run the continuation and return (records, solutions), one per grid
    point, grid-ordered.

    A grid point whose shoot fails raises, as solution_at does.  jobs > 1
    solves the grid points in that many worker processes.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    p.require_regime()
    grid = default_grid() if eps_tilde_grid is None else np.asarray(
        eps_tilde_grid, dtype=float
    )
    if np.any(grid <= 0) or np.any(np.diff(grid) >= 0):
        raise DomainError("eps_tilde grid must be positive, strictly decreasing")
    sols = _solutions(p, grid, jobs)
    sn2 = sobolev_sn2_exact(p.N)
    return [_record(sol, sn2) for sol in sols], sols


def _aitken(x0: float, x1: float, x2: float) -> float:
    d1, d2 = x1 - x0, x2 - x1
    denom = d2 - d1
    if denom == 0.0:
        return x2
    return x2 - d2 * d2 / denom


def blowup_rate_fit(records) -> FitReport:
    """Extrapolate the tail of blowup_product and compare with the target
    alpha_{N,q} R(0) at the records' (N, q).

    On a log-uniform grid the leading correction decays geometrically in the
    record index, so Aitken's delta-squared applied to the last three values
    removes it; stability is gauged by re-extrapolating without the last
    point.
    """
    if len(records) < 6:
        raise FitFailureError("blow-up fit needs at least 6 records")
    p = records[0].params
    eps = np.array([r.eps for r in records])
    if eps[0] / eps[-1] < 1e3:
        raise FitFailureError("blow-up fit needs at least 3 decades of eps")
    prod = [r.blowup_product for r in records]
    est = _aitken(*prod[-3:])
    est_dropped = _aitken(*prod[-4:-1])
    target = blowup_target(p)
    stable = abs(est - est_dropped) <= 0.01 * abs(est)
    return FitReport(
        limit_estimate=est,
        target=target,
        rel_error=abs(est - target) / target,
        details={"stable_to_1pct": bool(stable)},
    )


def deficit_rate_fit(records) -> FitReport:
    """Least-squares slope of log(deficit) vs log(eps) over the tail half.

    The target exponent is (2N-4)/((N-2)q - 4) at the records' (N, q).
    """
    if len(records) < 6:
        raise FitFailureError("deficit fit needs at least 6 records")
    p = records[0].params
    eps = np.array([r.eps for r in records])
    deficit = np.array([r.deficit for r in records])
    keep = deficit > 1e-13
    eps, deficit = eps[keep], deficit[keep]
    tail = len(eps) // 2
    target = (2.0 * p.N - 4.0) / ((p.N - 2.0) * p.q - 4.0)
    return slope_fit(np.log(eps[tail:]), np.log(deficit[tail:]), target)


def slope_fit(x, y, target: float) -> FitReport:
    """Least-squares line y = slope x + intercept, with the slope against its
    target and exp(intercept) as the limit estimate."""
    slope, intercept = np.polyfit(x, y, 1)
    return FitReport(
        limit_estimate=float(np.exp(intercept)),
        target=target,
        rel_error=abs(slope - target) / abs(target),
        slope_estimate=float(slope),
        slope_target=target,
    )


def profile_distance(sol: RadialSolution) -> float:
    """sup over the fixed grid of |u_tilde(s) - U(s)|, U the normalized bubble.

    u_tilde is the height-1 rescaling of the solution,
    v(x) = mu^{-1} u(x mu^{-(2*-2)/2}), restricted to radii.
    """
    s = _PROFILE_GRID[_PROFILE_GRID <= sol.R_tilde]
    u, _ = sol.shoot_result.eval(s)
    return float(np.max(np.abs(u - normalized_bubble_r2(sol.params.N, s * s))))


def upper_bound_check(sol: RadialSolution) -> float:
    """sup of u_eps over the sharp bubble bound with constant 1.

    In scaled variables the ratio is u_tilde(s)/U(s) on [0, R_tilde]; the
    bound saturates at the origin by construction.
    """
    Rt = sol.R_tilde
    s = np.concatenate(([0.0], np.geomspace(1e-3, Rt, _UPPER_BOUND_POINTS)))
    u, _ = sol.shoot_result.eval(s)
    return float(np.max(u / normalized_bubble_r2(sol.params.N, s * s)))


def boundary_green_limit(solutions) -> np.ndarray:
    """Deviation of mu * u_eps from its Green-function limit on a radius band,
    one per solution, in the solutions' order.

    The limit away from the concentration point is
    (1/N) alpha_N^{2*} omega_N G(x, 0); the deviation per solution is the
    sup over the band relative to the sup of the limit function.  All
    solutions share the (N, q) of the first.
    """
    p = solutions[0].params
    N = p.N
    r = np.linspace(*_GREEN_BAND, _GREEN_BAND_POINTS)
    g = BallGreen(N)
    coeff = alpha_n(N) ** p.two_star * omega_n(N) / N
    points = np.zeros((r.size, N))
    points[:, 0] = r
    target = coeff * green(g, points, np.zeros(N))
    scale = np.max(np.abs(target))
    devs = []
    for sol in solutions:
        u, _ = sol.eval_unit(r)
        devs.append(float(np.max(np.abs(sol.mu * u - target)) / scale))
    return np.array(devs)


def branch_map(p: Params) -> dict:
    """Tabulate eps as a function of mu across the shooting parameter.

    For N = 3 and q in (2, 4] the map is non-monotone: eps attains an
    interior minimum eps0, above which two solution heights coexist.
    """
    sols = _solutions(p, _BRANCH_GRID)
    mu = np.array([sol.mu for sol in sols])
    order = np.argsort(mu)
    mu = mu[order]
    eps = np.array([sol.eps for sol in sols])[order]
    ets = np.array([sol.eps_tilde for sol in sols])[order]
    i0 = int(np.argmin(eps))
    has_fold = 0 < i0 < len(eps) - 1
    return {
        "mu": mu,
        "eps": eps,
        "eps_tilde": ets,
        "eps0": float(eps[i0]),
        "mu_at_eps0": float(mu[i0]),
        "has_fold": bool(has_fold),
    }
