"""Orthogonal bubble decomposition u = alpha * PU_lambda + w on the unit
ball for radial solutions, and the decay-order fit of the perturbation part.

All H^1 inner products are gradient inner products (Dirichlet norm).  For a
centered bubble the harmonic correction is the constant boundary value, so
it drops out of every gradient; the fit then lives entirely in the scaled
radial variable s = R_tilde * r, where the bubble core has width O(1).  A
radial pairing is <f, g> = omega_N int_0^R_tilde f'(s) g'(s) s^{N-1} ds,
which equals the unit-ball Dirichlet pairing of the unscaled functions.
Each fit builds one geometric-panel Gauss-Legendre rule on [0, R_tilde],
with the weight s^{N-1} folded into its weights, and reads u_tilde' on its
nodes once; every pairing is then a weighted dot product of node values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .constants import Params, alpha_n, omega_n
from .errors import DomainError, FitFailureError
from .quadrature import geometric_panel_rule
from .solver import RadialSolution

__all__ = [
    "DecompositionResult",
    "fit_decomposition",
    "h1_norm_radial",
    "perturbation_order_fit",
    "w_decay_exponent",
]


@dataclass
class DecompositionResult:
    """Fitted projection of a radial solution onto a centered bubble."""

    alpha: float
    lam: float  # bubble height parameter in the unit-ball variable
    lam_scaled: float  # lam / R_tilde
    w_h1_norm: float
    ortho_residuals: tuple  # (against grad PU, against grad d_lambda PU)


def _du_bubble(N: int, lam: float, s: np.ndarray) -> np.ndarray:
    """Radial derivative of (lam/(1+lam^2 s^2))^{(N-2)/2}."""
    t = 1.0 + lam * lam * s * s
    return -(N - 2.0) * lam ** ((N + 2.0) / 2.0) * s * t ** (-N / 2.0)


def _du_bubble_dlam(N: int, lam: float, s: np.ndarray) -> np.ndarray:
    """d/dlam of the radial derivative above."""
    t = 1.0 + lam * lam * s * s
    return (
        -(N - 2.0)
        * lam ** (N / 2.0)
        * s
        * t ** (-(N + 2.0) / 2.0)
        * ((N + 2.0) / 2.0 * t - N * lam * lam * s * s)
    )


def fit_decomposition(p: Params, sol: RadialSolution) -> DecompositionResult:
    """Fit (alpha, lambda) by the orthogonality conditions of the projection.

    alpha(lam) is the linear projection coefficient; lambda solves
    <grad(u - alpha PU), grad d_lam PU> = 0 by a bracketed root solve.  The
    translation conditions hold identically for centered radial data.
    """
    N = p.N
    s, w = geometric_panel_rule(0.0, sol.R_tilde, n_per_panel=48,
                                first=np.sqrt(N * (N - 2.0)))
    w = w * s ** (N - 1)
    du = sol.shoot_result.eval(s)[1]

    def pairings(lam_s: float):
        g = _du_bubble(N, lam_s, s)
        h = _du_bubble_dlam(N, lam_s, s)
        return g, h, w @ (g * g), w @ (g * h), w @ (du * g), w @ (du * h)

    def ortho_gap(lam_s: float) -> float:
        _, _, a11, a12, b1, b2 = pairings(lam_s)
        return b2 - (b1 / a11) * a12

    lam0 = 1.0 / np.sqrt(N * (N - 2.0))
    lo, hi = lam0 / 10.0, lam0 * 10.0
    if ortho_gap(lo) * ortho_gap(hi) > 0:
        raise FitFailureError(
            f"no orthogonality root for lambda/R_tilde in [{lo}, {hi}]"
        )
    lam_s = brentq(ortho_gap, lo, hi, xtol=1e-14, rtol=1e-14)

    g, h, a11, a12, b1, b2 = pairings(lam_s)
    alpha = b1 / a11
    wN = omega_n(N)
    res = du - alpha * g
    w_norm = np.sqrt(wN * max(w @ (res * res), 0.0))
    # residuals of the two defining orthogonality conditions, normalized by
    # the solution and direction norms: ||w|| itself can sit at the
    # numerical noise floor once the bubble captures the solution
    u_norm = np.sqrt(sol.grad_sq / wN)
    r1 = abs(b1 - alpha * a11) / (u_norm * np.sqrt(a11))
    r2 = abs(b2 - alpha * a12) / (u_norm * np.sqrt(w @ (h * h)))
    return DecompositionResult(
        alpha=alpha,
        lam=lam_s * sol.R_tilde,
        lam_scaled=lam_s,
        w_h1_norm=w_norm,
        ortho_residuals=(r1, r2),
    )


def h1_norm_radial(p: Params, r: np.ndarray, f: np.ndarray) -> float:
    """Dirichlet norm (omega_N int f'(r)^2 r^{N-1} dr)^{1/2} of a sampled
    radial profile vanishing at r = 1, by spline differentiation."""
    from scipy.interpolate import CubicSpline

    r = np.asarray(r, dtype=float)
    f = np.asarray(f, dtype=float)
    if abs(f[-1]) > 1e-8:
        raise DomainError("profile must vanish at the outer radius")
    df = CubicSpline(r, f).derivative()
    s, w = geometric_panel_rule(r[0], r[-1], n_per_panel=48,
                                first=(r[-1] - r[0]) / 64.0)
    return float(np.sqrt(omega_n(p.N) * (w @ (df(s) ** 2 * s ** (p.N - 1)))))


def w_decay_exponent(p: Params) -> float:
    """Decay order e with ||w|| = O(lambda^{-e}) (log-corrected at N = 6)."""
    p.require_regime()
    N, q = p.N, p.q
    if N == 3:
        return 1.0
    if N == 4:
        return 1.0 if q <= 2.5 else 2.0
    if N == 5:
        return 2.5 if q <= 13.0 / 6.0 else 3.0
    if N == 6:
        return 4.0
    return (N + 2.0) / 2.0


def perturbation_order_fit(p: Params, results) -> "FitReport":
    """Least-squares slope of log ||w|| against log lambda.

    The theoretical order is an upper bound, so steeper decay than the table
    value is success, not failure.  At N = 6 the (ln lambda)^{2/3} factor is
    removed before fitting.
    """
    from .asymptotics import FitReport

    results = [d for d in results if np.isfinite(d.w_h1_norm) and d.w_h1_norm > 0]
    if len(results) < 6:
        raise FitFailureError("perturbation fit needs at least 6 decompositions")
    lam = np.array([d.lam for d in results])
    w = np.array([d.w_h1_norm for d in results])
    y = np.log(w)
    if p.N == 6:
        y = y - (2.0 / 3.0) * np.log(np.log(lam))
    slope, intercept = np.polyfit(np.log(lam), y, 1)
    target = -w_decay_exponent(p)
    return FitReport(
        limit_estimate=float(np.exp(intercept)),
        target=target,
        rel_error=abs(slope - target) / abs(target),
        slope_estimate=float(slope),
        slope_target=target,
        details={"alpha_final": results[-1].alpha, "alpha_target": alpha_n(p.N)},
    )
