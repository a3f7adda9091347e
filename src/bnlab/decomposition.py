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

from dataclasses import dataclass, field

import numpy as np

from . import dop853
from .asymptotics import FitReport, slope_fit
from .constants import Params, omega_n
from .errors import FitFailureError
from .quadrature import geometric_panel_rule
from .solver import RadialSolution

__all__ = [
    "DecompositionResult",
    "fit_decomposition",
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
    params: Params = field(repr=False)  # the solution's (N, q)


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


def fit_decomposition(sol: RadialSolution) -> DecompositionResult:
    """Fit (alpha, lambda) by the orthogonality conditions of the projection.

    alpha(lam) is the linear projection coefficient; lambda solves
    <grad(u - alpha PU), grad d_lam PU> = 0 by a bracketed root solve.  The
    translation conditions hold identically for centered radial data.
    """
    N = sol.params.N
    s, w = geometric_panel_rule(sol.R_tilde, np.sqrt(N * (N - 2.0)))
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
    lam_s = dop853.brentq(ortho_gap, lo, hi, xtol=1e-14, rtol=1e-14)

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
        params=sol.params,
    )


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


def perturbation_order_fit(results) -> FitReport:
    """Least-squares slope of log ||w|| against log lambda, against the table
    order at the decompositions' (N, q).

    The theoretical order is an upper bound, so steeper decay than the table
    value is success, not failure.  At N = 6 the (ln lambda)^{2/3} factor is
    removed before fitting.
    """
    results = [d for d in results if np.isfinite(d.w_h1_norm) and d.w_h1_norm > 0]
    if len(results) < 6:
        raise FitFailureError("perturbation fit needs at least 6 decompositions")
    p = results[0].params
    lam = np.array([d.lam for d in results])
    y = np.log([d.w_h1_norm for d in results])
    if p.N == 6:
        y = y - (2.0 / 3.0) * np.log(np.log(lam))
    return slope_fit(np.log(lam), y, -w_decay_exponent(p))
