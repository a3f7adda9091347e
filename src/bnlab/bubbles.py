"""Standard bubbles and their harmonic correction on the ball, in closed form
and by Poisson quadrature: one polar rule in two angles, spectral for every N.

Two height conventions coexist: the un-normalized profile
U_{lambda,a}(x) = (lambda/(1+lambda^2|x-a|^2))^{(N-2)/2}, which solves
-DU = N(N-2) U^{2*-1}, and the normalized profile U(0)=1, which solves
-DU = U^{2*-1} and is evaluated from the squared radius.  Both are exposed
explicitly; callers pick one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import omega_n
from .errors import DomainError
from .quadrature import gauss_legendre, plane_frame

__all__ = [
    "Bubble",
    "eval_bubble",
    "normalized_bubble_r2",
    "harmonic_correction",
    "harmonic_correction_exact",
]

_POISSON_NODES = 64  # per angle


@dataclass(frozen=True)
class Bubble:
    """Un-normalized bubble with height parameter lam and center in R^N."""

    N: int
    lam: float
    center: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.N < 3:
            raise DomainError(f"bubble requires N >= 3, got {self.N}")
        if not self.lam > 0:
            raise DomainError(f"bubble height must be positive, got {self.lam}")
        c = self.center
        c = np.zeros(self.N) if c is None else np.asarray(c, dtype=float)
        if c.shape != (self.N,):
            raise DomainError(f"center must be a point in R^{self.N}")
        object.__setattr__(self, "center", c)


def eval_bubble(b: Bubble, x) -> float:
    """(lam / (1 + lam^2 |x-a|^2))^{(N-2)/2}."""
    d2 = float(np.sum((np.asarray(x, dtype=float) - b.center) ** 2))
    return (b.lam / (1.0 + b.lam**2 * d2)) ** ((b.N - 2.0) / 2.0)


def normalized_bubble_r2(N: int, r2):
    """The normalized bubble at squared radius r2 (scalar or array)."""
    k = N * (N - 2.0)
    return (k / (k + r2)) ** ((N - 2.0) / 2.0)


def harmonic_correction(b: Bubble, x) -> float:
    """Harmonic extension of the bubble's sphere trace, by Poisson quadrature.

    psi solves -D psi = 0 in the unit ball, psi = U_{lam,a} on the sphere.  With
    a and x in the plane of a frame (e1, e2), the sphere point
    xi = cos(th) e1 + sin(th) (cos(ph) e2 + sin(ph) eta), eta a unit vector
    orthogonal to both, enters only through th and ph.  The measure
    sin^{N-2}(th) sin^{N-3}(ph) dth dph omega_{N-2} is smooth for every N, so
    Gauss-Legendre in both angles on [0, pi] is spectral.
    """
    N = b.N
    xv = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(xv))
    if r > 1.0 + 1e-12:
        raise DomainError("evaluation point outside the ball")
    if float(np.linalg.norm(b.center)) >= 1.0:
        raise DomainError("bubble center must lie strictly inside the ball")
    if r >= 1.0 - 1e-14:
        return eval_bubble(b, xv)

    e1, e2 = plane_frame(N, b.center, xv)
    a1, a2 = float(b.center @ e1), float(b.center @ e2)
    x1, x2 = float(xv @ e1), float(xv @ e2)
    t, wt = gauss_legendre(0.0, np.pi, _POISSON_NODES)
    th, ph = np.meshgrid(t, t, indexing="ij")
    # xi along e1 and e2, and the square of the rest
    u = np.cos(th)
    v = np.sin(th) * np.cos(ph)
    rest2 = (np.sin(th) * np.sin(ph)) ** 2
    dxi2 = (u - x1) ** 2 + (v - x2) ** 2 + rest2
    da2 = (u - a1) ** 2 + (v - a2) ** 2 + rest2
    poisson = (1.0 - r * r) / (omega_n(N) * dxi2 ** (N / 2.0))
    data = (b.lam / (1.0 + b.lam**2 * da2)) ** ((N - 2.0) / 2.0)
    weight = np.outer(wt * np.sin(t) ** (N - 2.0), wt * np.sin(t) ** (N - 3.0))
    return float(omega_n(N - 2) * np.sum(poisson * data * weight))


def harmonic_correction_exact(b: Bubble, x) -> float:
    """Closed form for the harmonic correction on the unit ball.

    On the sphere the bubble trace is a power of a linear function of xi, so
    it coincides with a multiple of |xi - p|^{2-N} for an exterior point p on
    the center axis; that multiple extends harmonically as is.  Used as an
    independent oracle for the Poisson-kernel quadrature.
    """
    N, lam = b.N, b.lam
    xv = np.asarray(x, dtype=float)
    if float(np.linalg.norm(xv)) > 1.0 + 1e-12:
        raise DomainError("evaluation point outside the ball")
    na = float(np.linalg.norm(b.center))
    if na >= 1.0:
        raise DomainError("bubble center must lie strictly inside the ball")
    half = (N - 2.0) / 2.0
    if na < 1e-14:
        return (lam / (1.0 + lam**2)) ** half
    A = 1.0 + na * na + 1.0 / lam**2
    t = (A + np.sqrt(A * A - 4.0 * na * na)) / (2.0 * na * na)
    p = t * b.center
    return (t / lam) ** half * float(np.linalg.norm(xv - p)) ** (2.0 - N)
