"""Standard bubbles and their harmonic correction on the ball, by Poisson
quadrature and in closed form.

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
from .quadrature import gauss_legendre

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


def _plane_basis(N: int, a: np.ndarray, x: np.ndarray):
    """Orthonormal (e1, e2) spanning {a, x}; arbitrary completion if degenerate."""
    e1 = None
    if np.linalg.norm(a) > 1e-14:
        e1 = a / np.linalg.norm(a)
    elif np.linalg.norm(x) > 1e-14:
        e1 = x / np.linalg.norm(x)
    if e1 is None:
        e1 = np.zeros(N)
        e1[0] = 1.0
    v = x - (x @ e1) * e1
    if np.linalg.norm(v) > 1e-12:
        e2 = v / np.linalg.norm(v)
    else:
        # any unit vector orthogonal to e1
        t = np.zeros(N)
        t[int(np.argmin(np.abs(e1)))] = 1.0
        v = t - (t @ e1) * e1
        e2 = v / np.linalg.norm(v)
    return e1, e2


def harmonic_correction(b: Bubble, x) -> float:
    """Harmonic extension of the bubble's sphere trace, by Poisson quadrature.

    psi solves -D psi = 0 in the unit ball, psi = U_{lam,a} on the sphere.  The
    boundary data is axially symmetric about the center axis, so the sphere
    integral collapses to two angles regardless of N.
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

    e1, e2 = _plane_basis(N, b.center, xv)
    a1, a2 = float(b.center @ e1), float(b.center @ e2)
    x1, x2 = float(xv @ e1), float(xv @ e2)
    x_rest2 = r * r - x1 * x1 - x2 * x2
    a_rest2 = max(0.0, float(b.center @ b.center) - a1 * a1 - a2 * a2)
    half = (N - 2.0) / 2.0
    wN = omega_n(N)

    def kernel_times_data(u, v):
        # u, v: coordinates of the unit-sphere point along (e1, e2)
        dxi2 = (u - x1) ** 2 + (v - x2) ** 2 + x_rest2 + \
            np.maximum(0.0, 1.0 - u * u - v * v)
        da2 = (u - a1) ** 2 + (v - a2) ** 2 + a_rest2 + \
            np.maximum(0.0, 1.0 - u * u - v * v)
        poisson = (1.0 - r * r) / (wN * dxi2 ** (N / 2.0))
        data = (b.lam / (1.0 + b.lam**2 * da2)) ** half
        return poisson * data

    if N == 3:
        # xi = (sqrt(1-t^2) cos(phi) e2' ... ), standard polar about e1
        t, wt = gauss_legendre(-1.0, 1.0, _POISSON_NODES)
        phi = np.linspace(0.0, 2.0 * np.pi, _POISSON_NODES, endpoint=False)
        dphi = 2.0 * np.pi / _POISSON_NODES
        tt, pp = np.meshgrid(t, phi, indexing="ij")
        u = tt
        v = np.sqrt(np.maximum(0.0, 1.0 - tt * tt)) * np.cos(pp)
        # third coordinate enters only through 1 - u^2 - v^2 above
        vals = kernel_times_data(u, v)
        return float(np.sum(vals * wt[:, None]) * dphi)

    # N >= 4: integrate over the (u, v) disk with weight (1-u^2-v^2)^{(N-4)/2}
    rho, wr = gauss_legendre(0.0, 1.0, _POISSON_NODES)
    alpha = np.linspace(0.0, 2.0 * np.pi, _POISSON_NODES, endpoint=False)
    dalpha = 2.0 * np.pi / _POISSON_NODES
    rr, aa = np.meshgrid(rho, alpha, indexing="ij")
    u = rr * np.cos(aa)
    v = rr * np.sin(aa)
    weight = (1.0 - rr * rr) ** ((N - 4.0) / 2.0) * rr
    vals = kernel_times_data(u, v) * weight
    return float(omega_n(N - 2) * np.sum(vals * wr[:, None]) * dalpha)


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
