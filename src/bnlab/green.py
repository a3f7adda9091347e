"""Green's function of the Laplacian on the unit ball by the method of images,
with the Robin function, analytic gradients, and quadrature verification of
the surface-integral identities.

The regular part is always evaluated from the image term directly, never as
a difference of two singular terms, so the diagonal is cancellation-free.
surface_identity_suite evaluates its three identities from one table of
(name, integrand, radius, right-hand side, denominator) rows, each by one
polar-angle rule at two orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import omega_n
from .errors import DomainError, SingularityError
from .quadrature import gauss_legendre, plane_frame

__all__ = [
    "BallGreen",
    "singular_part",
    "green",
    "regular_part",
    "grad_green",
    "robin",
    "robin_gradient",
    "surface_identity_suite",
    "greens_representation_residual",
]

_REPRESENTATION_ORDER = 64
# Gauss-Legendre order of the surface-identity quadratures; each identity is
# also evaluated at half this order as a convergence check
_SURFACE_ORDER = 64


@dataclass(frozen=True)
class BallGreen:
    """Green apparatus for the unit ball B(0, 1) in R^N."""

    N: int
    # fault-injection hook for the verification CLI: scales the overall
    # 1/((N-2) omega_N) constant; leave at 1.0 for correct physics
    constant_scale: float = 1.0

    def __post_init__(self):
        if self.N < 3:
            raise DomainError(f"BallGreen requires N >= 3, got {self.N}")
        if not (np.isfinite(self.constant_scale) and self.constant_scale):
            raise DomainError("Green constant scale must be finite and "
                              f"nonzero, got {self.constant_scale}")

    # once per instance: every Green-function evaluation reads it
    @cached_property
    def c(self) -> float:
        return self.constant_scale / ((self.N - 2.0) * omega_n(self.N))

    def _inside(self, x, strict=True):
        xv = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(xv))
        if (strict and r >= 1.0) or r > 1.0 + 1e-12:
            raise DomainError(f"point at |x|={r} not inside the unit ball")
        return xv


def _image_distance(x: np.ndarray, y: np.ndarray) -> float:
    """|y| |x - y*| where y* = y / |y|^2; symmetric and regular at y=0.

    |y|^2 |x - y*|^2 = |x|^2 |y|^2 - 2 x.y + 1.
    """
    val = float(x @ x) * float(y @ y) - 2.0 * float(x @ y) + 1.0
    return np.sqrt(max(val, 0.0))


def singular_part(g: BallGreen, x, y) -> float:
    """S(x,y) = 1 / ((N-2) omega_N |x-y|^{N-2})."""
    xv, yv = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    d = float(np.linalg.norm(xv - yv))
    if d == 0.0:
        raise SingularityError("singular part evaluated on the diagonal")
    return g.c * d ** (2.0 - g.N)


def regular_part(g: BallGreen, x, y) -> float:
    """H(x,y), from the image term; finite on the diagonal."""
    xv = g._inside(x, strict=False)
    yv = g._inside(y, strict=False)
    b = _image_distance(xv, yv)
    return g.c * b ** (2.0 - g.N)


def green(g: BallGreen, x, y) -> float:
    """G(x,y) = S(x,y) - H(x,y); positive, symmetric, zero on the sphere."""
    return singular_part(g, x, y) - regular_part(g, x, y)


def grad_green(g: BallGreen, x, y) -> np.ndarray:
    """Gradient of G in its first argument, in closed form."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    d = xv - yv
    dist = float(np.linalg.norm(d))
    if dist == 0.0:
        raise SingularityError("grad_green evaluated on the diagonal")
    b = _image_distance(xv, yv)
    grad_b2_half = float(yv @ yv) * xv - yv  # d/dx of b^2 / 2
    return -(g.N - 2.0) * g.c * (
        d / dist**g.N - grad_b2_half / b**g.N
    )


def robin(g: BallGreen, x) -> float:
    """R(x) = H(x,x) = (1-|x|^2)^{2-N} / ((N-2) omega_N)."""
    xv = g._inside(x)
    t = 1.0 - float(xv @ xv)
    return g.c * t ** (2.0 - g.N)


def robin_gradient(g: BallGreen, x) -> np.ndarray:
    """Analytic gradient of the Robin function on the ball."""
    xv = g._inside(x)
    t = 1.0 - float(xv @ xv)
    return (g.N - 2.0) * g.c * t ** (1.0 - g.N) * (2.0 * xv)


def _polar_sphere_quad(fn, N: int, radius: float, y: np.ndarray,
                       order: int):
    """Integrate a scalar field over a sphere, axially symmetric about the
    line through 0 and y (the first axis if y = 0).

    fn receives the unit direction sigma; the symmetry reduces the surface
    integral to int_0^pi fn(cos th) sin^{N-2}(th) dth times
    omega_{N-1} radius^{N-1}.  The polar-angle form keeps the integrand
    smooth at the poles for every N, so Gauss-Legendre is spectral.
    """
    axis, e_perp = plane_frame(N, y, y)
    th, w = gauss_legendre(0.0, np.pi, order)
    total = 0.0
    for ti, wi in zip(th, w):
        sigma = np.cos(ti) * axis + np.sin(ti) * e_perp
        total += wi * fn(sigma) * np.sin(ti) ** (N - 2.0)
    return omega_n(N - 1) * radius ** (N - 1) * total


def surface_identity_suite(g: BallGreen, y) -> dict:
    """Relative residuals of the three surface identities at the point y.

    1. oint_{sphere} (x-y, n) (dG/dn)^2 dS = (N-2) R(y)
    2. oint_{sphere} (dG/dn)^2 n dS = grad R(y), along the axis through y
    3. local identity on a small sphere around y, with right-hand side
       -(N-2)/2 H(y,y)

    Each identity is a row (name, integrand, radius, rhs, denominator) of
    one table, evaluated at _SURFACE_ORDER and at half that order;
    non-convergence (residual not decreasing with order) is flagged per
    identity.
    """
    yv = g._inside(y)
    N = g.N
    axis = plane_frame(N, yv, yv)[0]
    ny = float(np.linalg.norm(yv))
    scale = (N - 2.0) * robin(g, yv)
    grad_r = float(robin_gradient(g, yv) @ axis)
    d = 0.3 * (1.0 - ny)
    local_rhs = -(N - 2.0) / 2.0 * regular_part(g, yv, yv)

    # on the unit sphere the point x and its outer normal are both sigma
    def pohozaev(sigma):
        dgdn = float(grad_green(g, sigma, yv) @ sigma)
        return (1.0 - ny * float(sigma @ axis)) * dgdn * dgdn

    def robin_grad(sigma):
        dgdn = float(grad_green(g, sigma, yv) @ sigma)
        return dgdn * dgdn * float(sigma @ axis)

    def local(sigma):
        x = yv + d * sigma
        grad = grad_green(g, x, yv)
        dgdn = float(grad @ sigma)
        # -(dG/dn)(y-x).gradG collapses to -d (dG/dn)^2 on the sphere
        return (
            -d * dgdn * dgdn
            + 0.5 * d * float(grad @ grad)
            - (N - 2.0) / 2.0 * green(g, x, yv) * dgdn
        )

    table = (
        ("pohozaev_surface", pohozaev, 1.0, scale, abs(scale)),
        ("robin_gradient_surface", robin_grad, 1.0, grad_r,
         max(abs(grad_r), scale)),
        ("local_pohozaev", local, d, local_rhs, abs(local_rhs)),
    )
    out = {}
    for name, integrand, radius, rhs, denom in table:
        hi, lo = (
            abs(_polar_sphere_quad(integrand, N, radius, yv, o) - rhs) / denom
            for o in (_SURFACE_ORDER, _SURFACE_ORDER // 2)
        )
        out[name] = {"residual": hi, "converged": hi <= lo + 1e-14}
    return out


def greens_representation_residual(g: BallGreen, x) -> float:
    """Check u(x) = int_B G(x,y) f dy for u = 1 - |x|^2, f = 2N.

    The volume integral uses spherical coordinates centered at x, which makes
    the integrand smooth (the rho^{N-1} Jacobian kills the Green singularity).
    Returns the relative residual.
    """
    xv = g._inside(x)
    N = g.N
    nx = float(np.linalg.norm(xv))

    def inner(sigma):
        xs = float(xv @ sigma)
        rho_max = -xs + np.sqrt(1.0 - nx * nx + xs * xs)
        rho, wr = gauss_legendre(0.0, rho_max, _REPRESENTATION_ORDER)
        return sum(
            wj * green(g, xv, xv + rj * sigma) * rj ** (N - 1)
            for rj, wj in zip(rho, wr)
        )

    integral = _polar_sphere_quad(inner, N, 1.0, xv,
                                  _REPRESENTATION_ORDER) * 2.0 * N
    target = 1.0 - nx * nx
    return abs(integral - target) / abs(target)
