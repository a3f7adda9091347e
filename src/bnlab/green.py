"""Green's function of the Laplacian on the unit ball by the method of images,
with the Robin function, analytic gradients, and quadrature verification of
the surface-integral identities.

The regular part is always evaluated from the image term directly, never as
a difference of two singular terms, so the diagonal is cancellation-free.
singular_part, regular_part, green and grad_green broadcast over leading
axes of points: a pair of single points gives a float (a vector for
grad_green), an (M, N) array of points gives M values.  Each quadrature is
therefore one array pass over all its nodes: surface_identity_suite
evaluates its three identities from one table of (name, integrand, radius,
right-hand side, denominator) rows, each by one polar-angle rule at two
orders, and greens_representation_residual evaluates the Green function once
on its whole (direction, radius) grid.
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
        r = np.sqrt(_dot(xv, xv))
        outside = r >= 1.0 if strict else r > 1.0 + 1e-12
        if np.any(outside):
            raise DomainError(f"point at |x|={float(np.max(r))} not inside "
                              "the unit ball")
        return xv


def _dot(a: np.ndarray, b: np.ndarray):
    """Inner product over the last axis, row by row."""
    return np.sum(a * b, axis=-1)


def _pow(v, e):
    """v ** e by numpy's array loop, also for a single value: the scalar
    power can differ from it in the last bit, and a point's value must not
    depend on the batch it comes in."""
    return np.power(np.atleast_1d(v), e).reshape(np.shape(v))


def _offset(x: np.ndarray, y: np.ndarray, what: str):
    """x - y and its length; raises when any pair sits on the diagonal."""
    d = x - y
    dist = np.sqrt(_dot(d, d))
    if np.any(dist == 0.0):
        raise SingularityError(f"{what} evaluated on the diagonal")
    return d, dist


def _newtonian(g: BallGreen, r):
    """c r^{2-N}: a Python float for a single point, an array for a batch."""
    v = g.c * _pow(r, 2.0 - g.N)
    return float(v) if np.ndim(v) == 0 else v


def _image_distance(x: np.ndarray, y: np.ndarray):
    """|y| |x - y*| where y* = y / |y|^2; symmetric and regular at y=0.

    |y|^2 |x - y*|^2 = |x|^2 |y|^2 - 2 x.y + 1.
    """
    val = _dot(x, x) * _dot(y, y) - 2.0 * _dot(x, y) + 1.0
    return np.sqrt(np.maximum(val, 0.0))


def singular_part(g: BallGreen, x, y):
    """S(x,y) = 1 / ((N-2) omega_N |x-y|^{N-2})."""
    _, dist = _offset(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                      "singular part")
    return _newtonian(g, dist)


def regular_part(g: BallGreen, x, y):
    """H(x,y), from the image term; finite on the diagonal."""
    b = _image_distance(g._inside(x, strict=False), g._inside(y, strict=False))
    return _newtonian(g, b)


def green(g: BallGreen, x, y):
    """G(x,y) = S(x,y) - H(x,y); positive, symmetric, zero on the sphere."""
    return singular_part(g, x, y) - regular_part(g, x, y)


def grad_green(g: BallGreen, x, y) -> np.ndarray:
    """Gradient of G in its first argument, in closed form."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    d, dist = _offset(xv, yv, "grad_green")
    b = _image_distance(xv, yv)
    grad_b2_half = _dot(yv, yv)[..., None] * xv - yv  # d/dx of b^2 / 2
    return -(g.N - 2.0) * g.c * (
        d / _pow(dist, g.N)[..., None] - grad_b2_half / _pow(b, g.N)[..., None]
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

    fn receives the (order, N) array of unit directions sigma, one per node,
    and returns its values there; the symmetry reduces the surface integral
    to int_0^pi fn(cos th) sin^{N-2}(th) dth times omega_{N-1} radius^{N-1}.
    The polar-angle form keeps the integrand smooth at the poles for every N,
    so Gauss-Legendre is spectral.
    """
    axis, e_perp = plane_frame(N, y, y)
    th, w = gauss_legendre(0.0, np.pi, order)
    sigma = np.cos(th)[:, None] * axis + np.sin(th)[:, None] * e_perp
    total = float(np.sum(w * fn(sigma) * np.sin(th) ** (N - 2.0)))
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
    identity.  Each integrand maps the quadrature's array of directions to
    its array of values.
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
        dgdn = _dot(grad_green(g, sigma, yv), sigma)
        return (1.0 - ny * (sigma @ axis)) * dgdn * dgdn

    def robin_grad(sigma):
        dgdn = _dot(grad_green(g, sigma, yv), sigma)
        return dgdn * dgdn * (sigma @ axis)

    def local(sigma):
        x = yv + d * sigma
        grad = grad_green(g, x, yv)
        dgdn = _dot(grad, sigma)
        # -(dG/dn)(y-x).gradG collapses to -d (dG/dn)^2 on the sphere
        return (
            -d * dgdn * dgdn
            + 0.5 * d * _dot(grad, grad)
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
    Every direction sigma gets its own Gauss-Legendre rule in rho on
    [0, rho_max(sigma)], so the Green function is evaluated once on the whole
    (direction, rho) grid.  Returns the relative residual.
    """
    xv = g._inside(x)
    N = g.N
    nx = float(np.linalg.norm(xv))

    def radial(sigma):
        xs = sigma @ xv
        rho_max = -xs + np.sqrt(1.0 - nx * nx + xs * xs)
        rho, wr = gauss_legendre(0.0, rho_max[:, None], _REPRESENTATION_ORDER)
        y = xv + rho[..., None] * sigma[:, None, :]
        return np.sum(wr * green(g, xv, y) * rho ** (N - 1), axis=-1)

    integral = _polar_sphere_quad(radial, N, 1.0, xv,
                                  _REPRESENTATION_ORDER) * 2.0 * N
    target = 1.0 - nx * nx
    return abs(integral - target) / abs(target)
