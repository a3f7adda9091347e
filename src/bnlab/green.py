"""Green's function of the Laplacian on the unit ball by the method of images,
with the Robin function, analytic gradients, and quadrature verification of
the surface-integral identities.

The regular part is always evaluated from the image term directly, never as
a difference of two singular terms, so the diagonal is cancellation-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import omega_n
from .errors import DomainError, SingularityError
from .quadrature import gauss_legendre

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

    @property
    def c(self) -> float:
        return self.constant_scale / ((self.N - 2.0) * omega_n(self.N))

    def _inside(self, x, strict=True):
        xv = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(xv))
        if (strict and r >= 1.0) or r > 1.0 + 1e-12:
            raise DomainError(f"point at |x|={r} not inside the unit ball")
        return xv


def _image_distance(g: BallGreen, x: np.ndarray, y: np.ndarray) -> float:
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
    b = _image_distance(g, xv, yv)
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
    b = _image_distance(g, xv, yv)
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


def _axis(y: np.ndarray, N: int) -> np.ndarray:
    ny = float(np.linalg.norm(y))
    if ny < 1e-14:
        e = np.zeros(N)
        e[0] = 1.0
        return e
    return y / ny


def _perp(axis: np.ndarray) -> np.ndarray:
    t = np.zeros(axis.shape[0])
    t[int(np.argmin(np.abs(axis)))] = 1.0
    v = t - (t @ axis) * axis
    return v / np.linalg.norm(v)


def _polar_sphere_quad(fn, N: int, radius: float, axis: np.ndarray,
                       order: int):
    """Integrate an axially symmetric scalar field over a sphere.

    fn receives the full N-dimensional point; symmetry about `axis` reduces
    the surface integral to int_0^pi fn(cos th) sin^{N-2}(th) dth times
    omega_{N-1} radius^{N-1}.  The polar-angle form keeps the integrand
    smooth at the poles for every N, so Gauss-Legendre is spectral.
    """
    e_perp = _perp(axis)
    th, w = gauss_legendre(0.0, np.pi, order)
    total = 0.0
    for ti, wi in zip(th, w):
        sigma = np.cos(ti) * axis + np.sin(ti) * e_perp
        total += wi * fn(sigma) * np.sin(ti) ** (N - 2.0)
    return omega_n(N - 1) * radius ** (N - 1) * total


def surface_identity_suite(g: BallGreen, y, quad_order: int = 64) -> dict:
    """Relative residuals of the three surface identities at the point y.

    1. oint_{sphere} (x-y, n) (dG/dn)^2 dS = (N-2) R(y)
    2. oint_{sphere} (dG/dn)^2 n dS = grad R(y)
    3. local identity on a small sphere around y, with right-hand side
       -(N-2)/2 H(y,y)

    Residuals are also evaluated at half the order; non-convergence (residual
    not decreasing with order) is flagged per identity.
    """
    if quad_order < 16:
        raise DomainError("quad_order must be at least 16")
    yv = g._inside(y)
    out = {}
    for name, res_hi, res_lo in (
        _surface_identities_at(g, yv, quad_order)
        + _local_identity_at(g, yv, quad_order)
    ):
        out[name] = {
            "residual": res_hi,
            "residual_half_order": res_lo,
            "converged": res_hi <= res_lo + 1e-14,
        }
    return out


def _surface_identities_at(g: BallGreen, yv, order):
    N = g.N
    axis = _axis(yv, N)
    ny = float(np.linalg.norm(yv))
    scale = (N - 2.0) * robin(g, yv)

    def run(o):
        # on the unit sphere the point x and its outer normal are both sigma
        def dgdn2_weighted(sigma):
            dgdn = float(grad_green(g, sigma, yv) @ sigma)
            return (1.0 - ny * float(sigma @ axis)) * dgdn * dgdn

        lhs1 = _polar_sphere_quad(dgdn2_weighted, N, 1.0, axis, o)

        def dgdn2_axis(sigma):
            dgdn = float(grad_green(g, sigma, yv) @ sigma)
            return dgdn * dgdn * float(sigma @ axis)

        lhs2 = _polar_sphere_quad(dgdn2_axis, N, 1.0, axis, o)
        rhs1 = scale
        rhs2 = float(robin_gradient(g, yv) @ axis)
        r1 = abs(lhs1 - rhs1) / abs(rhs1)
        r2 = abs(lhs2 - rhs2) / max(abs(rhs2), scale)
        return r1, r2

    r1_hi, r2_hi = run(order)
    r1_lo, r2_lo = run(order // 2)
    return [
        ("pohozaev_surface", r1_hi, r1_lo),
        ("robin_gradient_surface", r2_hi, r2_lo),
    ]


def _local_identity_at(g: BallGreen, yv, order):
    N = g.N
    axis = _axis(yv, N)
    d = 0.3 * (1.0 - float(np.linalg.norm(yv)))
    rhs = -(N - 2.0) / 2.0 * regular_part(g, yv, yv)

    def run(o):
        def integrand(sigma):
            x = yv + d * sigma
            gg = green(g, x, yv)
            grad = grad_green(g, x, yv)
            dgdn = float(grad @ sigma)
            # -(dG/dn)(y-x).gradG collapses to -d (dG/dn)^2 on the sphere
            return (
                -d * dgdn * dgdn
                + 0.5 * d * float(grad @ grad)
                - (N - 2.0) / 2.0 * gg * dgdn
            )

        lhs = _polar_sphere_quad(integrand, N, d, axis, o)
        return abs(lhs - rhs) / abs(rhs)

    return [("local_pohozaev", run(order), run(order // 2))]


def greens_representation_residual(g: BallGreen, x) -> float:
    """Check u(x) = int_B G(x,y) f dy for u = 1 - |x|^2, f = 2N.

    The volume integral uses spherical coordinates centered at x, which makes
    the integrand smooth (the rho^{N-1} Jacobian kills the Green singularity).
    Returns the relative residual.
    """
    xv = g._inside(x)
    N = g.N
    axis = _axis(xv, N)
    e_perp = _perp(axis)
    nx = float(np.linalg.norm(xv))
    th, wt = gauss_legendre(0.0, np.pi, _REPRESENTATION_ORDER)
    total = 0.0
    for ti, wi in zip(th, wt):
        ct = np.cos(ti)
        sigma = ct * axis + np.sin(ti) * e_perp
        rho_max = -nx * ct + np.sqrt(1.0 - nx * nx * (1.0 - ct * ct))
        rho, wr = gauss_legendre(0.0, rho_max, _REPRESENTATION_ORDER)
        inner = sum(
            wj * green(g, xv, xv + rj * sigma) * rj ** (N - 1)
            for rj, wj in zip(rho, wr)
        )
        total += wi * inner * np.sin(ti) ** (N - 2.0)
    integral = omega_n(N - 1) * total * 2.0 * N
    target = 1.0 - nx * nx
    return abs(integral - target) / abs(target)
