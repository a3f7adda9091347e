"""Closed-form constants of the blow-up analysis and their quadrature oracles.

All constants are expressed through the Gamma function (`math.gamma`); the
three that hold a radial Beta integral, c_{N,q}, alpha_{N,q} and S^{N/2},
share one evaluation of it.  Each Gamma-based formula has an independent
radial-quadrature cross-check exposed alongside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .quadrature import improper_radial

__all__ = [
    "Params",
    "gamma_fn",
    "omega_n",
    "c_nq",
    "c_nq_quadrature",
    "alpha_n",
    "alpha_nq",
    "blowup_target",
    "sobolev_sn2",
    "sobolev_sn2_exact",
    "sobolev_sn2_from_mass",
]

def gamma_fn(x: float) -> float:
    """Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


def omega_n(N: int) -> float:
    """Surface area of the unit sphere S^{N-1} in R^N: 2 pi^{N/2} / Gamma(N/2)."""
    if N < 1:
        raise DomainError(f"omega_n requires N >= 1, got {N}")
    return 2.0 * math.pi ** (N / 2.0) / gamma_fn(N / 2.0)


@dataclass(frozen=True)
class Params:
    """Dimension N and subcritical exponent q of the perturbed critical problem."""

    N: int
    q: float

    def __post_init__(self):
        if self.N < 3:
            raise DomainError(f"dimension must satisfy N >= 3, got {self.N}")
        if not self.q > 0:
            raise DomainError(f"exponent q must be positive, got {self.q}")

    @property
    def two_star(self) -> float:
        return 2.0 * self.N / (self.N - 2.0)

    @property
    def q_lower(self) -> float:
        return max(2.0, 4.0 / (self.N - 2.0))

    @property
    def regime_ok(self) -> bool:
        return self.q_lower < self.q < self.two_star

    def require_regime(self) -> None:
        if not self.regime_ok:
            raise DomainError(
                f"(N={self.N}, q={self.q}) outside the admissible regime: "
                f"need q in ({self.q_lower}, {self.two_star})"
            )


def alpha_n(N: int) -> float:
    """(N(N-2))^{(N-2)/4}, the height normalization of the standard bubble."""
    if N < 3:
        raise DomainError(f"alpha_n requires N >= 3, got {N}")
    return (N * (N - 2.0)) ** ((N - 2.0) / 4.0)


def _beta_exponent(p: Params) -> float:
    """a = (N-2)q/2, the exponent of the c_nq integral; it converges iff
    a > N/2."""
    N, q = p.N, p.q
    a = (N - 2.0) * q / 2.0
    if a - N / 2.0 <= 0.0:
        raise DomainError(
            f"integral diverges: need q > N/(N-2), got q={q} at N={N}"
        )
    return a


def _radial_beta(N: int, a: float) -> float:
    """int_0^inf r^{N-1} (1+r^2)^{-a} dr
    = Gamma(N/2) Gamma(a - N/2) / (2 Gamma(a)) for a > N/2."""
    return gamma_fn(N / 2.0) * gamma_fn(a - N / 2.0) / (2.0 * gamma_fn(a))


def c_nq(p: Params) -> float:
    """int_0^inf r^{N-1} (1+r^2)^{-(N-2)q/2} dr in closed form."""
    return _radial_beta(p.N, _beta_exponent(p))


def c_nq_quadrature(p: Params) -> float:
    """Oracle for c_nq: the same integral by quadrature."""
    N, a = p.N, _beta_exponent(p)
    return improper_radial(lambda r: r ** (N - 1) * (1.0 + r * r) ** (-a))


def alpha_nq(p: Params) -> float:
    """Limit constant of the product eps * ||u||_inf^{q+2-2*}:
    (2q/(2*-q)) * (alpha_N^{2*} omega_N / N^2) / (2 c_nq)."""
    p.require_regime()
    N, q = p.N, p.q
    return (
        (2.0 * q / (p.two_star - q))
        * (alpha_n(N) ** p.two_star * omega_n(N) / N**2)
        / (2.0 * c_nq(p))
    )


def blowup_target(p: Params) -> float:
    """alpha_{N,q} R(0) on the unit ball, R(0) = 1/((N-2) omega_N): the limit
    of eps * mu^{q+2-2*}, and of eps_tilde R_tilde^{N-2} along the branch."""
    return alpha_nq(p) / ((p.N - 2.0) * omega_n(p.N))


def _grad_sq_unnormalized_bubble(N: int) -> float:
    # U_{1,0}(r) = (1+r^2)^{-(N-2)/2 / ...}: profile (1/(1+r^2))^{(N-2)/2},
    # U' = -(N-2) r (1+r^2)^{-N/2}
    def f(r):
        up = -(N - 2.0) * r * (1.0 + r * r) ** (-N / 2.0)
        return up * up * r ** (N - 1)

    return omega_n(N) * improper_radial(f)


def sobolev_sn2_exact(N: int) -> float:
    """S^{N/2} in closed form: alpha_N^{2*} omega_N Gamma(N/2)^2 / (2 Gamma(N)).

    The radial mass integral of the un-normalized bubble is the c_nq Beta
    integral at q = 2*, that is a = N.
    """
    if N < 3:
        raise DomainError(f"sobolev_sn2_exact requires N >= 3, got {N}")
    two_star = 2.0 * N / (N - 2.0)
    return alpha_n(N) ** two_star * omega_n(N) * _radial_beta(N, N)


def sobolev_sn2(N: int) -> float:
    """S^{N/2} = alpha_N^2 * int |grad U_{1,0}|^2 by radial quadrature."""
    if N < 3:
        raise DomainError(f"sobolev_sn2 requires N >= 3, got {N}")
    return alpha_n(N) ** 2 * _grad_sq_unnormalized_bubble(N)


def sobolev_sn2_from_mass(N: int) -> float:
    """Second oracle: S^{N/2} = alpha_N^{2*} * int U_{1,0}^{2*}."""
    if N < 3:
        raise DomainError(f"sobolev_sn2_from_mass requires N >= 3, got {N}")
    two_star = 2.0 * N / (N - 2.0)

    def f(r):
        u = (1.0 / (1.0 + r * r)) ** ((N - 2.0) / 2.0)
        return u**two_star * r ** (N - 1)

    return alpha_n(N) ** two_star * omega_n(N) * improper_radial(f)
