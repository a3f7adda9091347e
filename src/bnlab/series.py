"""The convergent power series in s^2 (Frobenius; Coddington and Levinson,
Theory of Ordinary Differential Equations, 1955, ch. 4) from which every
shoot of bnlab.solver and bnlab.linearization starts, at s0 = _START L,
L = _length_scale(eps_tilde), away from the singular point s = 0.

The profile's series, cached per (params, eps_tilde), is exact to rounding
in 13 to 25 terms: base shoots started at 0.25 L and 0.5 L give the first
zero and the quadratures within 4e-13 of each other.  Every mode series
comes from one recursion (frobenius_pair),

    b_{k+1} (2k+2)(2 ell+2k+N) = -([(W+nu) b]_k + src_k),

with the potential W of the profile series: the mode solution takes
src = 0, its nu-derivative src = b, and the kernel shoot's y and w take
src = c u' and src = y.  Each stops on a term-decay test, after 12 to 20
terms at the default cells, and raises IntegrationFailureError if it has
not converged in SERIES_TERMS terms or its solution has a zero in (0, s0].
Where |nu| + |W(0)| = omega^2 is large (a free-Laplacian shoot far above
zero, a large potential_scale) s0 shrinks to _START_PHASE / omega, which
keeps the terms bounded.  An angle start that drops the O(s0^2) terms
mixes in the singular solution s^{2-N}, which the tail at small eps_tilde
amplifies; from the series, the gap of lambda_0 to its N = 3, q = 5 limit
pi^2 / 4 shrinks tenfold per decade of eps_tilde.  Moving the start from
0.5 L to 0.1 L moves lambda_0 by 1.2e-8 relative at (N, q, eps_tilde) =
(3, 5, 1e-6) and 7e-11 at (4, 3, 1e-5), and ell >= 1 values by at most
1.3e-11.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .constants import Params
from .errors import IntegrationFailureError

__all__ = ["SERIES_TERMS", "ProfileSeries", "check_no_zero", "frobenius_pair",
           "profile_series"]

# start radius of the base and the mode shoots, in units of _length_scale:
# the series of the profile converges there about 12-fold per term at
# N = 3, as the bubble's nearest complex singularity lies at s^2 = -N(N-2)
_START = 0.5
# largest phase omega * s0 of a mode start (see the module docstring)
_START_PHASE = 2.0
# a series stops after two consecutive terms at s0 below this, relative to
# its largest term, and raises after SERIES_TERMS terms
_SERIES_TOL = 2.0**-56
SERIES_TERMS = 60
# where a series start checks that its solution has no zero: the powers
# t^k of t = (s / s0)^2 = 1/16, 2/16, ..., 1
_ZERO_CHECK = np.linspace(1.0 / 16.0, 1.0, 16)[:, None] ** np.arange(
    SERIES_TERMS + 1)


def _length_scale(eps_tilde: float) -> float:
    """Length on which the height-1 profile varies near the origin: 1, or
    eps_tilde^{-1/2} once the eps_tilde u^{q-1} term dominates."""
    return min(1.0, eps_tilde**-0.5)


def _decayed(prev: float, last: float, big: float) -> bool:
    """Whether the last two terms of a series at s0 are both below
    _SERIES_TOL relative to its largest term, big."""
    return big > 0.0 and max(abs(prev), abs(last)) <= _SERIES_TOL * big


def _unconverged(what: str) -> IntegrationFailureError:
    return IntegrationFailureError(
        f"{what} series did not converge in {SERIES_TERMS} terms")


def check_no_zero(coeffs, what: str) -> None:
    """IntegrationFailureError unless sum coeffs[k] t^k > 0 at every t of
    _ZERO_CHECK: a series solution, divided by s^ell, must have no zero
    in (0, s0], checked at those t = (s / s0)^2."""
    if not (_ZERO_CHECK[:, :len(coeffs)] @ coeffs > 0.0).all():
        raise IntegrationFailureError(
            f"the {what} has a zero inside the series start")


def _power_term(A: list, power: list, a: float, k: int) -> float:
    """[u^a]_k from u = sum A_j x^j and the [u^a]_j, j < k, in power, by
    J. C. P. Miller's recurrence, from a u' u^a = u (u^a)' (Henrici,
    Applied and Computational Complex Analysis I, 1974, 1.6)."""
    return sum(((a + 1.0) * j - k) * A[j] * power[k - j]
               for j in range(1, k + 1)) / k


@dataclass(frozen=True)
class ProfileSeries:
    """Taylor coefficients of the height-1 profile and of what its shoots
    read, each in powers of x = t^2, t = s / L, L = _length_scale."""

    params: Params
    eps_tilde: float
    L: float
    b: np.ndarray  # the deviation v = u - U from the bubble
    A: np.ndarray  # u = U + v
    P: np.ndarray  # u^{2*-1}
    Q: np.ndarray  # u^{q-1}

    @functools.cached_property
    def W(self) -> np.ndarray:
        """L^2 [(2*-1) u^{2*-2} + (q-1) eps_tilde u^{q-2}], the potential of
        the mode shoots at potential_scale 1, as many terms as A: powers of
        u that decay at t = _START as P and Q do."""
        p, A = self.params, self.A.tolist()
        R, S = [1.0], [1.0]
        for k in range(1, len(A)):
            R.append(_power_term(A, R, p.two_star - 2.0, k))
            S.append(_power_term(A, S, p.q - 2.0, k))
        return self.L**2 * ((p.two_star - 1.0) * np.array(R)
                            + (p.q - 1.0) * self.eps_tilde * np.array(S))

    def start(self, omega: float = 0.0) -> float:
        """s0 = _START L, or _START_PHASE / omega where that is smaller."""
        s0 = _START * self.L
        return _START_PHASE / omega if omega * s0 > _START_PHASE else s0

    def powers(self, s0: float) -> np.ndarray:
        """(s0 / L)^{2k}, one per coefficient: times it, each is a term."""
        return ((s0 / self.L) ** 2) ** np.arange(len(self.A))

    def deviation(self, s):
        """(v, v') at radii s in [0, _START L]."""
        x = (s / self.L) ** 2
        b = self.b
        return (np.polynomial.polynomial.polyval(x, b),
                2.0 * s / self.L**2 * np.polynomial.polynomial.polyval(
                    x, np.arange(1, len(b)) * b[1:]))


@functools.lru_cache(maxsize=64)
def profile_series(p: Params, eps_tilde: float) -> ProfileSeries:
    """The series of the profile, in t = s / L so that nothing overflows at
    large eps_tilde.

    The bubble's U_k = binom(-(N-2)/2, k) z^k, z = L^2 / (N(N-2)), and
    those of U^{2*-1}, F_k = binom(-(N+2)/2, k) z^k, are closed forms.  The
    deviation b = A - U comes from a difference recurrence, so that it
    carries its own O(eps_tilde) size and nothing cancels at small
    eps_tilde: with P = [u^{2*-1}] = F + D,

        D_k = sum_{j=1..k} (2* j - k)(b_j P_{k-j} + U_j D_{k-j}) / k,
        b_{k+1} (2k+2)(2k+N) = -L^2 (D_k + eps_tilde [u^{q-1}]_k),

    the difference of Miller's recurrence (_power_term) for u^{2*-1} and
    for U^{2*-1}.  The coefficients end where b, A, P and Q have decayed at
    t = _START, so they serve every start radius up to _START L.
    IntegrationFailureError if they have not in SERIES_TERMS terms, or if
    u has a zero in (0, _START L].
    """
    N, p2, q = p.N, p.two_star, p.q
    L = _length_scale(eps_tilde)
    L2, x0 = L * L, _START**2
    z = L2 / (N * (N - 2.0))
    # Python floats: the terms are few, and numpy calls on them cost more
    U, F = [1.0], [1.0]
    b, D, A, P, Q = [0.0], [0.0], [1.0], [1.0], [1.0]
    rows = (b, A, P, Q)
    big = [0.0] * len(rows)
    for k in range(SERIES_TERMS):
        U.append(U[k] * (-(N - 2.0) / 2.0 - k) / (k + 1.0) * z)
        F.append(F[k] * (-(N + 2.0) / 2.0 - k) / (k + 1.0) * z)
        if k:
            D.append(sum((p2 * j - k) * (b[j] * P[k - j] + U[j] * D[k - j])
                         for j in range(1, k + 1)) / k)
            P.append(F[k] + D[k])
            Q.append(_power_term(A, Q, q - 1.0, k))
        b.append(-L2 * (D[k] + eps_tilde * Q[k]) / (
            (2.0 * k + 2.0) * (2.0 * k + N)))
        A.append(U[k + 1] + b[k + 1])
        # the terms at t = _START: x0^k times the coefficients
        xk = x0**k
        big = [max(g, abs(r[k]) * xk) for g, r in zip(big, rows)]
        if k and all(_decayed(r[k - 1] * xk / x0, r[k] * xk, g)
                     for r, g in zip(rows, big)):
            b, A, P, Q = (np.array(r[:k + 1]) for r in rows)
            check_no_zero(A * x0 ** np.arange(k + 1), "profile")
            return ProfileSeries(p, eps_tilde, L, b, A, P, Q)
    raise _unconverged("profile")


def frobenius_pair(x0w, x0: float, nu: float, ell: int, N: int,
                   b0: float, src):
    """Scaled coefficients b_k x0^k of two series solutions
    s^ell sum b_k s^{2k} of the mode-ell equation with a source,

        b_{k+1} (2k+2)(2 ell+2k+N) = -([(W+nu) b]_k + src_k),

    B from b_0 = b0 with src[k] = x0^{k+1} src_k, and D = dB/dnu, from
    d_0 = 0 with src_k = b_k, as src does not depend on nu.
    x0w[j] = x0^{j+1} w_j.  Both end once their terms have decayed;
    IntegrationFailureError if they have not after SERIES_TERMS terms.
    """
    # Python floats: the terms are few, and numpy calls on them cost more
    w, xn = x0w.tolist(), x0 * nu
    b, d = [b0], [0.0]
    big_b, big_d = abs(b0), 0.0
    for k in range(SERIES_TERMS):
        # [W b]_k = sum_j w_j b_{k-j}
        cb = sum(map(operator.mul, w, reversed(b))) + xn * b[k] + src[k]
        cd = sum(map(operator.mul, w, reversed(d))) + xn * d[k] + x0 * b[k]
        den = (2.0 * k + 2.0) * (2.0 * ell + 2.0 * k + N)
        b.append(-cb / den)
        d.append(-cd / den)
        big_b, big_d = max(big_b, abs(b[-1])), max(big_d, abs(d[-1]))
        if (_decayed(b[-2], b[-1], big_b)
                and _decayed(d[-2], d[-1], big_d)):
            return np.array(b), np.array(d)
    raise _unconverged("mode")
