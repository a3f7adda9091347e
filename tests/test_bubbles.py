"""Bubble evaluation, harmonic correction, and projection properties."""

import numpy as np
import pytest

from bnlab import DomainError, alpha_n, omega_n
from bnlab.bubbles import (
    Bubble,
    eval_bubble,
    harmonic_correction,
    harmonic_correction_exact,
    normalized_bubble_r2,
)
from bnlab.green import BallGreen, regular_part


def _mode_laplacian(f, r, h, N, ell=0):
    """f'' + (N-1)/r f' - ell(ell+N-2)/r^2 f by central differences."""
    d2 = (f(r + h) - 2.0 * f(r) + f(r - h)) / h**2
    d1 = (f(r + h) - f(r - h)) / (2.0 * h)
    return d2 + (N - 1) / r * d1 - ell * (ell + N - 2.0) / r**2 * f(r)


def test_bubble_values():
    b = Bubble(4, 2.0, np.zeros(4))
    assert eval_bubble(b, np.zeros(4)) == pytest.approx(2.0, rel=1e-14)
    x = np.array([0.5, 0.0, 0.0, 0.0])
    assert eval_bubble(b, x) == pytest.approx(1.0, rel=1e-14)  # 2/(1+4*0.25)


def test_bubble_validation():
    with pytest.raises(DomainError):
        Bubble(2, 1.0, np.zeros(2))
    with pytest.raises(DomainError):
        Bubble(4, -1.0, np.zeros(4))


def test_normalized_bubble_solves_equation():
    """-u'' - (N-1)/r u' = u^{2*-1} for the height-1 profile."""
    for N in (3, 4, 5, 7):
        r, h = 1.3, 1e-5

        def f(s):
            return normalized_bubble_r2(N, s * s)

        rhs = -f(r) ** (2.0 * N / (N - 2.0) - 1.0)
        assert _mode_laplacian(f, r, h, N) == pytest.approx(rhs, rel=1e-5)


def test_kernel_solves_linearized_equation():
    """The ell = 0 kernel (N(N-2) - s^2) / (N(N-2) + s^2)^{N/2} and the ell = 1
    kernel U' = -(s/N) U^{N/(N-2)}, the closed form ShootResult.eval uses,
    satisfy -L_ell z = (2*-1) U^{2*-2} z."""
    for N in (3, 4, 5, 7):
        k = N * (N - 2.0)
        two_star = 2.0 * N / (N - 2.0)
        r, h = 0.8, 1e-4

        def u(s):
            return normalized_bubble_r2(N, s * s)

        def z0(s):
            return (k - s * s) / (k + s * s) ** (N / 2.0)

        def z1(s):
            return -(s / N) * u(s) ** (N / (N - 2.0))

        du = (u(r + h) - u(r - h)) / (2.0 * h)
        assert z1(r) == pytest.approx(du, rel=1e-7)
        for ell, z in ((0, z0), (1, z1)):
            rhs = -(two_star - 1.0) * u(r) ** (two_star - 2.0) * z(r)
            lap = _mode_laplacian(z, r, h, N, ell)
            assert lap == pytest.approx(rhs, rel=1e-5)


def test_harmonic_correction_quadrature_vs_exact():
    cases = [
        (Bubble(3, 4.0, np.array([0.3, 0.1, 0.0])), np.array([0.2, -0.4, 0.1])),
        (Bubble(4, 2.0, np.zeros(4)), np.array([0.5, 0.0, 0.0, 0.0])),
        (Bubble(5, 7.0, np.array([0.0, 0.2, 0.0, 0.0, 0.0])), np.zeros(5)),
        # off-axis: x is not on the line through 0 and the center
        (Bubble(5, 20.0, np.array([0.1, 0.2, 0.0, -0.1, 0.0])),
         np.array([0.3, -0.1, 0.2, 0.0, 0.1])),
        (Bubble(6, 5.0, np.array([0.2, 0.0, 0.1, 0.0, 0.0, 0.0])),
         np.array([0.0, 0.4, 0.0, -0.2, 0.0, 0.1])),
        (Bubble(7, 3.0, np.array([0.2, 0.0, 0.1, 0.0, 0.0, 0.0, 0.0])),
         np.array([0.0, 0.4, 0.0, -0.2, 0.0, 0.0, 0.1])),
        # centered bubble at x = 0: the frame falls back to the first axes
        (Bubble(5, 6.0), np.zeros(5)),
    ]
    for b, x in cases:
        hq = harmonic_correction(b, x)
        hx = harmonic_correction_exact(b, x)
        assert hq == pytest.approx(hx, rel=1e-12)


def test_harmonic_correction_centered_is_constant():
    b = Bubble(4, 10.0, np.zeros(4))
    pts = [np.array([r, 0.0, 0.0, 0.0]) for r in (0.0, 0.3, 0.9)]
    vals = [harmonic_correction_exact(b, x) for x in pts]
    target = (10.0 / (1.0 + 100.0)) ** 1.0
    for v in vals:
        assert v == pytest.approx(target, rel=1e-12)


def test_harmonic_correction_is_harmonic():
    """Five-point Laplacian of the correction vanishes inside the ball."""
    b = Bubble(3, 2.0, np.array([0.2, 0.0, 0.0]))
    x0 = np.array([0.1, 0.3, -0.2])
    h = 1e-3
    lap = -2.0 * 3 * harmonic_correction_exact(b, x0)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        lap += harmonic_correction_exact(b, x0 + e)
        lap += harmonic_correction_exact(b, x0 - e)
    assert abs(lap / h**2) < 1e-4


def test_projected_bubble_vanishes_on_boundary():
    """PU = U - psi vanishes on the sphere: the closed-form harmonic
    correction equals the bubble there."""
    b = Bubble(4, 5.0, np.array([0.2, 0.0, 0.0, 0.0]))
    for x in ([0.0, 1.0, 0.0, 0.0], [-0.6, 0.0, 0.8, 0.0], [1.0, 0.0, 0.0, 0.0]):
        x = np.array(x)
        assert harmonic_correction_exact(b, x) == pytest.approx(
            eval_bubble(b, x), rel=1e-12
        )


def test_projection_robin_limit_order():
    """lam^{(N-2)/2} psi -> (N-2) omega_N H(0,x) at rate O(lam^{-2})."""
    N = 4
    g = BallGreen(N)
    x = np.array([0.5, 0.0, 0.0, 0.0])
    target = (N - 2.0) * omega_n(N) * regular_part(g, np.zeros(N), x)
    errs = []
    for lam in (10.0, 100.0, 1000.0):
        val = lam ** ((N - 2.0) / 2.0) * harmonic_correction_exact(
            Bubble(N, lam, np.zeros(N)), x
        )
        errs.append(abs(val - target) / target)
    assert errs[1] < errs[0] and errs[2] < errs[1]
    # each decade in lam should buy about two decades of accuracy
    assert errs[1] / errs[0] < 0.04
    assert errs[2] / errs[1] < 0.04


def test_alpha_n_matches_normalized_height():
    # U_normalized = alpha_N^{-1} * lam^{(N-2)/2}-scaled bubble at lam = 1/k
    for N in (3, 4, 5):
        k = np.sqrt(N * (N - 2.0))
        b = Bubble(N, 1.0, np.zeros(N))
        x = np.concatenate(([1.7], np.zeros(N - 1)))
        u_norm = normalized_bubble_r2(N, (1.7 * k) ** 2)
        assert alpha_n(N) * u_norm == pytest.approx(
            alpha_n(N) * eval_bubble(b, x), rel=1e-12
        )
