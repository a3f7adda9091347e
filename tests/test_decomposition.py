"""Bubble decomposition: orthogonality, projection coefficient, and the
decay order of the perturbation part."""

import numpy as np
import pytest
from scipy.integrate import quad

from bnlab import (
    DecompositionResult,
    DomainError,
    FitFailureError,
    Params,
    alpha_n,
    fit_decomposition,
    omega_n,
    perturbation_order_fit,
    solution_at,
    w_decay_exponent,
)


def test_w_decay_table():
    assert w_decay_exponent(Params(4, 3.0)) == 2.0
    assert w_decay_exponent(Params(4, 2.2)) == 1.0
    assert w_decay_exponent(Params(5, 3.0)) == 3.0
    assert w_decay_exponent(Params(5, 2.1)) == 2.5
    assert w_decay_exponent(Params(3, 5.0)) == 1.0
    assert w_decay_exponent(Params(6, 2.5)) == 4.0
    assert w_decay_exponent(Params(8, 2.1)) == 5.0
    with pytest.raises(DomainError):
        w_decay_exponent(Params(3, 3.0))


def test_fit_reads_interpolant_once(p43):
    """One fit evaluates the shooting interpolant once, on one node set."""
    sol = solution_at(p43, 1e-3)
    dense = sol.shoot_result.dense
    calls = []

    def counting(s):
        calls.append(len(s))
        return dense(s)

    sol.shoot_result.dense = counting
    fit_decomposition(sol)
    assert len(calls) == 1


@pytest.mark.parametrize("N", [4, 5])
def test_w_norm_matches_quad_oracle(N):
    """||w||^2 = omega_N int_0^R_tilde (u_tilde' - alpha dU_lam/ds)^2 s^{N-1} ds,
    integrated adaptively between fixed breakpoints."""
    p = Params(N, 3.0)
    sol = solution_at(p, 1e-2)
    d = fit_decomposition(sol)
    lam = d.lam_scaled

    def integrand(s):
        dU = -(N - 2.0) * lam ** ((N + 2.0) / 2.0) * s * (
            1.0 + lam * lam * s * s
        ) ** (-N / 2.0)
        return (sol.shoot_result.eval(s)[1] - d.alpha * dU) ** 2 * s ** (N - 1)

    edges = [b for b in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0) if b < sol.R_tilde]
    edges.append(sol.R_tilde)
    val = sum(
        quad(integrand, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )
    assert d.w_h1_norm == pytest.approx(np.sqrt(omega_n(N) * val), rel=1e-8)


def test_decomposition_orthogonality(decs43):
    for d in decs43:
        r1, r2 = d.ortho_residuals
        assert r1 <= 1e-6
        assert r2 <= 1e-6


def test_alpha_converges(p43, decs43):
    alphas = np.array([d.alpha for d in decs43])
    errs = np.abs(alphas - alpha_n(p43.N)) / alpha_n(p43.N)
    assert errs[-1] < 1e-4
    assert errs[-1] < errs[0]


def test_lambda_tracks_height(p43, sweep43, decs43):
    """lam / mu^{2/(N-2)} approaches a constant as the solution concentrates."""
    _, sols = sweep43
    ratios = np.array([
        d.lam / s.mu ** (2.0 / (p43.N - 2.0)) for d, s in zip(decs43, sols)
    ])
    assert np.all(ratios > 0)
    tail = ratios[-5:]
    assert np.max(tail) - np.min(tail) < 1e-3 * np.mean(tail)


def test_w_norm_shrinks(decs43):
    w = np.array([d.w_h1_norm for d in decs43])
    assert w[-1] < w[0]
    assert w[-1] < 1e-6


def test_order_fit_requires_enough_points(decs43):
    for decs in ([], decs43[:4]):
        with pytest.raises(FitFailureError):
            perturbation_order_fit(decs)


def test_order_fit_slope(decs43):
    fit = perturbation_order_fit(decs43)
    # the table order is an upper bound on ||w||, so the fitted slope may be
    # steeper (more negative) but not shallower
    assert fit.slope_estimate <= fit.slope_target + 0.3


def test_order_fit_removes_the_log_factor_at_n6():
    """At N = 6 the fit divides ||w|| by (ln lambda)^{2/3} before it fits:
    ||w|| = lambda^{-4} (ln lambda)^{2/3} reads the table slope -4, where
    the log factor alone would flatten it to about -3.9."""
    p = Params(6, 2.6)
    decs = [DecompositionResult(alpha=1.0, lam=lam, lam_scaled=1.0,
                                w_h1_norm=lam**-4.0 * np.log(lam) ** (2 / 3),
                                ortho_residuals=(0.0, 0.0), params=p)
            for lam in np.logspace(2.0, 6.0, 9)]
    fit = perturbation_order_fit(decs)
    assert fit.slope_target == -4.0
    assert fit.slope_estimate == pytest.approx(-4.0, rel=0.0, abs=1e-12)
