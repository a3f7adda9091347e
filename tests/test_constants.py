"""Closed-form constants against independent oracles and exact values."""

import math

import pytest

from bnlab import (
    DomainError,
    Params,
    alpha_n,
    blowup_target,
    c_nq,
    c_nq_quadrature,
    omega_n,
    sobolev_sn2,
    sobolev_sn2_exact,
    sobolev_sn2_from_mass,
)


def test_omega_exact():
    # 2 pi^{N/2} / (N/2 - 1)! for even N; for odd N = 2k + 1,
    # 2^{k+1} pi^k / (2k - 1)!!
    for N in range(1, 9):
        if N % 2 == 0:
            exact = 2.0 * math.pi ** (N // 2) / math.factorial(N // 2 - 1)
        else:
            k = N // 2
            exact = 2.0 ** (k + 1) * math.pi**k / math.prod(range(1, 2 * k, 2))
        assert omega_n(N) == pytest.approx(exact, rel=5e-16, abs=0.0)


def test_params_regime():
    assert Params(4, 3.0).regime_ok
    assert Params(5, 3.0).regime_ok
    assert not Params(3, 3.0).regime_ok  # q must exceed 4/(N-2) = 4
    assert not Params(4, 4.0).regime_ok  # critical exponent excluded
    assert Params(4, 3.0).two_star == pytest.approx(4.0)
    assert Params(3, 5.0).two_star == pytest.approx(6.0)
    with pytest.raises(DomainError):
        Params(2, 3.0)


def test_c_nq_against_quadrature():
    for (N, q) in ((4, 3.0), (5, 3.0), (3, 5.0), (5, 2.5), (6, 2.2)):
        p = Params(N, q)
        assert c_nq(p) == pytest.approx(c_nq_quadrature(p), rel=1e-10)


def test_c_nq_closed_value():
    # N=4, q=3: Gamma(2)Gamma(1) / (2 Gamma(3)) = 1/4
    assert c_nq(Params(4, 3.0)) == 0.25


def test_alpha_n():
    assert alpha_n(4) == pytest.approx(8.0**0.5, rel=1e-14)
    assert alpha_n(5) == pytest.approx(15.0**0.75, rel=1e-14)


def test_sobolev_three_ways():
    for N in (3, 4, 5, 6, 7):
        s = sobolev_sn2_exact(N)
        assert sobolev_sn2(N) == pytest.approx(s, rel=1e-9)
        assert sobolev_sn2_from_mass(N) == pytest.approx(s, rel=1e-9)


def test_sobolev_closed_value_n4():
    # N=4: alpha_4^4 omega_4 Gamma(2)^2 / (2 Gamma(4)) = 64*2pi^2/12
    assert sobolev_sn2_exact(4) == pytest.approx(
        64.0 * 2.0 * math.pi**2 / 12.0, rel=1e-13
    )


def test_blowup_target_regime_gate():
    with pytest.raises(DomainError):
        blowup_target(Params(4, 5.0))
    with pytest.raises(DomainError):
        blowup_target(Params(3, 3.0))
