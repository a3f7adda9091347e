"""Spectrum of the mode operators by Sturm shooting: Morse index, the
small positive eigenvalue of the translation mode, and the certificate."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import jn_zeros

import bnlab.linearization
from bnlab import (
    DomainError,
    Params,
    build_mode_operator,
    eigenvalues_near_zero,
    nondegeneracy_certificate,
    scale_to_unit_ball,
    shoot,
    solution_at,
)
from bnlab.cli import EXIT_NUMERICAL, main
from bnlab.linearization import _shoot_mode


@pytest.fixture(scope="module")
def sol53_mid():
    p = Params(5, 3.0)
    return p, scale_to_unit_ball(p, shoot(p, 1e-2, 1e3))


@pytest.fixture(scope="module")
def sol43_shallow():
    p = Params(4, 3.0)
    return p, solution_at(p, 1e-2)


@pytest.fixture(scope="module")
def sol43_deep():
    p = Params(4, 3.0)
    return p, solution_at(p, 1e-5)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([0, 1, 2]),
       st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2))
def test_sturm_count_nondecreasing_in_nu(sol43_shallow, ell, nus):
    """The node count floor(theta / pi) of the mode shoot is the number of
    eigenvalues below nu, so it never decreases as nu grows."""
    p, sol = sol43_shallow
    op = build_mode_operator(p, sol, ell)
    lo, hi = sorted(nus)
    assert (_shoot_mode(op, lo)[0] // math.pi
            <= _shoot_mode(op, hi)[0] // math.pi)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([("5,3,1e-2", 1.0), ("4,3,1e-5", 1.0),
                        ("5,3,1e-2", 1.2)]),
       st.floats(0.0, 1.0))
def test_matched_count_equals_one_sided_count(sol53_mid, sol43_deep, case,
                                              frac):
    """Matching the Pruefer angles at the bubble length keeps the count of
    eigenvalues below nu exact: for ell = 0 and nu between the potential
    bound and zero, floor(Theta / pi) equals floor(theta(R_tilde) / pi)."""
    cell, scale = case
    p, sol = sol43_deep if cell == "4,3,1e-5" else sol53_mid
    op = build_mode_operator(p, sol, 0, potential_scale=scale)
    bound = op.potential_scale * ((p.two_star - 1.0)
                                  + op.eps_tilde * (p.q - 1.0))
    nu = -1.1 * bound * frac
    assert op.match_point < op.R_tilde
    assert (_shoot_mode(op, nu, op.match_point)[0] // math.pi
            == _shoot_mode(op, nu)[0] // math.pi)


@pytest.mark.parametrize("cell", ["5,3,1e-2", "4,3,1e-5"])
@pytest.mark.parametrize("ell,matched", [(0, False), (1, False), (2, False),
                                         (0, True)])
def test_carried_nu_derivative_matches_central_difference(
        sol53_mid, sol43_deep, cell, ell, matched):
    """The fourth state of the mode shoot is d theta / d nu: it matches a
    central difference of the angle, one-sided at lambda = 10 (unit-ball
    units) and matched at nu = -0.1, both away from the roots."""
    p, sol = sol43_deep if cell == "4,3,1e-5" else sol53_mid
    op = build_mode_operator(p, sol, ell)
    s_m = op.match_point if matched else None
    nu = -0.1 if matched else 10.0 / op.R_tilde**2
    h = 1e-5 * abs(nu)
    diff = (_shoot_mode(op, nu + h, s_m)[0]
            - _shoot_mode(op, nu - h, s_m)[0]) / (2.0 * h)
    assert _shoot_mode(op, nu, s_m)[1] == pytest.approx(diff, rel=1e-6)


def test_below_zero_eigenvalue_matches_tight_one_sided_root(sol53_mid):
    """The matched search converges superlinearly, so at the search
    tolerance its root is much closer to the tight root of the one-sided
    angle than the tolerance itself."""
    p, sol = sol53_mid
    op = build_mode_operator(p, sol, 0)
    below = eigenvalues_near_zero(op)[0] / op.R_tilde**2
    ref = brentq(lambda nu: _shoot_mode(op, nu)[0] - math.pi,
                 below * (1.0 + 1e-6), below * (1.0 - 1e-6),
                 xtol=1e-18, rtol=1e-13)
    assert below == pytest.approx(ref, rel=1e-8)


def test_backward_leg_at_large_eps_tilde():
    """R_tilde = 6.3e-4 at N = 4, eps_tilde = 1e8.  Near the negative ell = 0
    eigenvalue the matched angle is just below pi; a backward leg that
    started outward past R_tilde ended about pi off (-0.0059)."""
    p = Params(4, 3.0)
    op = build_mode_operator(p, solution_at(p, 1e8), 0)
    nu = -4.8357912374e7
    matched = _shoot_mode(op, nu, op.match_point)[0]
    assert matched == pytest.approx(3.12480737, abs=1e-7)
    assert matched // math.pi == _shoot_mode(op, nu)[0] // math.pi


@pytest.mark.parametrize("rtol", [None, 1e-13], ids=["default", "1e-13"])
def test_matched_shoot_crosses_long_forbidden_tail(monkeypatch, rtol):
    """At N = 3, q = 5, eps_tilde = 1e-4 (R_tilde = 8.7e4) the backward leg
    crosses a forbidden tail about 1e5 long, where the step is bound by
    stability.  DOP853's stiffness test stops it at rtol = 1e-13; with the
    test off it completes, and Theta agrees with that of the former
    solve_ivp shoot."""
    if rtol is not None:
        monkeypatch.setattr(bnlab.linearization, "_MODE_RTOL", rtol)
    p = Params(3, 5.0)
    op = build_mode_operator(p, solution_at(p, 1e-4), 0)
    assert _shoot_mode(op, -0.5, op.match_point)[0] == pytest.approx(
        3.702047042746759, abs=1e-9)


def test_ell1_plateau_holds_at_the_deep_end():
    """mu^2 lambda_1 tends to a constant as eps -> 0.  At N = 4 it stays
    within a factor 1.25 of its eps_tilde = 1e-5 value down to 1e-7, where
    nu = lambda_1 / R_tilde^2 is 3.7e-15 (rtol = 1e-13 gave 2.10 there)."""
    p = Params(4, 3.0)

    def plateau(et):
        sol = solution_at(p, et)
        return sol.mu**2 * eigenvalues_near_zero(
            build_mode_operator(p, sol, 1))[1]

    ref = plateau(1e-5)
    for et in (1.5e-7, 1e-7):
        assert 1.0 / 1.25 <= plateau(et) / ref <= 1.25, et


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_free_laplacian_spectrum_matches_bessel_zeros(sol43_shallow, ell):
    """With the potential switched off the mode operator is the Dirichlet
    Laplacian on the unit ball, whose ell-mode eigenvalues at N = 4 are the
    squared zeros j_{ell+1,k}^2; the node count holds over many
    oscillations."""
    p, sol = sol43_shallow
    op = build_mode_operator(p, sol, ell, potential_scale=0.0)
    lam = jn_zeros(ell + 1, 29) ** 2
    assert eigenvalues_near_zero(op)[1] == pytest.approx(lam[0], rel=1e-6)
    for k in range(1, 29, 3):
        mid = 0.5 * (lam[k - 1] + lam[k]) / op.R_tilde**2
        assert _shoot_mode(op, mid)[0] // math.pi == k


@pytest.mark.parametrize("ell", [1, 2])
def test_mode_search_in_few_shoots(sol53_mid, monkeypatch, ell):
    """Newton on the Pruefer angle and its carried nu-derivative finds the
    eigenvalue above zero in a few shoots, counting the one at nu = 0, and
    no angle is integrated twice for the same nu."""
    p, sol = sol53_mid
    nus = []
    real = bnlab.linearization._shoot_mode

    def counting(op, nu, s_match=None):
        nus.append(nu)
        return real(op, nu, s_match)

    monkeypatch.setattr(bnlab.linearization, "_shoot_mode", counting)
    eigenvalues_near_zero(build_mode_operator(p, sol, ell))
    assert len(nus) <= 8
    assert len(set(nus)) == len(nus)


def test_ell0_search_in_few_shoots(sol53_mid, monkeypatch):
    """Below zero the matched angle has no step in the forbidden tail: the
    negative ell = 0 eigenvalue takes about as few shoots as the one above
    zero, and no (nu, matching point) pair is integrated twice."""
    p, sol = sol53_mid
    shots = []
    below_zero = []
    real_shoot = bnlab.linearization._shoot_mode
    real_search = bnlab.linearization._eigenvalue_by_index

    def counting(op, nu, s_match=None):
        shots.append((nu, s_match))
        return real_shoot(op, nu, s_match)

    def search(op, theta, j, m0):
        before = len(shots)
        nu = real_search(op, theta, j, m0)
        if j < m0:
            below_zero.append(len(shots) - before)
        return nu

    monkeypatch.setattr(bnlab.linearization, "_shoot_mode", counting)
    monkeypatch.setattr(bnlab.linearization, "_eigenvalue_by_index", search)
    eigenvalues_near_zero(build_mode_operator(p, sol, 0))
    assert len(below_zero) == 1 and below_zero[0] <= 8
    assert len(shots) <= 13
    assert len(set(shots)) == len(shots)
    at_zero = [s_m for nu, s_m in shots if nu == 0.0]
    assert len(at_zero) == len({s_m for _, s_m in shots}) == 2


def _one_node_at_every_nu(op, nu, s_match=None):
    return 1.5 * math.pi + max(nu, 0.0), float(nu > 0.0)


@pytest.mark.parametrize("name,fault", [
    # theta never falls below pi: the potential bound is no lower bracket
    ("_shoot_mode", _one_node_at_every_nu),
    # too few iterations for the Newton search to reach its tolerance
    ("_SEARCH_MAXITER", 3),
    # an unreachable tolerance: DOP853 stops with return code -3
    ("_MODE_RTOL", 1e-30),
])
def test_failed_search_exits_4_with_one_line(monkeypatch, capsys, name,
                                             fault):
    """A lower bracket end that already lies above the eigenvalue, a root
    solve that does not converge and a failed mode integration raise
    instead of returning a number, and the CLI reports them in one line
    (the integrator's own warning is not printed)."""
    monkeypatch.setattr(bnlab.linearization, name, fault)
    rc = main(["spectrum", "--n", "5", "--q", "3", "--eps-tilde", "1e-2",
               "--ell-max", "2"])
    assert rc == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure: ")
    assert err.count("\n") == 1


def test_mode_operator_validation(sol53_mid):
    p, sol = sol53_mid
    with pytest.raises(DomainError):
        build_mode_operator(p, sol, -1)
    op = build_mode_operator(p, sol, 2)
    assert op.centrifugal == pytest.approx(2 * (2 + 3))


def test_morse_index_one(sol53_mid):
    p, sol = sol53_mid
    op = build_mode_operator(p, sol, 0)
    below, above, m0 = eigenvalues_near_zero(op)
    assert m0 == 1
    assert below is not None and below < 0
    assert above > 0


def test_translation_mode_small_positive(sol53_mid):
    p, sol = sol53_mid
    op = build_mode_operator(p, sol, 1)
    below, above, m0 = eigenvalues_near_zero(op)
    assert m0 == 0
    assert below is None
    # eigenvalue of the near-kernel translation mode: small but nonzero
    assert 0.0 < above < 0.1


def test_higher_modes_bounded_away(sol53_mid):
    p, sol = sol53_mid
    vals = []
    for ell in (2, 3, 4):
        op = build_mode_operator(p, sol, ell)
        _, above, m0 = eigenvalues_near_zero(op)
        assert m0 == 0
        vals.append(above)
    assert all(v > 10.0 for v in vals)
    assert vals[0] < vals[1] < vals[2]


def test_eigenvalues_bracket_zero_consistently(sol53_mid):
    """Dirichlet eigenvalues interlace as the domain (R_tilde) grows."""
    p, _ = sol53_mid
    sols = [scale_to_unit_ball(p, shoot(p, et, 1e3)) for et in (1e-2, 3e-3)]
    vals = []
    for s in sols:
        op = build_mode_operator(p, s, 1)
        vals.append(eigenvalues_near_zero(op)[1])
    assert vals[1] < vals[0]  # shrinks toward the kernel as eps decreases


def test_certificate_structure(sol53_mid):
    p, sol = sol53_mid
    ok, rep = nondegeneracy_certificate(p, sol, ell_max=4, tol=1e-3)
    assert ok
    assert set(rep["per_mode"]) == {0, 1, 2, 3, 4}
    assert rep["per_mode"][0]["n_negative"] == 1
    assert rep["min_abs_overall"] >= 1e-3
    assert rep["monotone_from_ell2"]
    with pytest.raises(DomainError):
        nondegeneracy_certificate(p, sol, ell_max=1)


def test_certificate_rejects_synthetic_degeneracy(sol53_mid):
    """Scaling down the potential drags an eigenvalue through zero; the
    certificate must notice once the distance falls below its tolerance."""
    p, sol = sol53_mid
    op1 = build_mode_operator(p, sol, 1, potential_scale=1.0)
    nearest = eigenvalues_near_zero(op1)[1]
    ok, rep = nondegeneracy_certificate(p, sol, ell_max=2, tol=10.0 * nearest)
    assert not ok
    assert rep["min_abs_overall"] < 10.0 * nearest


def test_ell0_spectrum_converges_at_large_eps_tilde():
    """For eps_tilde >> 1 the eps_tilde u^{q-1} term dominates and the
    unit-ball eigenvalues settle with O(1/eps_tilde) corrections, once both
    series starts scale with the profile's length eps_tilde^{-1/2}."""
    p = Params(4, 3.0)
    (b6, a6, m6), (b8, a8, m8) = [
        eigenvalues_near_zero(build_mode_operator(p, solution_at(p, et), 0))
        for et in (1e6, 1e8)
    ]
    assert m6 == m8 == 1
    assert b8 == pytest.approx(b6, rel=1e-5)
    assert a8 == pytest.approx(a6, rel=1e-5)
