"""Spectrum of the mode operators by Sturm shooting: Morse index, the
small positive eigenvalue of the translation mode, and the certificate."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import jn_zeros

import bnlab.linearization
from bnlab import (
    DomainError,
    Params,
    build_mode_operator,
    default_grid,
    eigenvalues_near_zero,
    nondegeneracy_certificate,
    solution_at,
)
from bnlab.cli import EXIT_NUMERICAL, main
from bnlab.linearization import _shoot_mode


@pytest.fixture(scope="module")
def sol53_mid():
    p = Params(5, 3.0)
    return p, solution_at(p, 1e-2)


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


def _count(op, nu):
    return int(_shoot_mode(op, nu)[0] // math.pi)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([("5,3,1e-2", 1.0), ("4,3,1e-5", 1.0),
                        ("5,3,1e-2", 1.2), ("4,3,1e-5", 1.2)]),
       st.floats(0.0, 1.0))
@example(case=("5,3,1e-2", 1.2), frac=1.0)
def test_count_constant_across_window(sol53_mid, sol43_deep, case, frac):
    """For ell = 0 no eigenvalue lies in [nu_w, 0), nu_w = -|nu_above|: the
    count of eigenvalues below nu equals the Morse index m0 = count(0) for
    every nu in that window, its lower edge included, so the search reports
    no eigenvalue below zero."""
    cell, scale = case
    p, sol = sol43_deep if cell == "4,3,1e-5" else sol53_mid
    op = build_mode_operator(p, sol, 0, potential_scale=scale)
    below, above, m0 = eigenvalues_near_zero(op)
    assert m0 >= 1 and below is None
    assert _count(op, -frac * abs(above) / op.R_tilde**2) == m0


@pytest.mark.parametrize("cell", ["5,3,1e-2", "4,3,1e-5"])
@pytest.mark.parametrize("ell,below", [(0, False), (1, False), (2, False),
                                       (0, True)])
def test_carried_nu_derivative_matches_central_difference(
        sol53_mid, sol43_deep, cell, ell, below):
    """The fourth state of the mode shoot is d theta / d nu: it matches a
    central difference of the angle at lambda = 10 and, for ell = 0, below
    zero at lambda = -10 (unit-ball units), as the search inside the window
    [-|above|, 0) uses it; both are away from the roots."""
    p, sol = sol43_deep if cell == "4,3,1e-5" else sol53_mid
    op = build_mode_operator(p, sol, ell)
    nu = (-10.0 if below else 10.0) / op.R_tilde**2
    h = 1e-5 * abs(nu)
    diff = (_shoot_mode(op, nu + h)[0]
            - _shoot_mode(op, nu - h)[0]) / (2.0 * h)
    assert _shoot_mode(op, nu)[1] == pytest.approx(diff, rel=1e-6)


def test_below_zero_eigenvalue_matches_tight_one_sided_root(sol53_mid):
    """With the potential scaled by 0.45 the ell = 0 Morse eigenvalue
    (lambda = -14.06) lies nearer to zero than the one above (22.32), so it
    is searched inside the window [-|above|, 0).  The Newton search
    converges superlinearly, so at the search tolerance its root is much
    closer to the tight root of the angle than the tolerance itself."""
    p, sol = sol53_mid
    op = build_mode_operator(p, sol, 0, potential_scale=0.45)
    below, above, m0 = eigenvalues_near_zero(op)
    assert m0 == 1 and -abs(above) <= below < 0.0
    below /= op.R_tilde**2
    ref = brentq(lambda nu: _shoot_mode(op, nu)[0] - math.pi,
                 below * (1.0 + 1e-6), below * (1.0 - 1e-6),
                 xtol=1e-18, rtol=1e-13)
    assert below == pytest.approx(ref, rel=1e-8)


def test_window_count_at_long_scaled_radius():
    """At N = 3, q = 5, eps_tilde = 1e-4 (R_tilde = 8.7e4) the Morse
    eigenvalue lies at nu of about -1.2, behind a forbidden tail about 1e5
    long.  The count at the window edge nu_w = -|nu_above| sees no
    eigenvalue in [nu_w, 0) without crossing that tail: sqrt(-nu_w)
    R_tilde = sqrt(|lambda_above|) = 1.6."""
    p = Params(3, 5.0)
    op = build_mode_operator(p, solution_at(p, 1e-4), 0)
    below, above, m0 = eigenvalues_near_zero(op)
    assert below is None and m0 == 1
    assert above == pytest.approx(2.4683552, rel=1e-6)
    assert _count(op, -above / op.R_tilde**2) == m0


@pytest.mark.parametrize("rtol", [None, 1e-13], ids=["default", "1e-13"])
def test_one_sided_shoot_crosses_long_forbidden_tail(monkeypatch, rtol):
    """At N = 3, q = 5, eps_tilde = 1e-4 (R_tilde = 8.7e4) a shoot at
    nu = -0.5 crosses a forbidden tail about 1e5 long, where the step is
    bound by stability.  DOP853's stiffness test stops it at rtol = 1e-13;
    with the test off it completes at both tolerances and counts the one
    eigenvalue below nu, the Morse eigenvalue."""
    if rtol is not None:
        monkeypatch.setattr(bnlab.linearization, "_MODE_RTOL", rtol)
    p = Params(3, 5.0)
    op = build_mode_operator(p, solution_at(p, 1e-4), 0)
    assert _shoot_mode(op, -0.5)[0] == pytest.approx(3.14160898027218,
                                                     abs=1e-9)


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


@pytest.fixture
def shot_nus(monkeypatch):
    """The nu of every mode shoot made while the test runs."""
    nus = []
    real = bnlab.linearization._shoot_mode

    def logged(op, nu):
        nus.append(nu)
        return real(op, nu)

    monkeypatch.setattr(bnlab.linearization, "_shoot_mode", logged)
    return nus


@pytest.mark.parametrize("ell", [1, 2])
def test_mode_search_in_few_shoots(sol53_mid, shot_nus, ell):
    """Newton on the Pruefer angle and its carried nu-derivative finds the
    eigenvalue above zero in a few shoots, counting the one at nu = 0, and
    no angle is integrated twice for the same nu."""
    p, sol = sol53_mid
    eigenvalues_near_zero(build_mode_operator(p, sol, ell))
    assert len(shot_nus) <= 8
    assert len(set(shot_nus)) == len(shot_nus)


def test_ell0_search_in_few_shoots(sol53_mid, shot_nus):
    """ell = 0 costs the search above zero plus one shoot: the count at the
    window edge -|nu_above|, which finds no eigenvalue in the window.  No nu
    is shot twice and none lies below the window."""
    p, sol = sol53_mid
    op = build_mode_operator(p, sol, 0)
    below, above, m0 = eigenvalues_near_zero(op)
    assert below is None and m0 == 1
    assert len(shot_nus) <= 8 + 1
    assert len(set(shot_nus)) == len(shot_nus)
    assert shot_nus[-1] == -above / op.R_tilde**2 == min(shot_nus)


def test_certificate_shoots_no_deep_nu(monkeypatch):
    """At N = 3, q = 5, eps_tilde = 1e-5 (R_tilde = 8.7e5) no shoot of the
    certificate goes below lambda = -100: the Morse eigenvalue (nu of about
    -1.2, behind a forbidden tail about 1e6 long) is not searched.  The whole
    certificate takes at most 40 mode shoots (34 measured; the unresolved
    ell = 1 eigenvalue ends by bisection), at most 9 of them for ell = 0."""
    p = Params(3, 5.0)
    sol = solution_at(p, 1e-5)
    ells = []
    real = bnlab.linearization._shoot_mode

    def guarded(op, nu):
        if nu < -100.0 / op.R_tilde**2:
            pytest.fail(f"mode shoot at lambda = {nu * op.R_tilde**2}")
        ells.append(op.ell)
        return real(op, nu)

    monkeypatch.setattr(bnlab.linearization, "_shoot_mode", guarded)
    _, rep = nondegeneracy_certificate(p, sol, ell_max=2)
    assert [m["n_negative"] for m in rep["per_mode"].values()] == [1, 0, 0]
    assert rep["per_mode"][0]["nearest_below"] is None
    assert len(ells) <= 40 and ells.count(0) <= 9


def _extra_node_below(op, nu):
    # one node at nu = 0, but two at every nu < 0: not monotone
    angle = (2.5 if nu < 0.0 else 1.5) * math.pi + max(nu, 0.0)
    return angle, float(nu > 0.0)


@pytest.mark.parametrize("name,fault", [
    # the count at the window edge exceeds the count at zero
    ("_shoot_mode", _extra_node_below),
    # too few iterations for the Newton search to reach its tolerance
    ("_SEARCH_MAXITER", 3),
    # an unreachable tolerance: DOP853 stops with return code -3
    ("_MODE_RTOL", 1e-30),
])
def test_failed_search_exits_4_with_one_line(monkeypatch, capsys, name,
                                             fault):
    """A Sturm count that falls as nu grows, a root solve that does not
    converge and a failed mode integration raise instead of returning a
    number, and the CLI reports them in one line (the integrator's own
    warning is not printed)."""
    monkeypatch.setattr(bnlab.linearization, name, fault)
    rc = main(["spectrum", "--n", "5", "--q", "3", "--eps-tilde", "1e-2",
               "--ell-max", "2"])
    assert rc == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure: ")
    assert err.count("\n") == 1


def test_mode_operator_validation(sol53_mid):
    """A negative ell, or (N, q) other than the solution's own, is refused:
    Params(4, 3) with a (5, 3) solution would certify a wrong lambda_1
    (0.0617 against 0.0253)."""
    p, sol = sol53_mid
    with pytest.raises(DomainError):
        build_mode_operator(p, sol, -1)
    with pytest.raises(DomainError):
        build_mode_operator(Params(4, 3.0), sol, 1)
    with pytest.raises(DomainError):
        nondegeneracy_certificate(Params(4, 3.0), sol)
    op = build_mode_operator(p, sol, 2)
    assert op.centrifugal == pytest.approx(2 * (2 + 3))


@pytest.mark.parametrize("cell", [(3, 5.0), (4, 3.0), (5, 3.0), (6, 2.6),
                                  (7, 2.4)], ids=str)
def test_default_sweep_certificates_within_shoot_budget(request, shot_nus,
                                                        cell):
    """The certificates of a default sweep (ell_max = 4 at eps_tilde = 1e-2,
    1e-5 and 1e-8) take at most 130 mode shoots per cell (104 to 119
    measured).  No verdict is asserted: the deep points are not certified
    yet, as the fixed tol meets lambda_1 ~ mu^-2."""
    p = Params(*cell)
    fixture = {(4, 3.0): "sweep43", (5, 3.0): "sweep53"}.get(cell)
    if fixture is None:
        sols = [solution_at(p, et) for et in default_grid(25)[[0, 12, 24]]]
    else:
        sols = request.getfixturevalue(fixture)[1][::12]
    assert [s.eps_tilde for s in sols] == pytest.approx([1e-2, 1e-5, 1e-8])
    shot_nus.clear()
    for sol in sols:
        nondegeneracy_certificate(p, sol)
    assert len(shot_nus) <= 130


def test_morse_index_one(sol53_mid):
    """One eigenvalue below zero, and none of them in [-above, 0)."""
    p, sol = sol53_mid
    op = build_mode_operator(p, sol, 0)
    below, above, m0 = eigenvalues_near_zero(op)
    assert m0 == 1
    assert below is None
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
    sols = [solution_at(p, et) for et in (1e-2, 3e-3)]
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


def test_certificate_requires_monotone_from_ell2(sol53_mid, monkeypatch):
    """Distances that fall from ell = 2 to ell = 3 leave ell > ell_max
    uncovered, so the verdict fails though every mode is far from zero."""
    p, sol = sol53_mid
    dist = {0: 5.0, 1: 1.0, 2: 50.0, 3: 40.0, 4: 60.0}
    monkeypatch.setattr(bnlab.linearization, "eigenvalues_near_zero",
                        lambda op: (None, dist[op.ell], 0))
    ok, rep = nondegeneracy_certificate(p, sol, ell_max=4, tol=1e-3)
    assert rep["resolved"] and rep["min_abs_overall"] == 1.0
    assert not rep["monotone_from_ell2"]
    assert not ok


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
    (_, a6, m6), (_, a8, m8) = [
        eigenvalues_near_zero(build_mode_operator(p, solution_at(p, et), 0))
        for et in (1e6, 1e8)
    ]
    assert m6 == m8 == 1
    assert a8 == pytest.approx(a6, rel=1e-5)
