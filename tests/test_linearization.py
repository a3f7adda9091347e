"""Spectrum of the mode operators by Sturm shooting: Morse index, the
small positive eigenvalue of the translation mode, and the certificate."""

import functools
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import jn_zeros, spherical_jn

import bnlab.linearization
import bnlab.series
from bnlab import (
    DomainError,
    IntegrationFailureError,
    Params,
    build_mode_operator,
    default_grid,
    dop853,
    eigenvalues_near_zero,
    nondegeneracy_certificate,
    solution_at,
)
from bnlab.cli import EXIT_NUMERICAL, main
from bnlab.linearization import _bessel_zero, _shoot_mode


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
    assert (_shoot_mode(op, lo)[1] // math.pi
            <= _shoot_mode(op, hi)[1] // math.pi)


def _count(op, nu):
    return int(_shoot_mode(op, nu)[1] // math.pi)


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
    diff = (_shoot_mode(op, nu + h)[1]
            - _shoot_mode(op, nu - h)[1]) / (2.0 * h)
    assert _shoot_mode(op, nu)[2] == pytest.approx(diff, rel=1e-6)


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
    ref = brentq(lambda nu: _shoot_mode(op, nu)[1] - math.pi,
                 below * (1.0 + 1e-6), below * (1.0 - 1e-6),
                 xtol=1e-18, rtol=1e-13)
    assert below == pytest.approx(ref, rel=1e-8)


def test_window_count_at_long_scaled_radius():
    """At N = 3, q = 5, eps_tilde = 1e-4 (R_tilde = 8.7e4) the Morse
    eigenvalue lies at nu of about -1.2, behind a forbidden tail about 1e5
    long.  The count at the window edge nu_w = -|nu_above| sees no
    eigenvalue in [nu_w, 0) without crossing that tail: sqrt(-nu_w)
    R_tilde = sqrt(|lambda_above|) = 1.6.  lambda_above = 2.4682590 does
    not depend on where the shoot starts (2.46825897 also from a two-term
    start at s0 = 1e-6; 2.4683552 from one at 1e-3, which mixes in the
    singular solution s^{2-N})."""
    p = Params(3, 5.0)
    op = build_mode_operator(p, solution_at(p, 1e-4), 0)
    below, above, m0 = eigenvalues_near_zero(op)
    assert below is None and m0 == 1
    assert above == pytest.approx(2.4682590, rel=1e-6)
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
    assert _shoot_mode(op, -0.5)[1] == pytest.approx(3.14160898027218,
                                                     abs=1e-9)


def test_ell1_plateau_holds_at_the_deep_end():
    """mu^2 lambda_1 tends to a constant as eps -> 0.  At N = 4 it stays
    within 1e-4 of its eps_tilde = 1e-5 value down to 1e-8, where
    nu = lambda_1 / R_tilde^2 is 3.3e-17 (2.6e-5 measured at 1.5e-7, 1e-7
    and 1e-8, the gap of the 1e-5 value to the limit; the Pruefer search
    was 8% off at 1e-7 and a factor 9.7 at 1e-8)."""
    p = Params(4, 3.0)

    def plateau(et):
        sol = solution_at(p, et)
        return sol.mu**2 * eigenvalues_near_zero(
            build_mode_operator(p, sol, 1))[1]

    ref = plateau(1e-5)
    for et in (1.5e-7, 1e-7, 1e-8):
        assert plateau(et) / ref == pytest.approx(1.0, abs=1e-4), et


@pytest.mark.parametrize("cell", [(3, 5.0, 1e-5), (4, 3.0, 1e-8),
                                  (5, 3.0, 1e-8), (3, 5.0, 1e-8)], ids=str)
def test_kernel_count_brackets_lambda1_at_the_deep_end(cell):
    """The ell = 1 kernel shoot counts the zeros of v = c u' + nu y
    exactly where nu is tiny (1e-26 at N = 3, eps_tilde = 1e-8): none at
    nu = 0 and at lambda_1 / 2, one at 2 lambda_1.  The Pruefer count reads
    0 at 2 lambda_1 at each of these cells, as its forward shoot loses the
    decaying kernel u' ~ s^{1-N} in the tail."""
    N, q, et = cell
    p = Params(N, q)
    op = build_mode_operator(p, solution_at(p, et), 1)
    nu1 = eigenvalues_near_zero(op)[1] / op.R_tilde**2
    counts = [bnlab.linearization._shoot_kernel(op, f * nu1)[0]
              for f in (0.0, 0.5, 2.0)]
    assert counts == [0, 0, 1]


def test_kernel_and_pruefer_lambda1_agree_where_resolved():
    """Where the Pruefer shoot resolves lambda_1 (nu >= _NU_RESOLVED), the
    kernel shoot's value agrees with its root to within 1e-15 in nu, the
    Pruefer shoot's own absolute error (3e-16 to 6e-16 measured).  The
    Pruefer root is polished by two Newton steps on _shoot_mode."""
    for N, q, et in [(4, 3.0, 1e-2), (4, 3.0, 1e-4), (5, 3.0, 1e-2),
                     (5, 3.0, 1e-4), (3, 5.0, 1e-2), (3, 5.0, 1e-3),
                     (6, 2.6, 1e-2), (7, 2.4, 1e-2)]:
        p = Params(N, q)
        op = build_mode_operator(p, solution_at(p, et), 1)
        nu_kernel = eigenvalues_near_zero(op)[1] / op.R_tilde**2
        nu = nu_kernel
        for _ in range(2):
            _, th, dth = _shoot_mode(op, nu)
            nu -= (th - math.pi) / dth
        assert nu >= bnlab.linearization._NU_RESOLVED
        assert abs(nu_kernel - nu) <= 1e-15, (N, q, et)


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
        assert _shoot_mode(op, mid)[1] // math.pi == k


def test_bessel_zero_matches_tabulated_zeros():
    """j_{m,1} from the proven bracket: at integer m = 2..40 it matches
    scipy's jn_zeros, and at half-integer m = k + 1/2 the first zero of the
    spherical Bessel function j_k, which lies between j_{k,1} and
    j_{k+1,1} as j_{m,1} grows with m."""
    for m in range(2, 41):
        assert _bessel_zero(float(m)) == pytest.approx(jn_zeros(m, 1)[0],
                                                       rel=1e-15)
    for k in range(2, 40):
        ref = brentq(lambda x: spherical_jn(k, x), jn_zeros(k, 1)[0],
                     jn_zeros(k + 1, 1)[0], xtol=1e-15, rtol=1e-15)
        assert _bessel_zero(k + 0.5) == pytest.approx(ref, rel=1e-15)
    assert _bessel_zero(2.5) == pytest.approx(5.763459196894550, rel=1e-15)


def test_dirichlet_bound_applies_to_ell_ge2_with_positive_potential(
        sol53_mid):
    """The bound is j_{m,1}^2, m = ell + N/2 - 1, for ell >= 2 and
    potential_scale > 0; at potential_scale 0 it is the root itself, and it
    is not used."""
    p, sol = sol53_mid
    bound = bnlab.linearization._dirichlet_bound
    assert bound(build_mode_operator(p, sol, 3)) == pytest.approx(
        _bessel_zero(4.5) ** 2, rel=1e-15)
    assert bound(build_mode_operator(p, sol, 1)) is None
    for scale in (0.0, -1.0):
        assert bound(build_mode_operator(p, sol, 2,
                                         potential_scale=scale)) is None


@pytest.mark.parametrize("cell", [(3, 5.0), (4, 3.0), (5, 3.0), (6, 2.6),
                                  (7, 2.4)], ids=str)
def test_search_from_the_dirichlet_bound(cell):
    """For ell = 2..4 at eps_tilde = 1e-2, 1e-5 and 1e-8 the count at
    nu_j = j_{m,1}^2 / R_tilde^2 is m0 + 1 = 1, the eigenvalue lies below
    j_{m,1}^2, and where it is resolved it agrees to within 1e-11 relative
    with the same search started at nu = 0 (3.7e-12 measured)."""
    lin = bnlab.linearization
    p = Params(*cell)
    for et in (1e-2, 1e-5, 1e-8):
        sol = solution_at(p, et)
        for ell in (2, 3, 4):
            op = build_mode_operator(p, sol, ell)
            j2 = lin._dirichlet_bound(op)
            R2 = op.R_tilde**2
            assert _count(op, 0.0) == 0
            assert _count(op, j2 / R2) == 1, (cell, et, ell)
            lam = eigenvalues_near_zero(op)[1]
            assert lam < j2, (cell, et, ell)
            if lam / R2 < lin._NU_RESOLVED:
                continue
            angle = functools.partial(lin._shoot_mode, op)
            ref = lin._eigenvalue_by_index(op, angle, 0, 0.0, math.pi,
                                           lin._NU_RESOLVED) * R2
            assert lam == pytest.approx(ref, rel=1e-11), (cell, et, ell)


def test_ell_ge2_reaches_the_bound_at_the_deep_end():
    """At N = 3, q = 5, eps_tilde = 1e-8 the modes ell = 2..4 lie about
    229 / R_tilde^2 = 3e-16 relative below j_{m,1}^2.  The search from the
    bound stays within 1e-12 of it (1.2e-14 measured); from nu = 0 it
    ended 7.5e-10 off, by bisection where the angle is rough."""
    p = Params(3, 5.0)
    sol = solution_at(p, 1e-8)
    for ell in (2, 3, 4):
        op = build_mode_operator(p, sol, ell)
        lam = eigenvalues_near_zero(op)[1]
        j2 = bnlab.linearization._dirichlet_bound(op)
        assert abs(lam / j2 - 1.0) <= 1e-12, ell


@pytest.fixture
def shots(monkeypatch):
    """The nu of every mode shoot made while the test runs, by shoot: the
    Pruefer shoot and the ell = 1 kernel shoot."""
    shots = {"_shoot_mode": [], "_shoot_kernel": []}
    for name, nus in shots.items():
        real = getattr(bnlab.linearization, name)

        def logged(op, nu, real=real, nus=nus):
            nus.append(nu)
            return real(op, nu)

        monkeypatch.setattr(bnlab.linearization, name, logged)
    return shots


@pytest.mark.parametrize("ell", [1, 2])
def test_mode_search_in_few_shoots(sol53_mid, shots, ell):
    """Newton on the carried nu-derivative finds the eigenvalue above zero
    in a few shoots, counting the one at nu = 0, and no nu is shot twice:
    ell = 1 on the kernel shoot alone (3 measured), ell = 2 on the Pruefer
    angle from the Dirichlet bound (4 measured, 7 from nu = 0)."""
    shoot, budget = {1: ("_shoot_kernel", 5), 2: ("_shoot_mode", 5)}[ell]
    p, sol = sol53_mid
    eigenvalues_near_zero(build_mode_operator(p, sol, ell))
    nus = shots.pop(shoot)
    assert 1 <= len(nus) <= budget
    assert len(set(nus)) == len(nus)
    assert not any(shots.values())


def test_search_returns_an_exact_root(sol53_mid):
    """A shoot whose residual is exactly zero ends the search there, with
    no further shoot.  A kernel shoot hit v(R_tilde) = 0.0 so at N = 4,
    eps_tilde = 1.24e-6."""
    op = build_mode_operator(*sol53_mid, 1)
    nus = []

    def shoot(nu):
        nus.append(nu)
        return int(nu > 1.0), nu - 1.0, 1.0

    assert bnlab.linearization._eigenvalue_by_index(
        op, shoot, 0, 0.0, 0.0, 0.0) == 1.0
    assert nus == [0.0, 1.0]


def test_ell0_search_in_few_shoots(sol53_mid, shots):
    """ell = 0 costs the search above zero plus one shoot: the count at the
    window edge -|nu_above|, which finds no eigenvalue in the window.  No nu
    is shot twice and none lies below the window."""
    p, sol = sol53_mid
    op = build_mode_operator(p, sol, 0)
    below, above, m0 = eigenvalues_near_zero(op)
    assert below is None and m0 == 1
    nus = shots["_shoot_mode"]
    assert len(nus) <= 8 + 1
    assert len(set(nus)) == len(nus)
    # above = nu_above R_tilde^2 is rounded, so -above / R_tilde^2 is the
    # window edge -|nu_above| only to a few ulps
    assert nus[-1] == min(nus)
    assert nus[-1] == pytest.approx(-above / op.R_tilde**2,
                                    rel=4 * sys.float_info.epsilon)


def test_certificate_shoots_no_deep_nu(monkeypatch):
    """At N = 3, q = 5, eps_tilde = 1e-5 (R_tilde = 8.7e5) no shoot of the
    certificate goes below lambda = -100: the Morse eigenvalue (nu of about
    -1.2, behind a forbidden tail about 1e6 long) is not searched.  The whole
    certificate takes at most 13 mode shoots (11 measured: 6 for ell = 0,
    3 kernel shoots for ell = 1 and 2 for ell = 2, whose search starts at
    the Dirichlet bound), at most 9 of them for ell = 0."""
    p = Params(3, 5.0)
    sol = solution_at(p, 1e-5)
    ells = []
    for name in ("_shoot_mode", "_shoot_kernel"):
        real = getattr(bnlab.linearization, name)

        def guarded(op, nu, real=real):
            if nu < -100.0 / op.R_tilde**2:
                pytest.fail(f"mode shoot at lambda = {nu * op.R_tilde**2}")
            ells.append(op.ell)
            return real(op, nu)

        monkeypatch.setattr(bnlab.linearization, name, guarded)
    _, rep = nondegeneracy_certificate(p, sol, ell_max=2)
    assert [m["n_negative"] for m in rep["per_mode"].values()] == [1, 0, 0]
    assert rep["per_mode"][0]["nearest_below"] is None
    assert len(ells) <= 13 and ells.count(0) <= 9


def _extra_node_below(op, nu):
    # one node at nu = 0, but two at every nu < 0: not monotone
    angle = (2.5 if nu < 0.0 else 1.5) * math.pi + max(nu, 0.0)
    return int(angle // math.pi), angle, float(nu > 0.0)


def _always_negative(op):
    # an eigenvalue below zero in every mode: no mode covers the higher ones
    return None, 1.0, 1


@pytest.mark.parametrize("name,fault", [
    # the count at the window edge exceeds the count at zero
    ("_shoot_mode", _extra_node_below),
    # too few iterations for the Newton search to reach its tolerance
    ("_SEARCH_MAXITER", 3),
    # an unreachable tolerance: DOP853 stops with return code -3
    ("_MODE_RTOL", 1e-30),
    # a Dirichlet bound below the ell = 2 eigenvalue: its count is 0
    ("_bessel_zero", lambda m: 0.9 * _bessel_zero(m)),
    # too few terms for the series start to converge
    ("SERIES_TERMS", 3),
    # no mode within _SEARCH_MAXITER of ell_max covers the higher ones
    ("eigenvalues_near_zero", _always_negative),
])
def test_failed_search_exits_4_with_one_line(monkeypatch, capsys, name,
                                             fault):
    """A Sturm count that falls as nu grows, a root solve that does not
    converge, a failed mode integration, a count at the Dirichlet bound
    that does not exceed the count at zero, a series start that does not
    converge and a certificate that finds no covering mode raise instead
    of returning a number, and the CLI reports them in one line (the
    integrator's own warning is not printed)."""
    module = bnlab.linearization
    if name == "SERIES_TERMS":
        # the term cap lives in bnlab.series; with the profile series
        # cached, the mode series is the one that fails
        solution_at(Params(5, 3.0), 1e-2)
        module = bnlab.series
    monkeypatch.setattr(module, name, fault)
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
def test_default_sweep_certificates_within_shoot_budget(request, shots,
                                                        cell):
    """The certificates of a default sweep (at eps_tilde = 1e-2, 1e-5 and
    1e-8; ell = 0, and ell = 1, which covers every higher mode) take at
    most 30 mode shoots per cell, Pruefer and kernel shoots together (23 to
    25 measured, 8 of them for ell = 1; 46 to 63 when they also searched
    ell = 2 to 4).  No verdict is asserted: the deep points are not
    certified yet, as the fixed tol meets lambda_1 ~ mu^-2."""
    p = Params(*cell)
    fixture = {(4, 3.0): "sweep43", (5, 3.0): "sweep53"}.get(cell)
    if fixture is None:
        sols = [solution_at(p, et) for et in default_grid(25)[[0, 12, 24]]]
    else:
        sols = request.getfixturevalue(fixture)[1][::12]
    assert [s.eps_tilde for s in sols] == pytest.approx([1e-2, 1e-5, 1e-8])
    for nus in shots.values():
        nus.clear()
    for sol in sols:
        rep = nondegeneracy_certificate(p, sol)[1]
        assert list(rep["per_mode"]) == [0, 1]
    assert sum(map(len, shots.values())) <= 30


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
    assert list(rep["per_mode"]) == [0, 1, 2, 3, 4]
    assert rep["per_mode"][0]["n_negative"] == 1
    assert rep["per_mode"][4]["n_negative"] == 0
    assert rep["min_abs_overall"] >= 1e-3
    with pytest.raises(DomainError):
        nondegeneracy_certificate(p, sol, ell_max=-1)


def test_certificate_searches_up_to_the_covering_mode(sol53_mid,
                                                      monkeypatch):
    """Modes with an eigenvalue below zero cover nothing, so the search
    goes on past them to the first mode without one, here ell = 3, whose
    distance below tol fails the verdict; a search that stopped at ell = 1
    would pass.  No mode above the covering one is searched."""
    p, sol = sol53_mid
    near = {0: (5.0, 1), 1: (1.0, 1), 2: (50.0, 1), 3: (1e-4, 0)}
    monkeypatch.setattr(bnlab.linearization, "eigenvalues_near_zero",
                        lambda op: (None, *near[op.ell]))
    ok, rep = nondegeneracy_certificate(p, sol, ell_max=0, tol=1e-3)
    assert list(rep["per_mode"]) == [0, 1, 2, 3]
    assert rep["per_mode"][3]["n_negative"] == 0
    assert rep["resolved"] and rep["min_abs_overall"] == 1e-4
    assert not ok


@pytest.mark.parametrize("scale,cover", [(3.0, 4), (6.0, 6)])
def test_certificate_cover_matches_a_wider_search(sol53_mid, scale, cover):
    """A large potential_scale puts eigenvalues below zero in modes ell >= 1:
    from ell_max = 0 the certificate searches up to the first mode without
    one, and its verdict and distance are those of the search to
    ell_max = 6."""
    p, sol = sol53_mid
    ok, rep = nondegeneracy_certificate(p, sol, ell_max=0,
                                        potential_scale=scale)
    assert list(rep["per_mode"]) == list(range(cover + 1))
    assert rep["per_mode"][cover]["n_negative"] == 0
    assert rep["per_mode"][cover - 1]["n_negative"] > 0
    ok6, rep6 = nondegeneracy_certificate(p, sol, ell_max=6,
                                          potential_scale=scale)
    assert ok == ok6
    assert rep["min_abs_overall"] == rep6["min_abs_overall"]


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


def test_mode_operator_refuses_q_below_2():
    """Below q = 2 the potential (q-1) eps u^{q-2} is unbounded at the
    boundary zero of u, where a mode shoot's right-hand side would raise
    inside the integrator, so the operator is refused before any shoot.
    At q = 2 the certificate still returns."""
    p = Params(4, 1.9)
    with pytest.raises(DomainError, match="q >= 2"):
        build_mode_operator(p, solution_at(p, 1e-2), 0)
    p = Params(4, 2.0)
    assert nondegeneracy_certificate(p, solution_at(p, 1e-2))[0]


@pytest.fixture
def scale_start(monkeypatch):
    """Scales the start radius of the mode shoots, and with it the radius at
    which the shared profile series has decayed; the series are recomputed
    on both sides."""
    series = bnlab.series

    def scale(factor):
        monkeypatch.setattr(series, "_START", factor * series._START)
        series.profile_series.cache_clear()

    yield scale
    series.profile_series.cache_clear()


@pytest.mark.parametrize("cell,tol", [((3, 5.0, 1e-6), 1e-7),
                                      ((4, 3.0, 1e-5), 2e-9)], ids=str)
def test_ell0_eigenvalue_does_not_depend_on_the_start(scale_start, cell,
                                                      tol):
    """The series start is exact to rounding, so moving it from
    s0 = 0.5 to 0.1 (in units of the profile's length) moves lambda_0 by
    integration noise only (1.2e-8 and 7e-11 measured).  The old two-term
    start at 1e-3 mixed in the singular solution s^{2-N}: moving it to
    1e-4 moved lambda_0 by 3.9e-3 and 1.4e-8."""
    N, q, et = cell
    p = Params(N, q)
    op = build_mode_operator(p, solution_at(p, et), 0)
    lam = eigenvalues_near_zero(op)[1]
    scale_start(0.2)
    assert abs(eigenvalues_near_zero(op)[1] - lam) <= tol


def test_n3_dilation_eigenvalue_gap_shrinks_tenfold_per_decade():
    """At N = 3 lambda_0 tends to k^2 from above, k the root in (0, pi) of
    k cot k = 5 - q (ROADMAP item 3's hypothesis), and its relative gap
    shrinks like eps_tilde: the gap at 1e-4 over the gap at 1e-5 reads
    9.84, 9.99 and 9.94 at q = 4.6, 5 and 5.7.  From the old start at
    1e-3 it read 3.1, 0.91 and 0.14, as the start error grew with R_tilde."""
    for q in (4.6, 5.0, 5.7):
        k = brentq(lambda k: k / math.tan(k) - (5.0 - q), 1e-9,
                   math.pi - 1e-9)
        p = Params(3, q)
        gaps = [eigenvalues_near_zero(build_mode_operator(
            p, solution_at(p, et), 0))[1] / k**2 - 1.0 for et in (1e-4, 1e-5)]
        assert min(gaps) > 0.0, q
        assert 8.0 <= gaps[0] / gaps[1] <= 12.0, (q, gaps)


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_mode_shoot_rhs_call_budget(sol53_mid, monkeypatch, ell):
    """One shoot at nu = 0 from the series start at s0 = 0.5 takes at most
    3300 right-hand-side calls at N = 5, eps_tilde = 1e-2, counted by a
    wrapper of the right-hand side (2949, 2563 and 2612 measured for
    ell = 0, 1, 2, the kernel shoot for ell = 1; 4283, 4577 and 4626 from
    the start at 1e-3)."""
    lin = bnlab.linearization
    op = build_mode_operator(*sol53_mid, ell)
    name, shoot = (("_kernel_rhs", lin._shoot_kernel) if ell == 1
                   else ("_mode_rhs", _shoot_mode))
    rhs, calls = getattr(lin, name), []

    def counted(*args):
        calls.append(None)
        return rhs(*args)

    monkeypatch.setattr(lin, name, counted)
    shoot(op, 0.0)
    assert 0 < len(calls) <= 3300


@pytest.fixture(scope="module")
def sol43_large():
    p = Params(4, 3.0)
    return p, solution_at(p, 1e6)


@pytest.mark.parametrize("cell", ["5,3,1e-2", "4,3,1e-5", "4,3,1e6"])
@pytest.mark.parametrize("ell,lam", [(0, -10.0), (0, 10.0), (1, 10.0),
                                     (2, 10.0), ("kernel", 1.0)], ids=str)
def test_series_start_matches_integration(sol53_mid, sol43_deep,
                                          sol43_large, scale_start, cell,
                                          ell, lam):
    """The series state at s0, (u, u', theta, theta_nu) of the Pruefer
    shoot or (u, u', y, y', w, w') of the ell = 1 kernel shoot, matches
    an integration of the same equations from a start at s0 / 1000 to
    within 1e-12 relative; eps_tilde = 1e6 checks the start in units of
    the profile's length eps_tilde^{-1/2}."""
    lin = bnlab.linearization
    p, sol = {"5,3,1e-2": sol53_mid, "4,3,1e-5": sol43_deep,
              "4,3,1e6": sol43_large}[cell]
    op = build_mode_operator(p, sol, 1 if ell == "kernel" else ell)
    nu = lam / op.R_tilde**2
    if ell == "kernel":
        s0, c, ref = lin._kernel_start(op, nu)
        scale_start(1e-3)
        s1, _, y1 = lin._kernel_start(op, nu)
        y, _ = dop853.run(lin._kernel_rhs, lin._kernel_args(op, nu, c), y1,
                          s1, s0, lin._MODE_RTOL, 1e-300)
    else:
        # the shoot carries theta_nu + off; here off is theta_nu(s0), on
        # the scale of theta_nu, which is 6e-9 at eps_tilde = 1e6
        s0, ref = lin._mode_start(op, nu)
        off = ref[3]
        scale_start(1e-3)
        s1, y1 = lin._mode_start(op, nu)
        y, _ = dop853.run(lin._mode_rhs, lin._mode_args(op, nu, off),
                          (*y1[:3], y1[3] + off), s1, s0, lin._MODE_RTOL,
                          1e-160)
        y[3] -= off
    assert s1 == pytest.approx(1e-3 * s0, rel=1e-15)
    assert list(y) == pytest.approx(list(ref), rel=1e-12, abs=0.0)


def test_start_shrinks_where_the_mode_solution_oscillates(monkeypatch):
    """With the potential off at nu = 100 the mode solution oscillates with
    phase 10 s, so the start moves in from s0 = 0.5 to 2 / sqrt(nu) = 0.2,
    and the count on (0, 5) is the number of zeros of J_1 below 50, 15.
    Left at 0.5 the start would hold the first zero, j_{1,1} / 10 = 0.38,
    which it refuses with IntegrationFailureError."""
    lin = bnlab.linearization
    op = lin.ModeOperator(Params(4, 3.0), 0, 1e-2, 5.0, potential_scale=0.0)
    assert lin._start(op, 100.0)[0] == pytest.approx(0.2, rel=1e-15)
    assert _shoot_mode(op, 100.0)[1] // math.pi == sum(jn_zeros(1, 20) < 50)
    monkeypatch.setattr(bnlab.series, "_START_PHASE", math.inf)
    with pytest.raises(IntegrationFailureError, match="zero inside"):
        _shoot_mode(op, 100.0)
