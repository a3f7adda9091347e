"""Radial shooting solver: profile structure, conserved identities, and the
map from the shooting parameter to the physical perturbation strength."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import bnlab.dop853
import bnlab.series
import bnlab.solver
from bnlab import (
    DomainError,
    FitFailureError,
    IntegrationFailureError,
    Params,
    UnreachableEpsError,
    branch_map,
    default_grid,
    shoot,
    sobolev_sn2_exact,
    solution_at,
    solve_for_eps,
    sweep_with_solutions,
)
from bnlab.bubbles import normalized_bubble_r2
from bnlab.solver import _LOG_ET_SPAN, _estimate_r_max


@pytest.fixture(scope="module")
def sol43():
    p = Params(4, 3.0)
    return p, solution_at(p, 1e-3)


def test_shoot_finds_first_zero():
    p = Params(4, 3.0)
    s = shoot(p, 1e-2)
    assert s.first_zero is not None
    assert s.first_zero > 10.0
    assert s.du_at_zero < 0.0


def test_profile_monotone_decreasing(sol43):
    _, sol = sol43
    _, u, _ = sol.profile()
    assert u[0] == pytest.approx(sol.mu, rel=1e-12)
    assert abs(u[-1]) < 1e-10
    assert np.all(np.diff(u) < 0)


def test_profile_eval_consistency(sol43):
    _, sol = sol43
    r = np.array([0.25, 0.5, 0.75])
    u, _ = sol.eval_unit(r)
    profile_r, profile_u, _ = sol.profile()
    idx = (r * (len(profile_r) - 1)).astype(int)
    assert np.allclose(u, profile_u[idx], rtol=1e-9)


def test_scaling_relations(sol43):
    p, sol = sol43
    assert sol.mu == pytest.approx(sol.R_tilde ** ((p.N - 2.0) / 2.0), rel=1e-12)
    power = (2.0 * p.N - (p.N - 2.0) * p.q) / 2.0
    assert sol.eps == pytest.approx(sol.eps_tilde * sol.R_tilde**power, rel=1e-12)


def test_identity_residuals(sol43):
    _, sol = sol43
    assert sol.nehari_residual <= 1e-10
    assert sol.pohozaev_residual <= 1e-8


def test_energy_below_sobolev_level(sol43):
    p, sol = sol43
    assert 0.0 < sol.energy < sobolev_sn2_exact(p.N) / p.N


def test_pde_residual_on_profile(sol43):
    """Finite-difference check of -u'' - (N-1)/r u' = u^{2*-1} + eps u^{q-1}."""
    p, sol = sol43
    r, u, _ = sol.profile()
    h = r[1] - r[0]
    i = np.arange(100, 3000, 250)
    lap = (u[i + 1] - 2 * u[i] + u[i - 1]) / h**2 + (p.N - 1) / r[i] * (
        u[i + 1] - u[i - 1]
    ) / (2 * h)
    rhs = u[i] ** (p.two_star - 1.0) + sol.eps * u[i] ** (p.q - 1.0)
    assert np.max(np.abs(lap + rhs) / rhs) < 1e-3


def test_solve_for_eps_roundtrip():
    p = Params(5, 3.0)
    sol = solve_for_eps(p, 0.05)
    assert sol.eps == pytest.approx(0.05, rel=1e-7)
    assert sol.nehari_residual <= 1e-10


@pytest.fixture
def shoot_calls(monkeypatch):
    """The eps_tilde of every shoot that bnlab.solver makes, in order."""
    calls = []
    real = bnlab.solver.shoot

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(bnlab.solver, "shoot", counting)
    return calls


def test_solve_for_eps_unreachable(shoot_calls):
    """A target beyond eps at an end of the eps_tilde span is reported, with
    that end, after at most two shoots; a cell outside the regime before
    any shoot."""
    for eps, end in ((1e9, "100"), (1e-30, "1e-14")):
        shoot_calls.clear()
        with pytest.raises(UnreachableEpsError, match=f"eps_tilde={end} "):
            solve_for_eps(Params(4, 3.0), eps)
        assert len(shoot_calls) <= 2
    shoot_calls.clear()
    with pytest.raises(DomainError):
        solve_for_eps(Params(3, 3.0), 1e-3)
    assert shoot_calls == []


@pytest.fixture
def start_at(monkeypatch):
    """Moves the series start of the base shoot to start * _length_scale;
    the profile series, whose length is fixed by the start, are recomputed
    on both sides."""
    series = bnlab.series

    def move(start):
        monkeypatch.setattr(series, "_START", start)
        series.profile_series.cache_clear()

    yield move
    series.profile_series.cache_clear()


_START_CELLS = [(N, q, et) for N, q in ((3, 5.0), (4, 3.0), (5, 3.0))
                for et in (1e2, 1e-2, 1e-8)]


def test_series_start_matches_integration(start_at):
    """Shoots started from the profile series at s0 = 0.25 L and 0.5 L agree
    on the first zero and the quadratures to 1e-11 (4e-13 measured): the
    series is exact to rounding where the integration takes over."""
    def outputs(N, q, et):
        s = shoot(Params(N, q), et)
        return [s.first_zero, s.grad2, s.mass_crit, s.mass_q, s.du_at_zero]

    start_at(0.5)
    ref = {cell: outputs(*cell) for cell in _START_CELLS}
    start_at(0.25)
    for cell in _START_CELLS:
        np.testing.assert_allclose(outputs(*cell), ref[cell], rtol=1e-11,
                                   err_msg=str(cell))


def test_deviation_series_does_not_cancel():
    """At eps_tilde = 1e-12 the deviation's first coefficients are the
    closed forms -eps_tilde / (2N) and
    (eps_tilde (2* + q - 2) + eps_tilde^2 (q - 1)) / (8N(N+2)) to 1e-14:
    the difference recurrence carries b at its own size, where A - U would
    keep 4 digits of it."""
    et = 1e-12
    for N, q in ((3, 5.0), (4, 3.0), (5, 3.0)):
        p = Params(N, q)
        b = bnlab.series.profile_series(p, et).b
        c4 = (et * (p.two_star + q - 2.0) + et**2 * (q - 1.0)) / (
            8.0 * N * (N + 2.0))
        assert b[1] == pytest.approx(-et / (2.0 * N), rel=1e-14)
        assert b[2] == pytest.approx(c4, rel=1e-14)


def test_eval_is_continuous_at_the_series_start():
    """ShootResult.eval reads the series below s0 and the interpolant from
    s0 on.  Near s0 the two give (v, v') within 1e-13 of their largest
    values (3e-15 measured), and eval steps by rounding alone across s0."""
    for N, q, et in _START_CELLS:
        p = Params(N, q)
        s = shoot(p, et)
        s0 = bnlab.series._START * bnlab.series._length_scale(et)
        radii = s0 * (1.0 + np.array([-1e-3, -1e-12, 0.0, 1e-12, 1e-3]))
        err = np.abs(s.dense(radii) - np.array(
            bnlab.series.profile_series(p, et).deviation(radii)))
        scale = np.abs(s.dense(s.r_grid)).max(axis=1)
        assert np.all(err.max(axis=1) <= 1e-13 * scale), (N, q, et)
        for side in s.eval(np.array([np.nextafter(s0, 0.0), s0])):
            assert side[0] == pytest.approx(side[1], rel=1e-14)


def test_base_shoot_step_budget():
    """From the series start at s0 = 0.5 one shoot at N = 4, q = 3,
    eps_tilde = 1e-2 takes at most 90 steps (84 measured; 122 from the
    two-term start at 1e-4)."""
    assert len(shoot(Params(4, 3.0), 1e-2).r_grid) - 1 <= 90


def test_first_zero_search_ends_on_the_zero(monkeypatch):
    """The Newton search ends on the zero of u at the end of one DOP853
    integration over the crossing step, from the step's recorded start,
    within 4 ulp of a Brent solve of u = 0 on that same integration, and
    in at most 8 runs of it (2 to 7 measured over 360 shoots, N = 3 to 7,
    eps_tilde = 1e-14 to 1e8).  The last run is the one that ends on the
    zero.  At R_tilde = 8.7e6 (N = 4, eps_tilde = 10^-12.5) the last Newton
    step is below half an ulp of the zero, so the search returns the
    iterate it ran last."""
    runs, found = [], []
    real_run, real_crossing = bnlab.dop853.run, bnlab.solver._crossing

    def counting(fun, args, y0, s0, s1, *rest, **kwargs):
        runs.append(s1)
        return real_run(fun, args, y0, s0, s1, *rest, **kwargs)

    def checked(args, lo, hi, y_lo):
        runs.clear()
        with monkeypatch.context() as m:
            m.setattr(bnlab.dop853, "run", counting)
            zero, y, ends = real_crossing(args, lo, hi, y_lo)
        N = args[0]

        def u(s):
            v = y_lo[0] if s == lo else real_run(
                bnlab.solver._deviation_rhs, args, y_lo, lo, s,
                bnlab.solver._SHOOT_RTOL, bnlab.solver._QUAD_ATOL,
                first_step=s - lo)[0][0]
            return normalized_bubble_r2(N, s * s) + v / bnlab.solver._V_SCALE

        found.append((zero, brentq(u, lo, hi, xtol=4.0 * np.finfo(float).eps,
                                   rtol=4.0 * np.finfo(float).eps),
                      list(runs)))
        return zero, y, ends

    monkeypatch.setattr(bnlab.solver, "_crossing", checked)
    for N, q, et in [*_START_CELLS, (4, 3.0, 10.0**-12.5)]:
        s = shoot(Params(N, q), et)
        zero, ref, ran = found[-1]
        assert s.first_zero == zero == ran[-1] == s.r_grid[-1]
        assert len(ran) <= 8, (N, q, et)
        assert abs(zero - ref) <= 4.0 * np.spacing(ref), (N, q, et)


def test_first_zero_matches_a_tighter_shoot(monkeypatch):
    """The first zero and the boundary slope agree with a shoot at rtol
    1e-14 to 1e-11 and 1e-10 relative: 4.0e-13 and 5.5e-12 measured at
    (4, 3.5, 1e6), 3.4e-14 and 1.5e-12 at (5, 3, 10^-1.5).  At these cells
    a zero read off the crossing step's interpolant is off by 5.7e-10 and
    1.7e-9, and by 7.2e-11 and 2.9e-10."""
    cells = [(4, 3.5, 1e6), (5, 3.0, 10.0**-1.5)]
    got = {c: shoot(Params(*c[:2]), c[2]) for c in cells}
    monkeypatch.setattr(bnlab.solver, "_SHOOT_RTOL", 1e-14)
    for (N, q, et), s in got.items():
        ref = shoot(Params(N, q), et)
        assert s.first_zero == pytest.approx(ref.first_zero, rel=1e-11)
        assert s.du_at_zero == pytest.approx(ref.du_at_zero, rel=1e-10)


def test_interpolant_built_only_when_read(monkeypatch):
    """No shoot builds its interpolant: branch_map, which reads none,
    builds none, and solve_for_eps builds one, for the solution it
    returns, once its profile is read."""
    built = []

    class Counting(bnlab.solver._StackedDense):
        def __init__(self, rows, ts, y):
            built.append(len(ts))
            super().__init__(rows, ts, y)

    monkeypatch.setattr(bnlab.solver, "_StackedDense", Counting)
    branch_map(Params(3, 3.0))
    assert built == []
    sol = solve_for_eps(Params(4, 3.0), 1e-3)
    assert built == []
    sol.profile()
    sol.profile()
    assert built == [len(sol.shoot_result._steps[0])]


def test_first_zero_search_out_of_iterates_raises(monkeypatch):
    """A first-zero search that has not converged in _CROSSING_MAXITER
    iterates raises FitFailureError; it hands on no unpolished zero."""
    monkeypatch.setattr(bnlab.solver, "_CROSSING_MAXITER", 1)
    with pytest.raises(FitFailureError, match="first-zero search did not"):
        shoot(Params(4, 3.0), 1e-2)


# the regime across N = 3 to 7, and the branch-map cells outside it
_ZERO_CELLS = [(3, 5.0), (4, 3.0), (5, 3.0), (6, 2.6), (7, 2.4), (3, 2.2),
               (3, 3.0), (3, 4.0)]


@pytest.mark.parametrize("N,q", _ZERO_CELLS)
def test_every_shoot_ends_on_its_first_zero(N, q):
    """From eps_tilde = 1e-14 to 1e8 each shoot ends on a finite first zero
    inside its span, with finite quadratures and an outward slope there."""
    p = Params(N, q)
    for et in (1e-14, 1e-8, 1e-2, 1e2, 1e8):
        s = shoot(p, et)
        assert 0.0 < s.first_zero < _estimate_r_max(p, et), et
        assert np.isfinite([s.grad2, s.mass_crit, s.mass_q]).all(), et
        assert s.du_at_zero < 0.0, et


def test_shoot_that_reaches_its_span_end_raises(monkeypatch):
    """A shoot that reaches the end of its span without u <= 0 has lost its
    first zero, a numerical failure named by eps_tilde, (N, q) and span."""
    p = Params(4, 3.0)
    assert shoot(p, 1e-3).first_zero > 100.0
    monkeypatch.setattr(bnlab.solver, "_estimate_r_max", lambda p, et: 100.0)
    with pytest.raises(IntegrationFailureError, match=(
            r"^no first zero of eps_tilde=0\.001 at \(N=4, q=3\) within "
            r"the span 100$")):
        shoot(p, 1e-3)


def test_estimate_r_max_grows_as_eps_shrinks():
    p = Params(4, 3.0)
    assert _estimate_r_max(p, 1e-8) > _estimate_r_max(p, 1e-2)


def test_deeper_eps_means_larger_first_zero():
    p = Params(4, 3.0)
    z = [shoot(p, et).first_zero for et in (1e-2, 1e-3, 1e-4)]
    assert z[0] < z[1] < z[2]


_DEFAULT_CELLS = [(4, 3.0), (5, 3.0), (4, 3.9), (3, 5.7), (6, 2.9)]


@pytest.mark.parametrize("N,q", _DEFAULT_CELLS)
def test_identities_hold_on_default_sweep(N, q):
    """Nehari and Pohozaev to 1e-10 down to the deepest default point; the
    tail constant of the first zero is O(R_tilde^{2-N}), so an integration
    error amplified by R_tilde^{N-2} shows up here first."""
    records = sweep_with_solutions(Params(N, q), default_grid(25))[0]
    assert len(records) == 25
    assert max(r.nehari_residual for r in records) <= 1e-10
    assert max(r.pohozaev_residual for r in records) <= 1e-10


def test_solve_for_eps_deep_target_in_few_shoots(shoot_calls):
    """The blow-up-law seed puts a deep N=5 target within a few shoots."""
    sol = solve_for_eps(Params(5, 3.0), 1e-7)
    assert abs(sol.eps - 1e-7) <= 1e-8 * 1e-7
    assert len(shoot_calls) <= 8


@pytest.mark.parametrize("N,q,eps", [(4, 2.2, 0.986), (4, 2.2, 4.24),
                                     (4, 2.2, 12.7), (3, 4.3, 3.03),
                                     (3, 4.3, 38.2)])
def test_solve_for_eps_endpoint_cell_in_few_shoots(shoot_calls, N, q, eps):
    """Near q = max(2, 4/(N-2)) eps barely moves with eps_tilde and the
    secant strays from the law slope; the bracket it builds keeps it to a
    few shoots."""
    sol = solve_for_eps(Params(N, q), eps)
    assert abs(sol.eps - eps) <= 1e-8 * eps
    assert len(shoot_calls) <= 12


_REGIME_CELLS = [(4, 3.0), (5, 3.0), (3, 5.0), (3, 4.3), (4, 2.2),
                 (6, 2.6), (7, 2.2), (5, 2.1), (4, 3.9)]


@functools.cache
def _eps_at_span_ends(cell):
    p = Params(*cell)
    return tuple(solution_at(p, math.exp(x)).eps for x in _LOG_ET_SPAN)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(_REGIME_CELLS), st.floats(-15.0, 3.0))
def test_solve_for_eps_reaches_exactly_the_span(cell, log_target):
    """A target between eps at the two ends of the eps_tilde span is reached
    within tol, and any other is unreachable: eps increases with eps_tilde
    over the whole span."""
    eps = 10.0**log_target
    lo, hi = _eps_at_span_ends(cell)
    if lo <= eps <= hi:
        assert abs(solve_for_eps(Params(*cell), eps).eps - eps) <= 1e-8 * eps
    else:
        with pytest.raises(UnreachableEpsError):
            solve_for_eps(Params(*cell), eps)


def test_first_zero_stable_when_rtol_halved(monkeypatch):
    """At N=5, eps_tilde=1.78e-9 (R_tilde ~ 1e4) the first zero is
    converged in the integrator tolerance; the tolerance is read at each
    shoot, so the halved one takes more steps."""
    p = Params(5, 3.0)
    a = shoot(p, 1.78e-9)
    monkeypatch.setattr(bnlab.solver, "_SHOOT_RTOL",
                        bnlab.solver._SHOOT_RTOL / 2.0)
    b = shoot(p, 1.78e-9)
    assert len(b.r_grid) > len(a.r_grid)
    assert abs(a.first_zero / b.first_zero - 1.0) <= 1e-11


@settings(max_examples=5, deadline=None)
@given(st.floats(-0.05, 0.05))
def test_eps_smooth_and_increasing_on_deep_branch(shift):
    """Eleven eps_tilde 1e-9 apart (relative) near 1.78e-9 at N=5: log eps
    rises in equal steps; second differences sit at the rounding of log eps
    (a few 1e-15), far below the 8.3e-10 step."""
    p = Params(5, 3.0)
    ets = 1.78e-9 * (1.0 + shift) * (1.0 + 1e-9 * np.arange(-5, 6))
    log_eps = np.log([solution_at(p, float(et)).eps for et in ets])
    steps = np.diff(log_eps)
    assert np.all(steps > 0.0)
    assert np.max(np.abs(np.diff(steps))) <= 1e-12


@pytest.mark.parametrize("N,q", [(4, 3.0), (5, 3.0), (3, 5.0)])
def test_identities_hold_at_large_eps_tilde(N, q):
    """The profile's length scale is eps_tilde^{-1/2}; the series start
    scales with it, so the identities hold far above eps_tilde = 1."""
    for et in (1e4, 1e6, 1e7, 1e8):
        sol = solution_at(Params(N, q), et)
        assert sol.nehari_residual <= 1e-10
        assert sol.pohozaev_residual <= 1e-10


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(_DEFAULT_CELLS), st.floats(-6.0, 2.0))
def test_profile_obeys_scaling_law(cell, log_et):
    """u(r) = R^{(N-2)/2} u_tilde(R r) and u'(r) = R^{N/2} u_tilde'(R r)
    with R = R_tilde, between the unit-ball profile and the shoot."""
    p = Params(*cell)
    sol = solution_at(p, 10.0**log_et)
    r, u, du = sol.profile()
    ut, dut = sol.shoot_result.eval(sol.R_tilde * r[1:-1])
    half = (p.N - 2.0) / 2.0
    assert u[0] == pytest.approx(sol.mu, rel=1e-12)  # u_tilde(0) = 1
    np.testing.assert_allclose(u[1:-1], sol.R_tilde**half * ut, rtol=1e-10)
    np.testing.assert_allclose(du[1:-1], sol.R_tilde ** (half + 1.0) * dut,
                               rtol=1e-10)


# largest difference of ShootResult.dense from the reference below, per
# component, relative to its largest value: measured 6.9e-12 for v and
# 6.9e-11 for v' (N = 6, q = 2.6, eps_tilde = 1e-5), as close as solve_ivp's
# DOP853 interpolant of the same shoot comes
_REFERENCE_AGREEMENT = 1e-10
# largest difference of the profile series below s0 from the reference,
# relative to the reference at each radius: measured 2.3e-14
_SERIES_AGREEMENT = 1e-12


def _two_term_start(p, eps_tilde, s):
    """(v, v') at a small s from v = c2 s^2 + c4 s^4, the first two terms of
    the deviation's series in closed form, which leave out O(eps_tilde s^6)."""
    N, q = p.N, p.q
    c2 = -eps_tilde / (2.0 * N)
    c4 = (eps_tilde * (p.two_star + q - 2.0) + eps_tilde**2 * (q - 1.0)) / (
        8.0 * N * (N + 2.0))
    return c2 * s**2 + c4 * s**4, 2.0 * c2 * s + 4.0 * c4 * s**3


def _deviation_reference(p, eps_tilde, s1):
    """Where it starts, and (v, v') by scipy's solve_ivp DOP853 at rtol
    2.3e-14, just above its floor, from the two-term series at 1e-4 times
    the profile's length scale to s1: an integration independent of the
    shoot's, its series start included."""
    N, q, p2 = p.N, p.q, p.two_star

    def rhs(s, y):
        v, dv = y
        U = normalized_bubble_r2(N, s * s)
        x = v / U
        # u^{2*-1} - U^{2*-1} without cancellation; f(u) = 0 past the zero
        df = (U ** (p2 - 1.0) * math.expm1((p2 - 1.0) * math.log1p(x))
              if x > -1.0 else -U ** (p2 - 1.0))
        uq1 = max(U + v, 0.0) ** (q - 1.0)
        return (dv, -(N - 1.0) / s * dv - df - eps_tilde * uq1)

    s_start = 1e-4 * min(1.0, eps_tilde**-0.5)
    return s_start, solve_ivp(
        rhs, (s_start, s1), _two_term_start(p, eps_tilde, s_start),
        method="DOP853", rtol=2.3e-14, atol=1e-300, dense_output=True).sol


@pytest.mark.parametrize("N,q,et", [(3, 5.0, 1e-8), (5, 3.0, 10.0),
                                    (4, 3.0, 1e-3), (4, 3.0, 1e-8),
                                    (6, 2.6, 1e-5), (3, 5.0, 1e-14)])
def test_stacked_interpolant_matches_reference(monkeypatch, N, q, et):
    """ShootResult.dense, rebuilt from the step ends that the shoot
    records, returns the recorded (v, v') at every step end to rounding.
    Against an independent tighter integration from its own start, the
    profile series agrees at 200 random radii below s0 to
    _SERIES_AGREEMENT, and the interpolant at 2000 random radii from s0 to
    the first zero to _REFERENCE_AGREEMENT of max |v| and of max |v'|."""
    ends = []

    class Capture(bnlab.solver._StackedDense):
        def __init__(self, rows, ts, y):
            ends.append((ts, y))
            super().__init__(rows, ts, y)

    monkeypatch.setattr(bnlab.solver, "_StackedDense", Capture)
    p = Params(N, q)
    s = shoot(p, et)
    s.dense  # built on its first read
    ts, y = ends[0]
    # a step end is y_old + (y_new - y_old): two roundings of that size
    y_prev = np.vstack((y[:1], y[:-1]))
    rounding = 2.0 * np.finfo(float).eps * (np.abs(y) + np.abs(y_prev))
    assert np.all(np.abs(s.dense(ts).T - y) <= rounding)

    Rt, s0 = s.first_zero, ts[0]
    s_start, ref = _deviation_reference(p, et, Rt)
    rng = np.random.default_rng(7)
    below = rng.uniform(s_start, s0, 200)
    series = np.array(bnlab.series.profile_series(p, et).deviation(below))
    assert np.all(np.abs(series - ref(below))
                  <= _SERIES_AGREEMENT * np.abs(ref(below)))
    radii = rng.uniform(s0, Rt, 2000)
    err = np.abs(s.dense(radii) - ref(radii)).max(axis=1)
    scale = np.abs(ref(radii)).max(axis=1)
    assert np.all(err <= _REFERENCE_AGREEMENT * scale)
