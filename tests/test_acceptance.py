"""End-to-end acceptance gate: the quantitative asymptotic laws and
structural properties the package must reproduce, each at its stated
tolerance."""

import time

import numpy as np
import pytest

from bnlab import (
    Params,
    alpha_n,
    blowup_rate_fit,
    blowup_target,
    boundary_green_limit,
    branch_map,
    build_mode_operator,
    c_nq,
    c_nq_quadrature,
    default_grid,
    deficit_rate_fit,
    eigenvalues_near_zero,
    nondegeneracy_certificate,
    omega_n,
    perturbation_order_fit,
    sobolev_sn2_exact,
    solution_at,
    sweep_with_solutions,
)
from bnlab.bubbles import Bubble, harmonic_correction_exact
from bnlab.green import BallGreen, regular_part, surface_identity_suite


def test_criterion_1_blowup_rate_n4():
    """eps * ||u||_inf extrapolates to alpha_{4,3} R(0) = 24 within 5%,
    over the default 25-point sweep, in under two minutes single-threaded."""
    p = Params(4, 3.0)
    t0 = time.monotonic()
    records, _ = sweep_with_solutions(p, default_grid(25))
    fit = blowup_rate_fit(records)
    elapsed = time.monotonic() - t0
    assert fit.target == pytest.approx(24.0, rel=1e-12)
    assert fit.rel_error <= 0.05
    assert fit.details["stable_to_1pct"]
    assert elapsed < 120.0


def test_criterion_2_blowup_rate_n5(p53, sweep53):
    records, _ = sweep53
    fit = blowup_rate_fit(records)
    assert fit.target == pytest.approx(blowup_target(p53), rel=1e-12)
    assert fit.rel_error <= 0.05
    assert fit.details["stable_to_1pct"]


def test_criterion_3_deficit_exponent(sweep43, sweep53):
    for (records, _), target in ((sweep43, 2.0), (sweep53, 1.2)):
        fit = deficit_rate_fit(records)
        assert fit.slope_target == pytest.approx(target, rel=1e-12)
        assert abs(fit.slope_estimate - target) / target <= 0.10


def test_criterion_4_energy_monotone(sweep43, sweep53):
    for records, _ in (sweep43, sweep53):
        eps = np.array([r.eps for r in records])
        s_eps = np.array([r.S_eps for r in records])
        # records run from large to small eps: S_eps strictly decreasing in
        # eps means strictly increasing along the records
        assert np.all(np.diff(eps) < 0)
        assert np.all(np.diff(s_eps) > 0)


def test_criterion_5_identity_suite(p43, p53, sweep43, sweep53):
    for records, _ in (sweep43, sweep53):
        for r in records:
            assert r.nehari_residual <= 1e-6
            assert r.pohozaev_residual <= 1e-6
    for p in (p43, p53):
        assert abs(c_nq(p) - c_nq_quadrature(p)) / c_nq(p) <= 1e-8
        g = BallGreen(p.N)
        y = np.zeros(p.N)
        y[0] = 0.4
        suite = surface_identity_suite(g, y)
        assert len(suite) == 3
        for entry in suite.values():
            assert entry["residual"] <= 1e-6


def test_criterion_6_profile_convergence(sweep43, sweep53):
    for records, _ in (sweep43, sweep53):
        dist = np.array([r.profile_dist for r in records])
        assert np.all(np.diff(dist) < 0)
        assert dist[-1] <= 1e-2


def test_criterion_7_boundary_green_limit(sweep43, sweep53):
    for _, sols in (sweep43, sweep53):
        devs = boundary_green_limit(sols)
        assert len(devs) == len(sols)
        assert np.all(np.diff(devs) < 0)
        assert devs[-1] <= 5e-2


def test_criterion_8_bubble_projection():
    N = 4
    g = BallGreen(N)
    x = np.zeros(N)
    x[0] = 0.5
    target = (N - 2.0) * omega_n(N) * regular_part(g, np.zeros(N), x)
    errs = []
    for lam in (10.0, 100.0, 1000.0):
        val = lam ** ((N - 2.0) / 2.0) * harmonic_correction_exact(
            Bubble(N, lam, np.zeros(N)), x
        )
        errs.append(abs(val - target) / target)
    assert errs[0] > errs[1] > errs[2] > 0.0
    # consistency with O(lam^{-2}): two decades of gain per decade of lam,
    # up to a factor-4 margin
    assert errs[1] / errs[0] <= 0.04
    assert errs[2] / errs[1] <= 0.04


def test_criterion_9_decomposition(p43, p53, decs43, decs53):
    for p, decs in ((p43, decs43), (p53, decs53)):
        fit = perturbation_order_fit(decs)
        # the table order bounds ||w|| from above; the fitted slope may be
        # steeper but not shallower than the target + 0.3
        assert fit.slope_estimate <= fit.slope_target + 0.3
        alpha_err = abs(decs[-1].alpha - alpha_n(p.N)) / alpha_n(p.N)
        assert alpha_err <= 1e-2


def _ell1_plateau_target(N):
    """Closed-form limit of mu^2 lambda_1 as eps -> 0; it does not depend on q."""
    K = (N - 2) * (N * (N - 2)) ** ((N - 2) / 2)
    return N * K**2 * omega_n(N) / sobolev_sn2_exact(N)


def test_criterion_10_nondegeneracy(p53, sweep53):
    """Along the N = 5 sweep the linearization has Morse index one and no
    zero eigenvalue in the modes ell <= 4, and the ell = 1 (translation)
    eigenvalue decreases toward zero at the closed-form rate mu^-2.

    Nondegeneracy does not mean a uniform spectral gap: lambda_1 -> 0 as
    eps -> 0, so it is checked against its limit mu^2 lambda_1 -> N K^2
    omega_N / S^{N/2}, K = (N-2) (N(N-2))^{(N-2)/2} (192 for N = 4, 4733.99
    for N = 5), rather than against a fixed floor.  Derivation: u' solves
    the ell = 1 mode equation at lambda = 0, so lambda_1 int u' phi r^{N-1}
    = -u'(1) phi'(1) exactly; with phi ~ u' - u'(1) r, phi'(1) ~ -N u'(1),
    mu u'(1) -> -K (mu u -> A G(., 0), criterion 7) and int u'^2 r^{N-1}
    -> S^{N/2} / omega_N.

    Certificates are evaluated at eps_tilde ~ 1e-2, 1e-3, 1e-4 of the
    swept grid, and the ell = 1 eigenvalue alone also at 1e-6 and 1e-8,
    where the kernel shoot resolves it (gap to the target 1.2e-5 at 1e-8;
    the Pruefer search read +63% there).  The ell = 0 eigenvalue above
    zero (the dilation mode) drifts toward zero, to 0.23 at
    eps_tilde = 1e-4, so its 1e-3 floor holds on the certified subsample
    only.
    """
    records, sols = sweep53
    N = p53.N
    target = _ell1_plateau_target(N)
    # the formula itself: N = 4 gives 4 * 16^2 * 2 pi^2 / (32 pi^2 / 3) = 192
    assert _ell1_plateau_target(4) == pytest.approx(192.0, rel=1e-12)

    eps_tilde = np.array([r.eps_tilde for r in records])
    idx = [int(np.argmin(np.abs(eps_tilde - t))) for t in (1e-2, 1e-3, 1e-4)]
    rows = []
    for i in idx:
        _, rep = nondegeneracy_certificate(p53, sols[i], ell_max=4, tol=1e-3)
        rows.append((records[i], rep["per_mode"]))

    # Morse index one, carried by ell = 0, and no eigenvalue near zero in
    # the modes whose spectrum stays away from it on this subsample
    failures = [
        (rec, modes) for rec, modes in rows
        if [modes[ell]["n_negative"] for ell in range(5)] != [1, 0, 0, 0, 0]
        or min(modes[ell]["min_abs"] for ell in (0, 2, 3, 4)) < 1e-3
    ]
    assert not failures, "nondegeneracy certificate failed at eps values " + ", ".join(
        f"{rec.eps:.3e} ("
        + "; ".join(
            f"ell={ell}: n_negative={m['n_negative']}, min |eig| = {m['min_abs']:.3e}"
            for ell, m in modes.items()
        )
        + ")"
        for rec, modes in failures
    )

    # the ell = 1 eigenvalue is positive and decreases toward zero ...
    deep = [int(np.argmin(np.abs(eps_tilde - t))) for t in (1e-6, 1e-8)]
    recs = [rec for rec, _ in rows] + [records[i] for i in deep]
    ell1 = [modes[1]["nearest_above"] for _, modes in rows] + [
        eigenvalues_near_zero(build_mode_operator(p53, sols[i], 1))[1]
        for i in deep
    ]
    assert all(a > b > 0.0 for a, b in zip(ell1, ell1[1:])), (
        "ell = 1 eigenvalues not positive and decreasing: "
        + ", ".join(f"{x:.3e}" for x in ell1)
    )
    # ... like mu^-2, approaching the closed-form plateau
    plateau = [rec.mu**2 * lam for rec, lam in zip(recs, ell1)]
    gaps = [abs(v / target - 1.0) for v in plateau]
    assert all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] <= 1e-4, (
        f"mu^2 lambda_1 does not approach {target:.6g}: "
        + ", ".join(f"{v:.6g} ({g:.2%})" for v, g in zip(plateau, gaps))
    )


@pytest.mark.parametrize("cell,ratio", [
    ((3, 5.0, 1e-5), 1.0000021),
    ((4, 3.0, 1e-8), 1.0000000),
    ((5, 3.0, 1e-8), 0.9999880),
    ((3, 5.0, 1e-8), 1.0000000),
    ((6, 2.6, 1e-8), 0.9996995),
    ((7, 2.4, 1e-8), 0.9979528),
], ids=str)
def test_ell1_limit_at_the_deep_end(cell, ratio):
    """At the deep end of the default sweeps mu^2 lambda_1 / T (criterion
    10's target T) matches the first-order perturbation of the translation
    kernel u' to within 1e-5.  The Pruefer search read 36.8, 9.68, 1.634,
    2.0e9, 0.99324 and 0.99692 at these cells."""
    N, q, et = cell
    p = Params(N, q)
    sol = solution_at(p, et)
    lam = eigenvalues_near_zero(build_mode_operator(p, sol, 1))[1]
    assert sol.mu**2 * lam / _ell1_plateau_target(N) == pytest.approx(
        ratio, abs=1e-5)


def test_criterion_11_n3_fold():
    bm = branch_map(Params(3, 3.0))
    assert bm["has_fold"]
    eps0 = bm["eps0"]
    assert eps0 > 0.0
    i0 = int(np.argmin(bm["eps"]))
    assert 0 < i0 < len(bm["eps"]) - 1
    # two coexisting heights for eps above the fold: pick a level crossed by
    # both branches and find one mu on each side
    level = 1.5 * eps0
    left = bm["mu"][: i0 + 1][bm["eps"][: i0 + 1] >= level]
    right = bm["mu"][i0:][bm["eps"][i0:] >= level]
    assert len(left) > 0 and len(right) > 0
    assert np.max(left) < bm["mu_at_eps0"] < np.min(right)
