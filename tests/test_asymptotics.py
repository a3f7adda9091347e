"""Sweep machinery, extrapolation fits, and the three-dimensional fold."""

import numpy as np
import pytest

import bnlab.asymptotics
import bnlab.solver
from bnlab import (
    DomainError,
    FitFailureError,
    IntegrationFailureError,
    Params,
    blowup_rate_fit,
    blowup_target,
    branch_map,
    default_grid,
    deficit_rate_fit,
    profile_distance,
    sweep_with_solutions,
    upper_bound_check,
)
from bnlab.asymptotics import _aitken


def test_default_grid_shape():
    g = default_grid()
    assert len(g) == 25
    assert g[0] == pytest.approx(1e-2)
    assert g[-1] == pytest.approx(1e-8)
    assert np.all(np.diff(g) < 0)


def test_grid_validation():
    p = Params(4, 3.0)
    with pytest.raises(DomainError):
        sweep_with_solutions(p, [1e-3, 1e-2, 1e-1])  # increasing
    with pytest.raises(DomainError):
        sweep_with_solutions(p, [1e-2, -1e-3])
    with pytest.raises(DomainError):
        sweep_with_solutions(p, [1e-2, 1e-3], jobs=0)


def test_regime_gate():
    with pytest.raises(DomainError):
        sweep_with_solutions(Params(3, 3.0))


def test_aitken_geometric_exact():
    # x_k = L + c rho^k is extrapolated exactly from three terms
    L, c, rho = 24.0, 3.0, 0.4
    x = [L + c * rho**k for k in range(3)]
    assert _aitken(*x) == pytest.approx(L, rel=1e-12)


def test_blowup_target_values():
    assert blowup_target(Params(4, 3.0)) == pytest.approx(24.0, rel=1e-12)
    assert blowup_target(Params(5, 3.0)) == pytest.approx(1829.9846, rel=1e-5)


def test_sweep_records_structure(sweep43):
    records, sols = sweep43
    assert len(records) == len(sols) == 25
    for r in records:
        assert r.eps > 0 and r.mu > 1 and r.deficit > 0
        assert r.blowup_product > 0
    eps = np.array([r.eps for r in records])
    assert np.all(np.diff(eps) < 0)


def test_fit_requires_enough_records(sweep43):
    for records in ([], sweep43[0][:4]):
        with pytest.raises(FitFailureError):
            blowup_rate_fit(records)
        with pytest.raises(FitFailureError):
            deficit_rate_fit(records)


def test_parallel_sweep_matches_serial():
    p = Params(4, 3.0)
    grid = default_grid(6, 1e-4, 1e-2)
    serial = sweep_with_solutions(p, grid, jobs=1)[0]
    parallel = sweep_with_solutions(p, grid, jobs=2)[0]
    for a, b in zip(serial, parallel):
        assert a.eps == b.eps
        assert a.S_eps == b.S_eps


def test_sweep_raises_where_one_shoot_loses_its_zero(monkeypatch):
    """A grid point whose shoot reaches its span end fails the sweep; it is
    not dropped from the records."""
    grid = default_grid()
    lost = float(grid[7])
    r_max = bnlab.solver._estimate_r_max
    monkeypatch.setattr(bnlab.solver, "_estimate_r_max",
                        lambda p, et: 100.0 if et == lost else r_max(p, et))
    with pytest.raises(IntegrationFailureError, match="no first zero"):
        sweep_with_solutions(Params(4, 3.0), grid)


def test_profile_distance_and_upper_bound(sweep43):
    _, sols = sweep43
    d = profile_distance(sols[-1])
    assert 0.0 < d < 1e-2
    ratio = upper_bound_check(sols[-1])
    assert ratio == pytest.approx(1.0, abs=1e-9)


def test_branch_map_fold_n3():
    bm = branch_map(Params(3, 3.0))
    assert bm["has_fold"]
    assert bm["eps0"] > 0.0
    assert bm["eps0"] == pytest.approx(3.2958, rel=1e-3)
    i0 = int(np.argmin(bm["eps"]))
    assert 0 < i0 < len(bm["eps"]) - 1
    # two heights per eps above the fold value
    assert np.max(bm["eps"][:i0]) > bm["eps0"] * 1.5
    assert np.max(bm["eps"][i0 + 1:]) > bm["eps0"] * 1.5


@pytest.mark.parametrize("cell", [(3, 7.0), (4, 1.5)], ids=str)
def test_branch_map_admits_the_regime_and_the_n3_fold_cell(monkeypatch,
                                                           cell):
    """The branch map admits the blow-up regime and N = 3 with 2 < q <= 4,
    and refuses any other cell before it shoots: q = 7 above 2* = 6 at
    N = 3, and q = 1.5 below the regime at N = 4."""
    def no_shoot(*args):
        pytest.fail("branch_map shot an inadmissible cell")

    monkeypatch.setattr(bnlab.asymptotics, "_solutions", no_shoot)
    with pytest.raises(DomainError, match="not admissible for the branch"):
        branch_map(Params(*cell))


def test_no_fold_in_blowup_regime(sweep43):
    records, _ = sweep43
    mu = np.array([r.mu for r in records])
    eps = np.array([r.eps for r in records])
    # eps is a strictly monotone function of mu along the swept branch
    assert np.all(np.diff(mu) > 0)
    assert np.all(np.diff(eps) < 0)
