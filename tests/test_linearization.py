"""Spectrum of the mode operators by Sturm shooting: Morse index, the
small positive eigenvalue of the translation mode, and the certificate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros

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
from bnlab.linearization import _shoot_mode


@pytest.fixture(scope="module")
def sol53_mid():
    p = Params(5, 3.0)
    return p, scale_to_unit_ball(p, shoot(p, 1e-2, 1e3))


@pytest.fixture(scope="module")
def sol43_shallow():
    p = Params(4, 3.0)
    return p, solution_at(p, 1e-2)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([0, 1, 2]),
       st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2))
def test_sturm_count_nondecreasing_in_nu(sol43_shallow, ell, nus):
    """The node count of the mode shoot is the number of eigenvalues below
    nu, so it never decreases as nu grows."""
    p, sol = sol43_shallow
    op = build_mode_operator(p, sol, ell)
    lo, hi = sorted(nus)
    assert _shoot_mode(op, lo) <= _shoot_mode(op, hi)


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
        assert _shoot_mode(op, mid) == k


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
