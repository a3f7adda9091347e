"""Green's function of the ball: exact values, symmetry, and the identity
suite used by the verification command."""

import math

import numpy as np
import pytest

import bnlab.green
from bnlab import DomainError, SingularityError, omega_n
from bnlab.cli import EXIT_OK, main
from bnlab.green import (
    BallGreen,
    grad_green,
    green,
    greens_representation_residual,
    regular_part,
    robin,
    robin_gradient,
    singular_part,
    surface_identity_suite,
)


def _pt(N, *coords):
    x = np.zeros(N)
    x[: len(coords)] = coords
    return x


def test_symmetry():
    for N in (3, 4, 5):
        g = BallGreen(N)
        x, y = _pt(N, 0.3, 0.1), _pt(N, -0.2, 0.4)
        assert green(g, x, y) == pytest.approx(green(g, y, x), rel=1e-12)
        assert regular_part(g, x, y) == pytest.approx(
            regular_part(g, y, x), rel=1e-12
        )


def test_boundary_vanishing():
    for N in (3, 4, 5):
        g = BallGreen(N)
        y = _pt(N, 0.4)
        for ang in (0.0, 1.1, 2.5):
            x = _pt(N, math.cos(ang), math.sin(ang))
            assert abs(green(g, x, y)) < 1e-13


def test_robin_center_exact():
    # H(0,0) = R^{2-N} / ((N-2) omega_N)
    for N in (3, 4, 5, 6):
        g = BallGreen(N)
        assert robin(g, np.zeros(N)) == pytest.approx(
            1.0 / ((N - 2.0) * omega_n(N)), rel=1e-13
        )


def test_robin_n3_closed_form():
    # unit ball, N = 3: R(y) = 1 / (4 pi (1 - |y|^2))
    g = BallGreen(3)
    for r in (0.0, 0.3, 0.7):
        y = _pt(3, r)
        assert robin(g, y) == pytest.approx(
            1.0 / (4.0 * math.pi * (1.0 - r * r)), rel=1e-12
        )


def test_robin_gradient_matches_finite_difference():
    g = BallGreen(4)
    y = _pt(4, 0.3, 0.2)
    h = 1e-6
    grad = robin_gradient(g, y)
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd = (robin(g, y + e) - robin(g, y - e)) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-6 + 1e-6 * abs(fd))


def test_grad_green_matches_finite_difference():
    g = BallGreen(3)
    x, y = _pt(3, 0.5, 0.1), _pt(3, -0.2, 0.3)
    h = 1e-6
    grad = grad_green(g, x, y)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (green(g, x + e, y) - green(g, x - e, y)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-6)


def test_singular_part_is_fundamental_solution():
    N = 5
    g = BallGreen(N)
    x, y = _pt(N, 0.2), _pt(N, 0.2, 0.3)
    d = np.linalg.norm(x - y)
    assert singular_part(g, x, y) == pytest.approx(
        d ** (2.0 - N) / ((N - 2.0) * omega_n(N)), rel=1e-13
    )


def test_green_positive_inside():
    g = BallGreen(4)
    rng = np.random.default_rng(7)
    y = _pt(4, 0.35, -0.1)
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, size=4)
        if np.linalg.norm(x) < 0.99 and np.linalg.norm(x - y) > 1e-6:
            assert green(g, x, y) > 0.0


def test_diagonal_singularity_raises():
    g = BallGreen(3)
    with pytest.raises(SingularityError):
        green(g, _pt(3, 0.1), _pt(3, 0.1))


def test_outside_point_raises():
    g = BallGreen(3)
    with pytest.raises(DomainError):
        robin(g, _pt(3, 1.5))


def test_surface_identity_suite():
    for N in (3, 4, 5):
        g = BallGreen(N)
        suite = surface_identity_suite(g, _pt(N, 0.4))
        assert set(suite) == {
            "pohozaev_surface",
            "robin_gradient_surface",
            "local_pohozaev",
        }
        for entry in suite.values():
            assert entry["residual"] <= 1e-6
            assert entry["converged"]


def test_representation_residual():
    for N in (3, 4, 5):
        g = BallGreen(N)
        assert greens_representation_residual(g, _pt(N, 0.3, -0.2)) <= 1e-6


def test_fault_scale_breaks_identities():
    g = BallGreen(4, constant_scale=1.01)
    suite = surface_identity_suite(g, _pt(4, 0.4))
    assert any(entry["residual"] > 1e-6 for entry in suite.values())


def test_verify_computes_green_constant_once_per_instance(monkeypatch,
                                                          tmp_path):
    """1/((N-2) omega_N) depends only on N and the fault scale, so one
    verify run reads omega_N from green once per BallGreen and once per
    sphere quadrature (25 times), not once per Green-function evaluation
    (26,053 times when the constant was recomputed)."""
    calls = []
    real = bnlab.green.omega_n

    def counting(N):
        calls.append(N)
        return real(N)

    monkeypatch.setattr(bnlab.green, "omega_n", counting)
    assert main(["verify", "--output", str(tmp_path / "v.json")]) == EXIT_OK
    assert 0 < len(calls) <= 30
