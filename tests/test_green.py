"""Green's function of the ball: exact values, symmetry, broadcasting over
arrays of points, and the identity suite used by the verification command,
checked against a per-node reference loop."""

import json
import math

import numpy as np
import pytest

import bnlab.green
from bnlab import DomainError, SingularityError, omega_n
from bnlab.cli import EXIT_OK, EXIT_VERIFY_FAILED, main
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
from bnlab.quadrature import gauss_legendre, plane_frame


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


@pytest.mark.parametrize("scale", [1.01, -1.0])
def test_fault_scale_fails_every_green_check(tmp_path, scale):
    """A scaled Green constant fails each quadrature identity, the Robin
    value at every N and the projection limit, which also reads it; a
    negative scale fails the limit too, as its residual is relative to
    |target|."""
    out = tmp_path / "v.json"
    assert main(["verify", "--fault-green-scale", repr(scale),
                 "--output", str(out)]) == EXIT_VERIFY_FAILED
    failing = {c["name"] for c in json.loads(out.read_text())["checks"]
               if not c["pass"]}
    assert failing == {"projection_robin_limit"} | {
        f"{name}_n{N}" for N in (3, 4, 5)
        for name in ("pohozaev_surface", "robin_gradient_surface",
                     "local_pohozaev", "representation", "robin_center")
    }


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


def _rows(N, M=7, seed=3):
    """M points of the open unit ball in R^N, none at the origin."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(M, N))
    return x * (rng.uniform(0.05, 0.95, size=M) / np.linalg.norm(x, axis=1))[
        :, None]


@pytest.mark.parametrize("N", [3, 4, 5])
def test_batch_equals_row_by_row(N):
    """On an (M, N) array of points, each Green function returns the
    row-by-row values to 1 ulp, whichever argument carries the rows."""
    g = BallGreen(N)
    X, Y = _rows(N), _rows(N, seed=4)
    y = Y[0]
    for fn in (singular_part, regular_part, green, grad_green):
        for a, b in ((X, y), (y, X), (X, Y)):
            batch = fn(g, a, b)
            rows = np.array([fn(g, ai, bi)
                             for ai, bi in zip(*np.broadcast_arrays(a, b))])
            assert batch.shape == rows.shape
            np.testing.assert_array_max_ulp(batch, rows, maxulp=1)


def test_single_point_returns_python_float():
    g = BallGreen(4)
    x, y = _pt(4, 0.3, 0.1), _pt(4, -0.2, 0.4)
    for fn in (singular_part, regular_part, green):
        assert type(fn(g, x, y)) is float
    assert grad_green(g, x, y).shape == (4,)


def test_one_bad_row_raises():
    """One row on the diagonal raises SingularityError, one row outside
    |x| = 1 + 1e-12 raises DomainError, as for a single point."""
    g = BallGreen(3)
    y = _pt(3, 0.1, 0.2)
    X = _rows(3)
    X[4] = y
    for fn in (singular_part, green, grad_green):
        with pytest.raises(SingularityError):
            fn(g, X, y)
    X = _rows(3)
    X[2] = _pt(3, 1.0 + 1e-11)
    for fn in (regular_part, green):
        with pytest.raises(DomainError):
            fn(g, X, y)
    X[2] = _pt(3, 1.0)  # on the sphere is inside the tolerance
    assert regular_part(g, X, y).shape == (7,)


def _loop_sphere_quad(fn, N, radius, y, order):
    """The per-node polar-angle rule: fn gets one direction at a time.
    Returns the integral and the integral of |fn|, the scale of its
    roundoff."""
    axis, e_perp = plane_frame(N, y, y)
    th, w = gauss_legendre(0.0, np.pi, order)
    total = size = 0.0
    for ti, wi in zip(th, w):
        sigma = np.cos(ti) * axis + np.sin(ti) * e_perp
        term = wi * fn(sigma) * np.sin(ti) ** (N - 2.0)
        total += term
        size += abs(term)
    pre = omega_n(N - 1) * radius ** (N - 1)
    return pre * total, pre * size


def _loop_surface_integrals(g, y):
    """The three surface-identity integrals at both orders, in the order
    that surface_identity_suite evaluates them, one Green call per node."""
    N = g.N
    axis = plane_frame(N, y, y)[0]
    ny = float(np.linalg.norm(y))
    d = 0.3 * (1.0 - ny)

    def pohozaev(sigma):
        dgdn = float(grad_green(g, sigma, y) @ sigma)
        return (1.0 - ny * float(sigma @ axis)) * dgdn * dgdn

    def robin_grad(sigma):
        dgdn = float(grad_green(g, sigma, y) @ sigma)
        return dgdn * dgdn * float(sigma @ axis)

    def local(sigma):
        x = y + d * sigma
        grad = grad_green(g, x, y)
        dgdn = float(grad @ sigma)
        return (-d * dgdn * dgdn + 0.5 * d * float(grad @ grad)
                - (N - 2.0) / 2.0 * green(g, x, y) * dgdn)

    return [_loop_sphere_quad(fn, N, radius, y, order)
            for fn, radius in ((pohozaev, 1.0), (robin_grad, 1.0), (local, d))
            for order in (64, 32)]


def _loop_representation_integral(g, x):
    """int over directions of int_0^rho_max G(x, x + rho sigma) rho^{N-1},
    one Green call per (direction, rho) node."""
    N = g.N
    nx = float(np.linalg.norm(x))

    def inner(sigma):
        xs = float(x @ sigma)
        rho, wr = gauss_legendre(0.0, -xs + np.sqrt(1.0 - nx * nx + xs * xs),
                                 64)
        return sum(wj * green(g, x, x + rj * sigma) * rj ** (N - 1)
                   for rj, wj in zip(rho, wr))

    return _loop_sphere_quad(inner, N, 1.0, x, 64)


def _recorded_quadratures(monkeypatch):
    """Record the value of every _polar_sphere_quad call."""
    values = []
    real = bnlab.green._polar_sphere_quad

    def recording(*args):
        values.append(real(*args))
        return values[-1]

    monkeypatch.setattr(bnlab.green, "_polar_sphere_quad", recording)
    return values


@pytest.mark.parametrize("N", [3, 4, 5])
@pytest.mark.parametrize("coords", [(), "e_N", (0.3, -0.2), (0.9,)])
def test_array_quadratures_match_per_node_loop(monkeypatch, N, coords):
    """The representation integral and each surface-identity integral,
    evaluated on node arrays, match the per-node loop to 1e-13 relative to
    the integral of the integrand's absolute value (the robin-gradient
    integral vanishes at the origin)."""
    g = BallGreen(N)
    y = _pt(N)
    if coords == "e_N":
        y[-1] = 0.3
    else:
        y = _pt(N, *coords)
    values = _recorded_quadratures(monkeypatch)
    surface_identity_suite(g, y)
    greens_representation_residual(g, y)
    reference = _loop_surface_integrals(g, y) + [
        _loop_representation_integral(g, y)]
    assert len(values) == len(reference) == 7
    for value, (ref, size) in zip(values, reference):
        assert abs(value - ref) <= 1e-13 * size
