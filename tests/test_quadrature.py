"""Quadrature helpers against closed-form integrals."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bnlab.quadrature
from bnlab.quadrature import (
    gauss_legendre,
    geometric_panel_rule,
    improper_radial,
    plane_frame,
)


def test_gauss_legendre_polynomial_exact():
    # order-n Gauss integrates degree 2n-1 exactly
    x, w = gauss_legendre(-1.0, 2.0, 8)
    val = float(np.sum(w * (x**7 - 2 * x**3 + 1.0)))
    exact = (2.0**8 - 1.0) / 8.0 - 2 * (2.0**4 - 1.0) / 4.0 + 3.0
    assert val == pytest.approx(exact, rel=1e-13)


def test_improper_radial_gaussian():
    # int_0^inf e^{-r^2} dr = sqrt(pi)/2
    val = improper_radial(lambda r: np.exp(-(r**2)))
    assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)


def test_improper_radial_algebraic_tail():
    # int_0^inf r^3 (1+r^2)^{-3} dr = 1/4
    val = improper_radial(lambda r: r**3 * (1.0 + r * r) ** -3.0)
    assert val == pytest.approx(0.25, rel=1e-12)


def test_geometric_panel_endpoint_layer():
    # int_0^1 sqrt(r) dr = 2/3, integrand non-smooth at the left endpoint;
    # a thin first panel confines the singular error
    x, w = geometric_panel_rule(0.0, 1.0, first=1e-6)
    val = w @ np.sqrt(x)
    assert val == pytest.approx(2.0 / 3.0, rel=1e-8)


def test_geometric_panel_smooth():
    x, w = geometric_panel_rule(0.0, math.pi / 2.0, first=0.5)
    val = w @ np.cos(x)
    assert val == pytest.approx(1.0, rel=1e-13)


@st.composite
def _frame_cases(draw):
    """(N, a, x); all but the general case hit a fallback of the frame."""
    N = draw(st.integers(3, 7))
    points = st.lists(st.floats(-1.0, 1.0), min_size=N, max_size=N)
    a, x = np.array(draw(points)), np.array(draw(points))
    case = draw(st.sampled_from(["general", "a=0", "x=0", "a=x=0", "x||a"]))
    if case in ("a=0", "a=x=0"):
        a = np.zeros(N)
    if case in ("x=0", "a=x=0"):
        x = np.zeros(N)
    if case == "x||a":
        x = draw(st.floats(-2.0, 2.0)) * a
    return N, a, x


@settings(max_examples=200, deadline=None)
@given(_frame_cases())
# x near the e1 line: one projection alone leaves e1.e2 at -1.4e-14
@example((5, np.array([0.0, 0.6875, 0.0, 0.0, 0.6875]),
          np.array([0.0, 0.6875, 0.0, 0.0, 0.703125])))
def test_plane_frame_is_orthonormal_and_spans_both_points(case):
    N, a, x = case
    e1, e2 = plane_frame(N, a, x)
    gram = np.array([[e1 @ e1, e1 @ e2], [e2 @ e1, e2 @ e2]])
    assert np.abs(gram - np.eye(2)).max() <= 1e-14
    # e2 is only decided by x when x is 1e-12 or more off the e1 line
    for p in (a, x):
        assert np.linalg.norm(p - (p @ e1) * e1 - (p @ e2) * e2) <= 1e-12
    if np.linalg.norm(a) > 1e-14:
        assert e1 @ a > 0.0
    elif np.linalg.norm(x) > 1e-14:
        assert e1 @ x > 0.0
    else:
        assert e1[0] == 1.0


def test_gauss_legendre_reads_one_cached_reference_rule():
    """The [-1, 1] rule is computed once per order, kept read-only, and
    mapped to [a, b] as before."""
    x, w = gauss_legendre(0.5, 3.0, 48)
    x0, w0 = np.polynomial.legendre.leggauss(48)
    assert np.array_equal(x, 1.25 * x0 + 1.75)
    assert np.array_equal(w, 1.25 * w0)
    ref = bnlab.quadrature._reference_rule(48)
    assert ref is bnlab.quadrature._reference_rule(48)
    assert not ref[0].flags.writeable and not ref[1].flags.writeable
