"""Quadrature helpers against closed-form integrals."""

import math

import numpy as np
import pytest

from bnlab.quadrature import gauss_legendre, geometric_panel_rule, improper_radial


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
    x, w = geometric_panel_rule(0.0, 1.0, n_per_panel=32, first=1e-6)
    val = w @ np.sqrt(x)
    assert val == pytest.approx(2.0 / 3.0, rel=1e-8)


def test_geometric_panel_smooth():
    x, w = geometric_panel_rule(0.0, math.pi / 2.0, first=0.5)
    val = w @ np.cos(x)
    assert val == pytest.approx(1.0, rel=1e-13)
