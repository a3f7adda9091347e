"""Quadrature helpers used throughout the package.

Improper radial integrals are handled by the tangent substitution
r = tan(theta), which maps [0, inf) onto [0, pi/2) and removes the infinite
tail analytically.  Integrands with an O(1)-scale core inside a domain many
orders of magnitude wide are handled by composite Gauss-Legendre on
geometrically growing panels.  Sphere integrals share one orthonormal
frame builder.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "gauss_legendre",
    "improper_radial",
    "geometric_panel_rule",
    "plane_frame",
]

_RADIAL_PANELS = 4  # equal panels in theta of improper_radial


@functools.cache
def _reference_rule(n: int):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], computed once
    per n and kept read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _reference_rule(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def improper_radial(f, n: int = 256) -> float:
    """Integrate f over [0, inf) via r = tan(theta) and composite Gauss-Legendre.

    `f` must accept a numpy array and decay fast enough to be integrable.
    """
    edges = np.linspace(0.0, np.pi / 2, _RADIAL_PANELS + 1)
    per_panel = max(4, n // _RADIAL_PANELS)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        theta, w = gauss_legendre(a, b, per_panel)
        r = np.tan(theta)
        total += float(np.sum(w * f(r) / np.cos(theta) ** 2))
    return total


def geometric_panel_rule(a: float, b: float, n_per_panel: int = 32,
                         first: float = 1.0):
    """Composite Gauss-Legendre nodes and weights on panels growing
    geometrically from `a`; `w @ f(x)` approximates the integral over [a, b].

    The first panel has width `first`; each subsequent panel doubles, so a
    domain of width W costs O(log2(W/first)) panels while still resolving
    structure of scale `first` near the left endpoint.
    """
    if b <= a:
        return np.empty(0), np.empty(0)
    edges = [a]
    step = min(first, b - a)
    while edges[-1] + step < b:
        edges.append(edges[-1] + step)
        step *= 2.0
    edges.append(b)
    e = np.array(edges)[:, None]
    x, w = gauss_legendre(e[:-1], e[1:], n_per_panel)
    return x.ravel(), w.ravel()


def plane_frame(N: int, a: np.ndarray, x: np.ndarray):
    """Orthonormal (e1, e2) in R^N whose span contains a and x.

    e1 points along a, else along x, else along the first axis; e2 points
    along the part of x orthogonal to e1, else along any unit vector
    orthogonal to e1.
    """
    e1 = np.zeros(N)
    if np.linalg.norm(a) > 1e-14:
        e1 = a / np.linalg.norm(a)
    elif np.linalg.norm(x) > 1e-14:
        e1 = x / np.linalg.norm(x)
    else:
        e1[0] = 1.0
    v = x - (x @ e1) * e1
    if np.linalg.norm(v) <= 1e-12:
        v = np.zeros(N)
        v[int(np.argmin(np.abs(e1)))] = 1.0
    # a second projection: one alone leaves x's roundoff along e1, which
    # grows relative to v as x nears the e1 line
    v = v - (v @ e1) * e1
    return e1, v / np.linalg.norm(v)
