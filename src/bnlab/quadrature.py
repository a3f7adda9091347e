"""Quadrature helpers used throughout the package.

Improper radial integrals are handled by the tangent substitution
r = tan(theta), which maps [0, inf) onto [0, pi/2) and removes the infinite
tail analytically.  Integrands with an O(1)-scale core inside a domain many
orders of magnitude wide are handled by composite Gauss-Legendre on
geometrically growing panels.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gauss_legendre",
    "improper_radial",
    "geometric_panel_rule",
]


def gauss_legendre(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def improper_radial(f, n: int = 256, panels: int = 4) -> float:
    """Integrate f over [0, inf) via r = tan(theta) and composite Gauss-Legendre.

    `f` must accept a numpy array and decay fast enough to be integrable.
    """
    edges = np.linspace(0.0, np.pi / 2, panels + 1)
    per_panel = max(4, n // panels)
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
