"""Hairer's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10), its
tableau, and Brent's root finder (Brent, Algorithms for Minimization
without Derivatives, 1973, ch. 4), from scipy's compiled code.  This is the
one module that knows scipy's file layout: it loads each piece from its
file, so none of scipy.integrate, scipy.optimize and scipy.special (about
0.5 s of imports) is imported.  The binding's signature is scipy 1.17.1's.

The compiled DOP853 keeps a reference to every right-hand side and solout
that it is handed.  So callers pass module-level right-hand sides
fun(s, y, *args), and every run hands it the one solout _relay, which
calls that run's solout.  A relay for the right-hand side too would cost
one more Python call per stage: 9% of a mode shoot.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util

import numpy as np
import scipy

from .errors import FitFailureError, IntegrationFailureError

__all__ = ["TABLEAU", "brentq", "run"]


def _load(subpackage: str, name: str):
    """scipy's subpackage/name from its file, kept out of sys.modules."""
    spec = importlib.machinery.PathFinder.find_spec(
        name, [f"{scipy.__path__[0]}/{subpackage}"])
    if spec is None:
        raise ImportError(f"bnlab needs scipy's {subpackage}/{name}, which "
                          f"scipy {scipy.__version__} does not have")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_dopri853 = _load("integrate", "_dop").dopri853
_brentq = _load("optimize", "_zeros")._brentq
# DOP853's A, C and D; rows 13-15 of A and C are the interpolant's stages
TABLEAU = _load("integrate/_ivp", "dop853_coefficients")
_solout = None  # the solout of the current run


def _relay(s, y, *args):
    # the binding passes fun's args to solout too.  With IOUT = 0 it reads
    # a solout return code that nothing set, and where that reads 2 it
    # evaluates fun again at each step's start (3196 calls, not 2949, in a
    # mode shoot); so every run calls the relay, which returns 0 or -1
    return -1 if _solout is not None and _solout(s, y) == -1 else 0


def run(fun, args, y0, s0, s1, rtol, atol, first_step=0.0, solout=None):
    """Integrate y' = fun(s, y, *args) from y(s0) = y0 towards s1.  Returns
    (y, stopped): y at s1 and False, or y at the first accepted step end
    where solout(s, y), called there and at s0, returned -1, and True.
    solout must not start another run.  first_step = 0 takes Hairer's
    initial-step guess.  The stiffness test is off.  Raises
    IntegrationFailureError when DOP853 fails."""
    global _solout
    y0 = np.array(y0, dtype=float)
    work = np.zeros(11 * len(y0) + 21)
    work[1:4] = 0.9, 0.3, 6.0  # the safety factor, step-size ratio bounds
    work[6] = first_step
    iwork = np.zeros(21, np.int32)
    iwork[3] = -1  # IWORK(4) < 0 switches Hairer's stiffness test off
    _solout = solout
    try:
        _, y, code = _dopri853(fun, s0, y0, s1, rtol, atol, _relay, 1,
                               work, iwork, 2**31 - 1, -1, args)
    finally:
        _solout = None
    if code < 0:
        raise IntegrationFailureError(f"integration failed on [{s0}, {s1}]: "
                                      f"dop853 return code {code}")
    return y, code == 2


def brentq(f, a, b, xtol, rtol):
    """The root of f in [a, b], where f(a) and f(b) differ in sign, by
    scipy.optimize.brentq's compiled solver, at most 100 iterations.
    Raises FitFailureError where f is not finite: that solver does not."""
    def finite(x):
        fx = f(x)
        if not np.isfinite(fx):
            raise FitFailureError(f"root solve: f({x}) = {fx} is not finite")
        return fx

    return _brentq(finite, a, b, xtol, rtol, 100, (), False, True)
