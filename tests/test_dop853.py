"""bnlab.dop853, the one caller of scipy's compiled DOP853 and Brent: runs
leave no per-run closure alive in the DOP853 binding, which keeps a
reference to every right-hand side and solout that it is handed; a run
without a solout costs no extra right-hand-side call; the CLI runs without
importing scipy.integrate, scipy.optimize or scipy.special; Brent's solver
refuses a non-finite function value; the safeguarded Newton search takes
Newton steps, expands, bisects and stops by its rule; and a compiled
module that scipy lacks fails loudly."""

import gc
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy

import bnlab.linearization as lin
from bnlab import (FitFailureError, Params, build_mode_operator, dop853,
                   shoot, solution_at)
from bnlab.dop853 import _load, brentq

SRC = Path(__file__).resolve().parents[1] / "src"


def _alive(qualname: str) -> int:
    gc.collect()
    return sum(isinstance(o, types.FunctionType) and o.__qualname__ == qualname
               for o in gc.get_objects())


def test_shoots_leave_no_solout_alive():
    """After 50 base shoots and 50 kernel shoots none of their per-run
    solouts is alive: each was called through the module's relay, never
    handed to the binding."""
    p = Params(5, 3.0)
    op = build_mode_operator(p, solution_at(p, 1e-2), 1)
    for i in range(50):
        shoot(p, 1e-2 * (1.0 + 1e-3 * i))
        lin._shoot_kernel(op, 1e-3 * i)
    assert _alive("shoot.<locals>.record") == 0
    assert _alive("_shoot_kernel.<locals>.sign_changes") == 0


def test_no_solout_costs_no_right_hand_side_call():
    """A mode shoot calls its right-hand side as often without a solout as
    with one that only goes on: no step evaluates its first stage again
    instead of reusing the last stage of the step before."""
    p = Params(5, 3.0)
    op = build_mode_operator(p, solution_at(p, 1e-2), 0)
    s0, y0 = lin._mode_start(op, 0.0)
    calls = []

    def counted(*args):
        calls.append(None)
        return lin._mode_rhs(*args)

    counts = []
    for solout in (None, lambda s, y: 0):
        calls.clear()
        dop853.run(counted, lin._mode_args(op, 0.0, 0.0), y0, s0, op.R_tilde,
                   lin._MODE_RTOL, 1e-160, solout=solout)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_cli_imports_no_scipy_subpackage(tmp_path):
    """A solve and a decomposition through the CLI import none of
    scipy.integrate, scipy.optimize and scipy.special."""
    child = (
        "import sys\n"
        "from bnlab.cli import main\n"
        f"assert main(['solve', '--n', '5', '--q', '3', '--eps', '1e-6', "
        f"'--output', {str(tmp_path / 'solve.json')!r}, "
        f"'--profile', {str(tmp_path / 'profile.csv')!r}]) == 0\n"
        f"assert main(['decompose', '--n', '5', '--q', '3', '--eps-tilde', "
        f"'1e-3', '--output', {str(tmp_path / 'dec.json')!r}]) == 0\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', "
        "'scipy.special') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_brentq_refuses_a_nonfinite_interior_value():
    """f is finite at both ends of the bracket and NaN inside it."""
    def f(x):
        return math.nan if 0.2 < x < 0.8 else x - 0.5

    with pytest.raises(FitFailureError, match="not finite"):
        brentq(f, 0.0, 1.0, xtol=1e-14, rtol=1e-14)


def _logged(g):
    """g, and the list of the x it is evaluated at."""
    xs = []

    def logged(x):
        xs.append(x)
        return g(x)

    return logged, xs


def test_newton_rises_to_a_concave_root_by_newton_steps_alone():
    """g = log x is increasing and concave, so from the lower bracket end
    every Newton iterate stays below the root and rises to it, as the
    first-zero search does on -u: each x is the Newton step from the one
    before, and the search ends within 4 ulp of 1 in 8 evaluations."""
    g, xs = _logged(lambda x: (x > 1.0, math.log(x), 1.0 / x))
    eps = np.finfo(float).eps
    root = dop853.newton(g, 0.1, 0.1, 10.0, math.inf, 4.0 * eps, 0.0, 100,
                         "log")
    assert abs(root - 1.0) <= 4.0 * eps
    assert len(xs) == 8
    assert all(b == a - math.log(a) / (1.0 / a) for a, b in zip(xs, xs[1:]))


def test_newton_expands_without_an_upper_end_and_then_bisects():
    """Where g' = 0 the Newton step is refused: the search steps by 4|dx|
    while hi is inf, and bisects once a point above the root ends the
    bracket; it returns the exact zero at x = 5."""
    g, xs = _logged(lambda x: (x > 5.0, x - 5.0, 0.0))
    assert dop853.newton(g, 0.0, 0.0, math.inf, -1.0, 1e-12, 0.0, 100,
                         "flat") == 5.0
    assert xs == [0.0, 4.0, 20.0, 12.0, 8.0, 6.0, 5.0]


def test_newton_returns_an_exact_zero_without_another_evaluation():
    """g(x) = 0.0 ends the search at x, also where g' = 0 there and the
    Newton step is undefined."""
    g, xs = _logged(lambda x: (x > 1.0, x - 1.0, float(x < 1.0)))
    assert dop853.newton(g, 0.0, 0.0, math.inf, -1.0, 1e-12, 0.0, 100,
                         "line") == 1.0
    assert xs == [0.0, 1.0]


def test_newton_out_of_iterations_names_the_search():
    with pytest.raises(FitFailureError, match="the test search did not "
                       "converge in 5 steps"):
        dop853.newton(lambda x: (False, -1.0, 0.0), 0.0, 0.0, math.inf,
                      -1.0, 1e-12, 0.0, 5, "the test search")


def test_missing_module_names_itself_and_the_scipy_version():
    with pytest.raises(ImportError) as err:
        _load("integrate", "_no_such_module")
    message = str(err.value)
    assert "integrate/_no_such_module" in message
    assert scipy.__version__ in message
    assert "\n" not in message
