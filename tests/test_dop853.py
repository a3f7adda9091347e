"""bnlab.dop853, the one caller of scipy's compiled DOP853 and Brent: runs
leave no per-run closure alive in the DOP853 binding, which keeps a
reference to every right-hand side and solout that it is handed; a run
without a solout costs no extra right-hand-side call; the CLI runs without
importing scipy.integrate, scipy.optimize or scipy.special; Brent's solver
refuses a non-finite function value; and a compiled module that scipy
lacks fails loudly."""

import gc
import math
import os
import subprocess
import sys
import types
from pathlib import Path

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


def test_missing_module_names_itself_and_the_scipy_version():
    with pytest.raises(ImportError) as err:
        _load("integrate", "_no_such_module")
    message = str(err.value)
    assert "integrate/_no_such_module" in message
    assert scipy.__version__ in message
    assert "\n" not in message
