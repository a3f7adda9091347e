"""The long-lived DOP853 integrators: runs leave nothing behind in scipy's
compiled binding, which keeps a reference to every right-hand side and
solout that it is handed."""

import gc

from bnlab import Params, build_mode_operator, shoot, solution_at
from bnlab.linearization import _shoot_mode


def _live_dop853() -> int:
    gc.collect()
    return sum(type(o).__name__ == "dop853" for o in gc.get_objects())


def test_shoots_keep_no_integrator_alive():
    """After 200 base shoots and 200 mode shoots no more scipy dop853
    integrators are alive than before them."""
    p = Params(5, 3.0)
    op = build_mode_operator(p, solution_at(p, 1e-2), 1)
    before = _live_dop853()
    for i in range(200):
        shoot(p, 1e-2 * (1.0 + 1e-3 * i))
        _shoot_mode(op, 1e-3 * i)
    assert _live_dop853() <= before
