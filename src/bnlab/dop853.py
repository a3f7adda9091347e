"""Hairer's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10), run
through scipy.integrate.ode: the method and error norm of solve_ivp's
DOP853, with a compiled step loop, one scalar atol, and an rtol that may go
below the 2.2e-14 floor to which solve_ivp clamps.

scipy's compiled binding (checked at scipy 1.17.1) keeps a reference to
every right-hand side and solout that it is handed, so an integrator built
per integration stays alive with everything its closures hold.  Each
Dop853 is built once per role, around a module-level right-hand side
fun(s, y, *args) that gets each run's parameters as args, and hands the
binding one solout relay, which points at the caller's solout for one run
and is cleared after it.  A relay for the right-hand side too would cost
one more Python call per stage: 9% of a mode shoot.
"""

from __future__ import annotations

import warnings

from scipy.integrate import ode

from .errors import IntegrationFailureError

__all__ = ["Dop853"]


class Dop853:
    """One long-lived DOP853 integrator of y' = fun(s, y, *args), reused for
    every run of a role.

    Not re-entrant: a run must not start another run of the same object.
    """

    def __init__(self, fun):
        self._solout = None
        self._ode = ode(fun).set_integrator("dop853", nsteps=2**31 - 1)
        # one bound method, made once, is the solout of every run
        self._relay = self._relay_solout

    def _relay_solout(self, s, y, *args):
        # the binding passes the right-hand side's args to solout too
        return self._solout(s, y)

    @property
    def calls(self) -> int:
        """Right-hand-side calls of the last run, IWORK(17)."""
        return int(self._ode._integrator.iwork[16])

    def run(self, args, y0, s0, s1, rtol, atol, first_step=0.0, solout=None):
        """Integrate y' = fun(s, y, *args) from y(s0) = y0 towards s1.

        Returns (y, stopped): the state at s1, or stopped = True and the
        state at the first accepted step end where solout(s, y) returned
        -1.  solout, when given, is called at s0 and at every accepted step
        end.  first_step = 0 takes Hairer's initial-step guess.  The
        stiffness test is off.  Raises IntegrationFailureError when DOP853
        fails.
        """
        integ = self._ode._integrator
        integ.rtol, integ.atol, integ.first_step = rtol, atol, first_step
        self._ode.set_f_params(*args)
        # resets the integrator: new work and iwork arrays, and call_args
        self._ode.set_initial_value(y0, s0)
        # SOLOUT and IOUT, in place of the wrapper's own solout
        integ.call_args[2:4] = [self._relay, int(solout is not None)]
        # IWORK(4) < 0 switches Hairer's stiffness test off; the scipy
        # wrapper has no keyword for it
        integ.iwork[3] = -1
        self._solout = solout
        try:
            with warnings.catch_warnings():
                # the wrapper warns before it reports a failed run; the
                # error below carries the return code instead
                warnings.filterwarnings("ignore", "dop853: ", UserWarning)
                y = self._ode.integrate(s1)
        finally:
            self._solout = None
        code = self._ode.get_return_code()
        if code < 0:
            raise IntegrationFailureError(
                f"integration failed on [{s0}, {s1}]: dop853 return code "
                f"{code}"
            )
        return y, code == 2
