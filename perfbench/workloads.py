"""Workloads of the bnlab benchmark: seeded inputs, tasks and output checks.

A workload is set up once from its seed (inputs, plus any base solutions
its tasks need) and then yields a list of tasks.  A task is one
CLI-equivalent command.  Running a task returns an ``Outcome``: the bytes
that identify its output, compared bit for bit across rounds and between
the untraced and the traced run, and the causes of any failed check.

Every check uses a threshold the repository already states; see
RATIONALE.md for where each comes from and which seeded inputs fail at the
current baseline.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import bnlab.cli  # noqa: F401  (tasks call it through sys.modules)
from bnlab import Params, sweep_with_solutions

Q = 3.0
NEHARI_TOL = 1e-6        # bnlab verify: solver_nehari threshold
POHOZAEV_TOL = 1e-6      # bnlab verify: solver_pohozaev threshold
EPS_TOL = 1e-8           # default tol of solver.solve_for_eps
BLOWUP_TOL = 0.05        # acceptance criteria 1 and 2
BLOWUP_STABLE = 0.01     # acceptance criteria 1 and 2 (stable_to_1pct)
DEFICIT_TOL = 0.10       # acceptance criterion 3
DECOMP_SLOPE_MARGIN = 0.3  # acceptance criterion 9
ALPHA_TOL = 1e-2         # acceptance criterion 9
PLATEAU_FACTOR = 2.0     # ROADMAP item 2: mu^2 lambda_1 within a factor 2
PLATEAU_REF_ET = 1e-5    # eps_tilde of the plateau reference
PROFILE_ROWS = 4097      # solver.PROFILE_POINTS

# Failure causes that the baseline is known to produce, each on a stated
# set of inputs; RATIONALE.md gives the measurements.  A task whose inputs
# lie in that set carries the cause in Task.known: it counts in
# tasks_failed like any other failure but does not make the run incorrect.
# Any other cause, or a known cause on any other task, does.
KNOWN_DEFECTS = {
    "solve.stalled":
        "solve_for_eps ends its Brent solve just outside tol=1e-8 "
        "and exits 3 for a reachable target (N=5, eps <= 1e-6)",
    "spectrum.l1_plateau":
        "mu^2 lambda_1 leaves its plateau at the deep end (N=4, "
        "eps_tilde <= 1.5e-7): the shooting error swamps the near-zero "
        "eigenvalue",
}
STALL_N, STALL_EPS_MAX = 5, 1e-6
PLATEAU_DEFECT_N, PLATEAU_DEFECT_ET_MAX = 4, 1.5e-7


@dataclass
class Outcome:
    output: bytes
    failures: list[str] = field(default_factory=list)
    bytes_written: int = 0
    detail: str = ""  # printed beside a failure: stderr, measured value


@dataclass
class Task:
    id: str
    run: Callable[[], Outcome]
    known: frozenset[str] = frozenset()  # KNOWN_DEFECTS causes accepted here


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One log-uniform draw in each of k equal log-width strata of [lo, hi],
    so that every seed covers the whole range at about the same cost."""
    a, b = math.log10(lo), math.log10(hi)
    w = (b - a) / k
    return [10.0 ** (a + (i + rng.random()) * w) for i in range(k)]


# ------------------------------------------------------------ CLI plumbing

def _run_cli(argv: list[str], files: list[Path]):
    """bnlab.cli.main in-process; returns (exit code, stderr, file bytes)."""
    cli = sys.modules["bnlab.cli"]  # looked up per call: the tracer wraps main
    for f in files:
        f.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    blobs = [f.read_bytes() if f.exists() else b"" for f in files]
    return rc, err.getvalue(), blobs


def _cli_outcome(rc, stderr, blobs, failures) -> Outcome:
    output = f"rc={rc}\n{stderr}".encode() + b"\0".join(blobs)
    return Outcome(output, failures, sum(len(b) for b in blobs),
                   stderr.strip())


def _doc(blob: bytes) -> dict:
    return json.loads(blob.decode())


# ------------------------------------------------------------------ solve

SOLVE_RANGES = {4: (4.9e-4, 0.5), 5: (7.5e-7, 0.074)}
SOLVE_STRATA = 5


def solve_task(workdir: Path, N: int, eps: float, tid: str) -> Task:
    prof = workdir / f"{tid}.csv"
    out = workdir / f"{tid}.json"
    argv = ["solve", "--n", str(N), "--q", f"{Q:g}", "--eps", repr(eps),
            "--profile", str(prof), "--output", str(out)]

    def run() -> Outcome:
        rc, err, blobs = _run_cli(argv, [prof, out])
        fails = []
        if rc != 0:
            stalled = rc == 3 and "bisection stalled" in err
            fails.append("solve.stalled" if stalled else f"solve.exit_{rc}")
        else:
            d = _doc(blobs[1])
            if not abs(d["eps"] - eps) <= EPS_TOL * eps:
                fails.append("solve.eps_mismatch")
            if not d["nehari_residual"] <= NEHARI_TOL:
                fails.append("solve.nehari_residual")
            if not d["pohozaev_residual"] <= POHOZAEV_TOL:
                fails.append("solve.pohozaev_residual")
            rows = blobs[0].decode().splitlines()
            if rows[0] != "r,u,du" or len(rows) != PROFILE_ROWS + 1:
                fails.append("solve.profile_rows")
        return _cli_outcome(rc, err, blobs, fails)

    known = {"solve.stalled"} if N == STALL_N and eps <= STALL_EPS_MAX else ()
    return Task(tid, run, frozenset(known))


def branch_map_task(workdir: Path) -> Task:
    rec = workdir / "branch_map.csv"
    out = workdir / "branch_map.json"
    argv = ["branch-map", "--n", "3", "--q", f"{Q:g}",
            "--records", str(rec), "--output", str(out)]

    def run() -> Outcome:
        rc, err, blobs = _run_cli(argv, [rec, out])
        fails = []
        if rc != 0:
            fails.append(f"branch_map.exit_{rc}")
        elif not _doc(blobs[1])["has_fold"]:
            fails.append("branch_map.no_fold")
        return _cli_outcome(rc, err, blobs, fails)

    return Task("branch_map_n3", run)


def verify_task(workdir: Path) -> Task:
    out = workdir / "verify.json"
    argv = ["verify", "--output", str(out)]

    def run() -> Outcome:
        rc, err, blobs = _run_cli(argv, [out])
        fails = []
        if rc != 0 or not _doc(blobs[0])["all_pass"]:
            fails.append(f"verify.exit_{rc}")
        return _cli_outcome(rc, err, blobs, fails)

    return Task("verify", run)


class Solve:
    """solve --eps at stratified log-uniform targets, one branch map, one
    verify.  Mostly shooting inside solve_for_eps."""

    name = "solve"

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(f"solve:{seed}")
        targets = {N: _strata(rng, *SOLVE_RANGES[N], SOLVE_STRATA)
                   for N in (4, 5)}
        return {"targets": targets, "workdir": workdir}

    def tasks(self, state: dict) -> list[Task]:
        wd = state["workdir"]
        out = [solve_task(wd, N, e, f"solve_n{N}_eps{e:.6e}")
               for N, targets in state["targets"].items() for e in targets]
        return out + [branch_map_task(wd), verify_task(wd)]


# ------------------------------------------------------------------ sweep

SWEEP_POINTS = 25
SWEEP_SPACING = 6.0 / (SWEEP_POINTS - 1)  # decades between default points


def _aitken(x0, x1, x2):
    d1, d2 = x1 - x0, x2 - x1
    return x2 if d2 == d1 else x2 - d2 * d2 / (d2 - d1)


def sweep_task(workdir: Path, N: int, lo: float, hi: float) -> Task:
    tid = f"sweep_n{N}"
    rec = workdir / f"{tid}.csv"
    out = workdir / f"{tid}.json"
    argv = ["sweep", "--n", str(N), "--q", f"{Q:g}",
            "--points", str(SWEEP_POINTS),
            "--eps-tilde-min", repr(lo), "--eps-tilde-max", repr(hi),
            "--skip-spectrum", "--jobs", "1",
            "--records", str(rec), "--output", str(out)]

    def run() -> Outcome:
        rc, err, blobs = _run_cli(argv, [rec, out])
        fails = []
        if rc != 0:
            fails.append(f"sweep.exit_{rc}")
            return _cli_outcome(rc, err, blobs, fails)
        d = _doc(blobs[1])
        records = list(csv.DictReader(io.StringIO(blobs[0].decode())))
        prod = [float(r["blowup_product"]) for r in records]
        est, est_dropped = _aitken(*prod[-3:]), _aitken(*prod[-4:-1])
        if not d["blowup_fit"]["rel_error"] <= BLOWUP_TOL:
            fails.append("sweep.blowup_fit")
        if not abs(est - est_dropped) <= BLOWUP_STABLE * abs(est):
            fails.append("sweep.blowup_unstable")
        if not d["deficit_fit"]["rel_error"] <= DEFICIT_TOL:
            fails.append("sweep.deficit_fit")
        dfit = d["decomposition_fit"]
        slope_max = dfit["slope_target"] + DECOMP_SLOPE_MARGIN
        if not dfit["slope_estimate"] <= slope_max:
            fails.append("sweep.decomposition_fit")
        alpha = (N * (N - 2.0)) ** ((N - 2.0) / 4.0)
        if not abs(d["alpha_final"] - alpha) <= ALPHA_TOL * alpha:
            fails.append("sweep.alpha_final")
        if not all(float(r["nehari_residual"]) <= NEHARI_TOL
                   and float(r["pohozaev_residual"]) <= POHOZAEV_TOL
                   for r in records):
            fails.append("sweep.residuals")
        return _cli_outcome(rc, err, blobs, fails)

    return Task(tid, run)


class Sweep:
    """sweep --skip-spectrum for N=4 and N=5 on the default 25-point grid,
    each endpoint moved outward by up to one grid spacing.  Mostly
    fit_decomposition."""

    name = "sweep"

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(f"sweep:{seed}")
        grids = {}
        # outward only: the blow-up fit needs 3 decades of eps, and the
        # default N=4 grid has just that many
        for N in (4, 5):
            hi = 10.0 ** (-2.0 + SWEEP_SPACING * rng.random())
            lo = 10.0 ** (-8.0 - SWEEP_SPACING * rng.random())
            grids[N] = (lo, hi)
        return {"grids": grids, "workdir": workdir}

    def tasks(self, state: dict) -> list[Task]:
        return [sweep_task(state["workdir"], N, lo, hi)
                for N, (lo, hi) in state["grids"].items()]


# --------------------------------------------------------------- spectrum

# log10 eps_tilde ranges.  Per N, ell = 1 and ell = 2 take mirrored points
# of ELL12_RANGE (u and 1 - u along it): both searches cost more the deeper
# they go, so the pair costs about the same for every seed.  The ell = 0
# searches grow steeply in cost as eps_tilde falls (N=5: 2 s at 1e-2, 21 s
# at 1e-6), so they stay near the shallow end; RATIONALE.md gives the
# measured costs.
ELL12_RANGE = (-7.0, -2.0)
ELL0_RANGES = {5: (-2.5, -2.0), 4: (-2.5, -2.0)}
# fixed deep-end probe: the ell = 1 plateau defect of ROADMAP item 2
PLATEAU_PROBE = (4, 1, 1e-7)
CERT_RANGE = (-2.25, -2.0)  # shallow N=5 point for the certificate
CERT_ELL_MAX = 2


def _hexf(x) -> str:
    return "None" if x is None else float(x).hex()


class Spectrum:
    """One eigenvalues_near_zero per task (one mode of `bnlab spectrum`),
    plus one nondegeneracy certificate.  Base solutions and the ell = 1
    plateau references are computed in set-up."""

    name = "spectrum"

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(f"spectrum:{seed}")
        lo, hi = ELL12_RANGE
        modes = []
        for N in (4, 5):
            u = rng.random()
            modes += [(N, 1, 10.0 ** (lo + u * (hi - lo))),
                      (N, 2, 10.0 ** (hi - u * (hi - lo)))]
        modes += [(N, 0, 10.0 ** rng.uniform(*r))
                  for N, r in ELL0_RANGES.items()]
        modes.append(PLATEAU_PROBE)
        cert_et = 10.0 ** rng.uniform(*CERT_RANGE)
        need = {4: {PLATEAU_REF_ET}, 5: {PLATEAU_REF_ET, cert_et}}
        for N, _, et in modes:
            need[N].add(et)
        sols = {}
        for N, ets in need.items():
            grid = sorted(ets, reverse=True)
            _, kept = sweep_with_solutions(Params(N, Q), grid)
            if len(kept) != len(grid):
                raise RuntimeError(f"base solutions missing for N={N}")
            sols.update({(N, s.eps_tilde): s for s in kept})
        return {"modes": modes, "cert": (5, cert_et), "sols": sols}

    def references(self, state: dict) -> None:
        """mu^2 lambda_1 at eps_tilde = 1e-5 for each N (ROADMAP item 2)."""
        lin = sys.modules["bnlab.linearization"]
        state["plateau"] = {}
        for N in (4, 5):
            sol = state["sols"][(N, PLATEAU_REF_ET)]
            _, above, _ = lin.eigenvalues_near_zero(
                lin.build_mode_operator(Params(N, Q), sol, 1))
            state["plateau"][N] = sol.mu ** 2 * above

    def tasks(self, state: dict) -> list[Task]:
        out = [self._mode_task(state, N, ell, et)
               for N, ell, et in state["modes"]]
        return out + [self._cert_task(state)]

    @staticmethod
    def _mode_task(state, N, ell, et) -> Task:
        sol = state["sols"][(N, et)]
        p = Params(N, Q)

        def run() -> Outcome:
            lin = sys.modules["bnlab.linearization"]
            below, above, m0 = lin.eigenvalues_near_zero(
                lin.build_mode_operator(p, sol, ell))
            fails, detail = [], f"n_negative={m0} above={above!r}"
            if m0 != (1 if ell == 0 else 0):
                fails.append("spectrum.morse_index")
            if ell == 1:
                ratio = sol.mu ** 2 * above / state["plateau"][N]
                detail += f" mu^2*lambda_1/plateau={ratio!r}"
                if not 1.0 / PLATEAU_FACTOR <= ratio <= PLATEAU_FACTOR:
                    fails.append("spectrum.l1_plateau")
            out = f"{_hexf(below)} {_hexf(above)} {m0}".encode()
            return Outcome(out, fails, detail=detail)

        defect = (N == PLATEAU_DEFECT_N and ell == 1
                  and et <= PLATEAU_DEFECT_ET_MAX)
        known = {"spectrum.l1_plateau"} if defect else ()
        return Task(f"mode_n{N}_l{ell}_et{et:.6e}", run, frozenset(known))

    @staticmethod
    def _cert_task(state) -> Task:
        N, et = state["cert"]
        sol = state["sols"][(N, et)]
        p = Params(N, Q)

        def run() -> Outcome:
            lin = sys.modules["bnlab.linearization"]
            ok, rep = lin.nondegeneracy_certificate(p, sol,
                                                    ell_max=CERT_ELL_MAX)
            fails = []
            if not ok:
                fails.append("spectrum.certificate")
            per = rep["per_mode"]
            if any(m["n_negative"] != (1 if ell == 0 else 0)
                   for ell, m in per.items()):
                fails.append("spectrum.morse_index")
            out = " ".join(
                f"{ell}:{_hexf(m['nearest_below'])}:"
                f"{_hexf(m['nearest_above'])}:{m['n_negative']}"
                for ell, m in per.items()
            ).encode()
            return Outcome(out + f" {ok}".encode(), fails,
                           detail=f"min_abs={rep['min_abs_overall']!r}")

        return Task(f"certificate_n{N}_et{et:.6e}", run)


WORKLOADS = {w.name: w for w in (Solve(), Sweep(), Spectrum())}
