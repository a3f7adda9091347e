"""Span tracer for the traced benchmark run.

The tracer replaces named bnlab functions by timing wrappers, in every
``bnlab`` module namespace that binds them, so a call is recorded whichever
module it is made from.  Each span keeps its name, start, end, parent span,
task id and a few attributes read from the call's arguments or result.
Spans stay in memory until the run ends.

Nothing inside ``src/bnlab`` is changed on disk: the wrappers live only in
the benchmark process and are removed by ``uninstall``.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    task: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# attribute readers: (args, kwargs, result) -> dict.  A reader that fails
# leaves its attributes out, so a field that a later version of bnlab drops
# makes the derived metric absent instead of crashing the run.

def _shoot_attrs(args, kwargs, out):
    return {"steps": len(out.r_grid) - 1}


def _residuals(sols):
    return {"nehari": max(float(s.nehari_residual) for s in sols),
            "pohozaev": max(float(s.pohozaev_residual) for s in sols)}


def _solve_attrs(args, kwargs, out):
    return _residuals([out])


def _sweep_attrs(args, kwargs, out):
    grid = args[1] if len(args) > 1 else kwargs.get("eps_tilde_grid")
    requested = 25 if grid is None else len(grid)
    attrs = {"requested": requested, "converged": len(out[0])}
    if out[1]:
        attrs.update(_residuals(out[1]))
    return attrs


def _eig_attrs(args, kwargs, out):
    op = args[0] if args else kwargs["op"]
    below = out[0]
    return {"ell": int(op.ell), "resolved": 1 + (below is not None)}


# (span name, defining module, attribute, attribute reader)
TRACED = [
    ("solver.shoot", "bnlab.solver", "shoot", _shoot_attrs),
    ("solver.solve_for_eps", "bnlab.solver", "solve_for_eps", _solve_attrs),
    ("solver.scale_to_unit_ball", "bnlab.solver", "scale_to_unit_ball", None),
    ("asymptotics.sweep_with_solutions", "bnlab.asymptotics",
     "sweep_with_solutions", _sweep_attrs),
    ("asymptotics.profile_distance", "bnlab.asymptotics",
     "profile_distance", None),
    ("asymptotics.upper_bound_check", "bnlab.asymptotics",
     "upper_bound_check", None),
    ("asymptotics.blowup_rate_fit", "bnlab.asymptotics",
     "blowup_rate_fit", None),
    ("asymptotics.deficit_rate_fit", "bnlab.asymptotics",
     "deficit_rate_fit", None),
    ("asymptotics.boundary_green_limit", "bnlab.asymptotics",
     "boundary_green_limit", None),
    ("asymptotics.branch_map", "bnlab.asymptotics", "branch_map", None),
    ("decomposition.fit_decomposition", "bnlab.decomposition",
     "fit_decomposition", None),
    ("decomposition.perturbation_order_fit", "bnlab.decomposition",
     "perturbation_order_fit", None),
    ("linearization.eigenvalues_near_zero", "bnlab.linearization",
     "eigenvalues_near_zero", _eig_attrs),
    ("linearization.nondegeneracy_certificate", "bnlab.linearization",
     "nondegeneracy_certificate", None),
    ("linearization._shoot_mode", "bnlab.linearization", "_shoot_mode", None),
    ("cli.main", "bnlab.cli", "main", None),
    ("green.surface_identity_suite", "bnlab.green",
     "surface_identity_suite", None),
    ("bubbles.harmonic_correction", "bnlab.bubbles",
     "harmonic_correction", None),
]

FITS = ("asymptotics.blowup_rate_fit", "asymptotics.deficit_rate_fit",
        "asymptotics.boundary_green_limit")


def _constants_targets():
    """Every public function defined in bnlab.constants."""
    mod = sys.modules["bnlab.constants"]
    return [
        (f"constants.{name}", "bnlab.constants", name, None)
        for name, fn in vars(mod).items()
        if inspect.isfunction(fn) and not name.startswith("_")
        and fn.__module__ == "bnlab.constants"
    ]


class Tracer:
    """Records nested spans around calls into bnlab."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.task: str | None = None
        self.present: set[str] = set()  # span names whose function exists

    # ------------------------------------------------------------ recording

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), float("nan"),
                    parent, self.task)
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, reader):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.end(span)
                span.attrs["error"] = True
                raise
            tracer.end(span)
            if reader is not None:
                try:
                    span.attrs.update(reader(args, kwargs, out))
                except (AttributeError, KeyError, IndexError, TypeError):
                    pass
            return out

        return wrapper

    # --------------------------------------------------------- installation

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if m is not None
                   and (n == "bnlab" or n.startswith("bnlab."))]
        for name, modname, attr, reader in TRACED + _constants_targets():
            orig = getattr(sys.modules.get(modname), attr, None)
            if orig is None:
                continue  # renamed or removed: its metrics are absent
            self.present.add(name)
            wrapper = self._wrap(name, orig, reader)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    # ------------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def has_ancestor(self, span: Span, name: str) -> bool:
        p = span.parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for s, st in zip(self.spans, selfs):
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "task": s.task,
                    "self_s": st, "attrs": s.attrs,
                }) + "\n")


def _p50(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tr: Tracer, bytes_written: int) -> dict:
    """Per-layer metrics of one traced round, keyed by metric name.

    A metric whose function no longer exists in bnlab is left out; one whose
    function exists but is not called on this workload reads zero.
    """
    selfs = tr.self_times()
    by_name: dict[str, list[tuple[Span, float]]] = {}
    for s, st in zip(tr.spans, selfs):
        by_name.setdefault(s.name, []).append((s, st))

    def spans(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(st for _, st in spans(name))

    def attr_values(name, key):
        return [s.attrs[key] for s, _ in spans(name) if key in s.attrs]

    m: dict[str, float] = {}

    def put(metric, needs, value):
        if all(n in tr.present for n in needs):
            m[metric] = value() if callable(value) else value

    shoot = "solver.shoot"
    put("solver.shoot.calls", [shoot], len(spans(shoot)))
    put("solver.shoot.self_s", [shoot], self_s(shoot))
    put("solver.shoot.p50_ms", [shoot],
        lambda: 1e3 * _p50([s.duration for s, _ in spans(shoot)]))
    steps = attr_values(shoot, "steps")
    if steps or not spans(shoot):
        put("solver.shoot.steps_p50", [shoot], _p50(steps))

    sfe = "solver.solve_for_eps"
    put("solver.solve_for_eps.self_s", [sfe], self_s(sfe))
    delivered = sum(1 for s, _ in spans(sfe) if not s.attrs.get("error"))
    inner = sum(1 for s, _ in spans(shoot) if tr.has_ancestor(s, sfe))
    put("solver.solve_for_eps.shoots_per_call", [sfe, shoot],
        inner / delivered if delivered else 0.0)

    stub = "solver.scale_to_unit_ball"
    put("solver.scale_to_unit_ball.self_s", [stub], self_s(stub))
    # residuals of the solutions delivered to the user: those returned by
    # solve_for_eps and kept by sweep_with_solutions, not bracketing shoots
    sws = "asymptotics.sweep_with_solutions"
    for key in ("nehari", "pohozaev"):
        vals = attr_values(sfe, key) + attr_values(sws, key)
        put(f"solver.max_{key}_residual", [sfe, sws], max(vals, default=0.0))

    for name in ("asymptotics.sweep_with_solutions",
                 "asymptotics.profile_distance",
                 "asymptotics.upper_bound_check",
                 "asymptotics.branch_map",
                 "decomposition.fit_decomposition",
                 "decomposition.perturbation_order_fit",
                 "linearization.eigenvalues_near_zero",
                 "linearization.nondegeneracy_certificate",
                 "cli.main",
                 "green.surface_identity_suite",
                 "bubbles.harmonic_correction"):
        put(f"{name}.self_s", [name], self_s(name))
    put("asymptotics.fits.self_s", list(FITS),
        lambda: sum(self_s(n) for n in FITS))

    req = sum(attr_values(sws, "requested"))
    put("asymptotics.points_converged_ratio", [sws],
        sum(attr_values(sws, "converged")) / req if req else 0.0)

    bm = "asymptotics.branch_map"
    put("asymptotics.branch_map.shoots", [bm, shoot],
        sum(1 for s, _ in spans(shoot) if tr.has_ancestor(s, bm)))

    fd = "decomposition.fit_decomposition"
    put(f"{fd}.calls", [fd], len(spans(fd)))
    put(f"{fd}.p50_ms", [fd],
        lambda: 1e3 * _p50([s.duration for s, _ in spans(fd)]))

    enz = "linearization.eigenvalues_near_zero"
    put(f"{enz}.ell0_p50_s", [enz], lambda: _p50(
        [s.duration for s, _ in spans(enz) if s.attrs.get("ell") == 0]))
    put(f"{enz}.ell_ge1_p50_s", [enz], lambda: _p50(
        [s.duration for s, _ in spans(enz) if s.attrs.get("ell", 0) >= 1]))

    mode = "linearization._shoot_mode"
    n_mode = len(spans(mode))
    resolved = sum(attr_values(enz, "resolved"))
    put("linearization.mode_shoots", [mode], n_mode)
    put("linearization.mode_shoots.self_s", [mode], self_s(mode))
    put("linearization.mode_shoots_per_eigenvalue", [mode, enz],
        n_mode / resolved if resolved else 0.0)

    put("cli.bytes_written", ["cli.main"], bytes_written)

    const = [n for n in tr.present if n.startswith("constants.")]
    if const:
        m["constants.self_s"] = sum(self_s(n) for n in const)
    return m
