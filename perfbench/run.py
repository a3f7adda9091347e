#!/usr/bin/env python3
"""bnlab benchmark: end-to-end and per-layer timings of the bnlab CLI/API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {solve,sweep,spectrum} \
        --seed N --seconds S --trace {0,1}

The run sets the workload up from the seed, then runs its task list in
rounds for about S seconds (at least one round), checking every task's
output.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it runs one untraced and one traced round, checks that both
give the same outputs bit for bit and prints the per-layer metrics.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

bnlab is imported from ``src/`` of the checkout; without it the run exits
with code 2 and prints no result.  RATIONALE.md explains the workloads,
checks and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 3
SPAN_TOL = 1e-3  # s: a task's self times against its own timed window
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
IMPORTS = "import numpy, scipy.integrate, scipy.optimize, bnlab, bnlab.cli"
# Reference import: the same interpreter start-up and third-party imports
# without bnlab.  Import time drifts with the host and the speed probe
# below does not track it; this reference does (RATIONALE.md), so an
# import time divided by (reference time / IMPORT_REF_S) is in seconds of
# a machine where the reference takes IMPORT_REF_S.
REF_IMPORTS = "import numpy, scipy.integrate, scipy.optimize"
IMPORT_REF_S = 0.8
# Speed probe: scipy work shaped like bnlab's, and no bnlab code.  It is a
# DOP853 solve of a small ODE (as in a shoot) plus an evaluation of a fixed
# dense DOP853 solution at PROBE_POINTS radii (as in the interpolant reads
# of fit_decomposition).  On a shared host the CPU speed drifts by up to
# 1.4x within seconds and the probe's time tracks that drift, so a time
# divided by (probe time / PROBE_REF_S) is in seconds of a machine where
# the probe takes PROBE_REF_S.  A SIGALRM timer runs the probe every
# PROBE_PERIOD_S of wall time; probe time is subtracted from the work it
# interrupts.  RATIONALE.md has the measurements, and why bursts between
# tasks instead do not track the drift.
PROBE_REF_S = 0.010
PROBE_PERIOD_S = 0.25
PROBE_MIN_SAMPLES = 5
PROBE_POINTS = 512


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= NPROC:
            os.environ[var] = str(NPROC)


def child_seconds(code: str) -> float:
    """Wall time of a fresh interpreter that runs `code`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   cwd=ROOT, timeout=120)
    return time.perf_counter() - t0


def _probe_rhs(t, y):
    return (y[1], -y[0] * (1.0 + 0.1 * y[0] * y[0]))


class SpeedSampler:
    """Samples the speed probe on a wall-clock timer while work runs."""

    def __init__(self):
        import numpy as np
        from scipy.integrate import solve_ivp

        self._solve_ivp = solve_ivp
        self._dense = self._solve((0.0, 20.0)).sol
        self._radii = np.linspace(0.0, 20.0, PROBE_POINTS)
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def _solve(self, span):
        return self._solve_ivp(_probe_rhs, span, (1.0, 0.0), method="DOP853",
                               rtol=1e-12, atol=1e-14, dense_output=True)

    def probe(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self._solve((0.0, 4.0))
        self._dense(self._radii)
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        for _ in range(3):  # warm-up: first calls pay one-off costs
            self.probe()
        self.samples.clear()
        for _ in range(PROBE_MIN_SAMPLES):  # so that work of any length
            self.probe()                    # has samples near it
        signal.signal(signal.SIGALRM, self.probe)
        self.resume()
        return self

    def __exit__(self, *exc):
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def pause(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def resume(self):
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def timed(self, fn):
        """(fn(), raw, normalised) for one piece of work: raw is its wall
        time minus the probes inside it, normalised is raw times the mean
        probe speed of those probes (at least the PROBE_MIN_SAMPLES
        nearest), in probes per PROBE_REF_S.  Work done is speed integrated
        over time, so the mean speed, not the median probe time, matches
        it."""
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        inside = [d for t, d in self.samples if t0 <= t < t1]
        raw = (t1 - t0) - sum(inside)
        near = inside
        if len(near) < PROBE_MIN_SAMPLES:
            mid = 0.5 * (t0 + t1)
            near = [d for _, d in sorted(self.samples,
                                         key=lambda s: abs(s[0] - mid))
                    [:PROBE_MIN_SAMPLES]]
        return out, raw, raw * PROBE_REF_S * statistics.fmean(
            1.0 / d for d in near)


def set_up(wl, seed: int, workdir: Path, sampler: SpeedSampler,
           repeats: int):
    """Run the set-up `repeats` times; returns the first repetition's state,
    setup_s and the raw set-up time.  A repetition is a fresh interpreter's
    imports, normalised by the reference import, plus the workload's own
    set-up, normalised by the speed probe; setup_s is the median over
    repetitions.  One-off references (the spectrum plateau) are fixed work
    that does not depend on the seed; they run once and are added."""
    norm, raw, state = [], [], None
    for _ in range(repeats):
        gc.collect()
        # no probes while a child process runs: they would compete with it
        sampler.pause()
        imp = child_seconds(IMPORTS)
        ref = child_seconds(REF_IMPORTS)
        sampler.resume()
        st, wl_raw, wl_norm = sampler.timed(lambda: wl.setup(seed, workdir))
        norm.append(imp * IMPORT_REF_S / ref + wl_norm)
        raw.append(imp + wl_raw)
        if state is None:
            state = st
    setup_s, setup_raw = statistics.median(norm), statistics.median(raw)
    if hasattr(wl, "references"):
        _, r_raw, r_norm = sampler.timed(lambda: wl.references(state))
        setup_s, setup_raw = setup_s + r_norm, setup_raw + r_raw
    return state, setup_s, setup_raw


def attempt(task):
    """Run one task; a crash is a failed task, not a failed run."""
    from workloads import Outcome

    try:
        return task.run()
    except Exception as exc:
        return Outcome(repr(exc).encode(),
                       [f"exception.{type(exc).__name__}"], detail=repr(exc))


def run_round(tasks, sampler: SpeedSampler):
    """Run every task once; returns the outcomes and each task's (raw,
    normalised) seconds."""
    outs, times = [], []
    for task in tasks:
        gc.collect()  # as if each task were its own process: see RATIONALE
        out, raw, norm = sampler.timed(lambda: attempt(task))
        outs.append(out)
        times.append((raw, norm))
    return outs, times


def traced_round(tasks, ref, spans_path):
    """One round under the tracer, with no speed probes; returns (raw
    round seconds, layer metrics, problems)."""
    import tracer as tracing

    tr = tracing.Tracer()
    tr.install()
    outs, windows = [], {}
    try:
        for task in tasks:
            gc.collect()
            tr.task = task.id
            span = tr.begin("task")
            t0 = time.perf_counter()
            outs.append(attempt(task))
            windows[task.id] = time.perf_counter() - t0
            tr.end(span)
    finally:
        tr.uninstall()
    problems = mismatches(tasks, outs, ref, "traced run")
    problems += check_spans(tr, windows)
    tr.write(spans_path)
    layer = tracing.layer_metrics(tr, sum(o.bytes_written for o in outs))
    return sum(windows.values()), layer, problems


def check_spans(tracer, windows) -> list[str]:
    """Every span closed with a self time >= 0, and each task's self times
    adding up to the window timed around the task outside the spans."""
    sums = dict.fromkeys(windows, 0.0)
    problems = []
    for s, st in zip(tracer.spans, tracer.self_times()):
        if not st >= -1e-9:  # also catches a span that never closed (nan)
            problems.append(f"span {s.sid} {s.name} of {s.task}: "
                            f"self time {st!r} s")
        sums[s.task] = sums.get(s.task, 0.0) + st
    return problems + [
        f"self times of {t} sum to {sums[t]!r} s, its window is {w!r} s"
        for t, w in windows.items() if not abs(sums[t] - w) <= SPAN_TOL]


def mismatches(tasks, outs, ref, label) -> list[str]:
    return [f"{label}: output of {t.id} differs from round 1"
            for t, o, r in zip(tasks, outs, ref) if o.output != r]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bnlab" / "__init__.py").is_file():
        print(f"error: no bnlab sources under {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(SRC))
    import bnlab
    if Path(bnlab.__file__).resolve().parent != (SRC / "bnlab").resolve():
        print(f"error: imported bnlab from {bnlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import numpy
    import scipy

    from workloads import KNOWN_DEFECTS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = WORK / wl.name
    workdir.mkdir(parents=True, exist_ok=True)

    # untraced rounds: at least one, then more while one is expected to fit
    rounds = []
    with SpeedSampler() as sampler:
        # a traced run reports no setup_s, so it sets up once
        repeats = 1 if args.trace else SETUP_REPEATS
        state, setup_s, setup_raw = set_up(wl, args.seed, workdir, sampler,
                                           repeats)
        tasks = wl.tasks(state)
        t_start = time.perf_counter()
        while True:
            rounds.append(run_round(tasks, sampler))
            spent = time.perf_counter() - t_start
            if args.trace or spent + spent / len(rounds) > args.seconds:
                break
    # later rounds and the traced round must reproduce round 1 bit for
    # bit, so round 1 alone gives attempted and failed: how many rounds
    # fit in --seconds depends on speed, the failures do not
    first, first_times = rounds[0]
    ref = [o.output for o in first]
    problems = [p for i, (outs, _) in enumerate(rounds[1:], 2)
                for p in mismatches(tasks, outs, ref, f"round {i}")]
    problems += [f"{t.id} failed: {c}" for t, o in zip(tasks, first)
                 for c in o.failures if c not in t.known]
    raw_wall = statistics.median(sum(r for r, _ in ts) for _, ts in rounds)
    probe_ms = 1e3 * statistics.median(d for _, d in sampler.samples)
    if args.trace:
        traced_wall, layer, traced_problems = traced_round(
            tasks, ref, workdir / f"spans-seed{args.seed}.jsonl")
        layer["trace.overhead_s"] = traced_wall - sum(
            r for r, _ in first_times)
        layer["raw_wall_s"] = raw_wall
        layer["speed.probe_ms"] = probe_ms
        problems += traced_problems

    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(n for _, n in ts)
                                     for _, ts in rounds), "s"),
        "task_p50_s": (statistics.median(n for _, ts in rounds
                                         for _, n in ts), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }

    print(f"bnlab benchmark: workload={wl.name} seed={args.seed} "
          f"trace={args.trace} rounds={len(rounds)} "
          f"raw_setup_s={setup_raw:.6g} raw_wall_s={raw_wall:.6g} "
          f"probe_ms={probe_ms:.4g} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"nproc={NPROC}")
    for name, (v, unit) in e2e.items():
        print(f"  {name:<14} {v:12.6g} {unit}")
    failed = sum(1 for o in first if o.failures)
    print(f"  {'tasks':<14} {len(tasks):12d} count")
    print(f"  {'tasks_failed':<14} {failed:12d} count")
    for task, o, (raw, norm) in zip(tasks, first, first_times):
        print(f"  task {task.id:<34} {norm:9.4f} s (raw {raw:.4f} s)")
        for c in o.failures:
            why = KNOWN_DEFECTS[c] if c in task.known else "UNEXPECTED"
            print(f"    failed: {c} ({why})")
        if o.failures and o.detail:
            print(f"    {o.detail}")
    for p in problems:
        print(f"  problem: {p}")

    if args.trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in spec if m["name"] in layer}
        for name, m in metrics.items():
            print(f"  {name:<52} {m['value']!r} {m['unit']}")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": len(tasks),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
