"""Command-line surface: solve, sweep, verify, decompose, spectrum,
constants, branch-map.  All outputs are deterministic CSV/JSON for
downstream plotting; numbers carry 17 significant digits (15 in
`constants`), and a non-finite value is written as a quoted string
("nan", "inf", "-inf") in CSV cells as in JSON.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
3 unreachable target parameter, 4 numerical or other internal failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import asymptotics as asy
from . import bubbles, decomposition, green, solver
from . import constants as cst
from . import linearization as lin
from .constants import Params
from .errors import BnlabError, DomainError, UnreachableEpsError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_UNREACHABLE = 3
EXIT_NUMERICAL = 4

SCHEMA_VERSION = "1"

PROFILE_HEADER = "r,u,du"
SWEEP_HEADER = ",".join(asy.SWEEP_FIELDS)


def _fmt(x, digits: int = 17) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return "null"
    v = float(x)
    # math, not numpy: on a Python float np.isnan costs over ten times more
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return format(v, f".{digits}g")


def _table(header: str, columns) -> str:
    """CSV text: the header line, then one line per row of the float
    columns, written by one % call: "%.17g" writes the bytes of _fmt for a
    finite float, and a row that holds a non-finite value enters the
    template as its _fmt cells, which hold no %."""
    rows = np.array(columns, dtype=float).T
    finite = np.isfinite(rows).all(axis=1)
    lines = [",".join(["%.17g"] * rows.shape[1]) + "\n"] * len(rows)
    for i in np.flatnonzero(~finite).tolist():
        lines[i] = ",".join(map(_fmt, rows[i].tolist())) + "\n"
    return header + "\n" + "".join(lines) % tuple(
        rows[finite].ravel().tolist())


def _json(obj, digits: int = 17) -> str:
    """Minimal deterministic JSON emitter with fixed-significance floats."""
    if isinstance(obj, dict):
        items = ",".join(
            f"{json.dumps(k)}:{_json(v, digits)}" for k, v in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_json(v, digits) for v in obj) + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    return _fmt(obj, digits)


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params(args) -> Params:
    p = Params(args.n, args.q)
    p.require_regime()
    return p


def _header(p: Params) -> dict:
    return {"schema_version": SCHEMA_VERSION, "n": p.N, "q": p.q}


# ---------------------------------------------------------------- commands


def cmd_constants(args) -> int:
    p = _params(args)
    doc = {
        **_header(p),
        "alpha_n": cst.alpha_n(p.N),
        "omega_n": cst.omega_n(p.N),
        "c_nq": cst.c_nq(p),
        "alpha_nq": cst.alpha_nq(p),
        "s_n2": cst.sobolev_sn2_exact(p.N),
        "blowup_target": cst.blowup_target(p),
    }
    _emit(_json(doc, digits=15) + "\n", args.output)
    return EXIT_OK


def _solution_doc(sol) -> dict:
    return {
        **_header(sol.params),
        "eps": sol.eps,
        "eps_tilde": sol.eps_tilde,
        "mu": sol.mu,
        "r_tilde": sol.R_tilde,
        "energy": sol.energy,
        "grad_sq": sol.grad_sq,
        "l2star_norm": sol.l2star_norm,
        "lq_norm_q": sol.lq_norm_q,
        "nehari_residual": sol.nehari_residual,
        "pohozaev_residual": sol.pohozaev_residual,
        "du_at_boundary": sol.du_at_boundary,
    }


def _solve_solution(p: Params, args):
    if (args.eps is None) == (args.eps_tilde is None):
        raise DomainError("exactly one of --eps / --eps-tilde is required")
    if args.eps is not None:
        return solver.solve_for_eps(p, args.eps)
    return solver.solution_at(p, args.eps_tilde)


def cmd_solve(args) -> int:
    p = _params(args)
    sol = _solve_solution(p, args)
    _emit(_table(PROFILE_HEADER, sol.profile()), args.profile)
    _emit(_json(_solution_doc(sol)) + "\n", args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    p = _params(args)
    if args.points < 6:
        raise DomainError("sweep needs at least 6 grid points")
    lo, hi = args.eps_tilde_min, args.eps_tilde_max
    if not 0.0 < lo < hi < np.inf:
        raise DomainError(
            "need 0 < --eps-tilde-min < --eps-tilde-max < inf, "
            f"got {lo} and {hi}"
        )
    if args.spectrum_points < 1:
        raise DomainError("--spectrum-points must be at least 1")
    grid = asy.default_grid(args.points, lo, hi)
    records, sols = asy.sweep_with_solutions(p, grid, jobs=args.jobs)
    _emit(_table(SWEEP_HEADER, [[getattr(r, f) for r in records]
                                 for f in asy.SWEEP_FIELDS]), args.records)

    def fit_doc(f):
        return {
            "limit_estimate": f.limit_estimate,
            "target": f.target,
            "rel_error": f.rel_error,
            "slope_estimate": f.slope_estimate,
            "slope_target": f.slope_target,
        }

    doc = {
        **_header(p),
        "points_requested": args.points,
        "blowup_fit": fit_doc(asy.blowup_rate_fit(records)),
        "deficit_fit": fit_doc(asy.deficit_rate_fit(records)),
    }
    devs = asy.boundary_green_limit(sols)
    doc["boundary_green_deviations"] = list(devs)
    doc["boundary_green_decreasing"] = bool(np.all(np.diff(devs) < 0))
    decs = [decomposition.fit_decomposition(s) for s in sols]
    doc["decomposition_fit"] = fit_doc(
        decomposition.perturbation_order_fit(decs))
    doc["alpha_final"] = decs[-1].alpha
    if not args.skip_spectrum:
        certs = []
        idx = np.unique(np.linspace(0, len(sols) - 1, args.spectrum_points)
                        .astype(int))
        for i in idx:
            ok, rep = lin.nondegeneracy_certificate(p, sols[i])
            certs.append({"eps": records[i].eps, "nondegenerate": ok,
                          "min_abs": rep["min_abs_overall"]})
            if not rep["resolved"]:
                certs[-1]["resolved"] = False
        doc["nondegeneracy"] = certs
    _emit(_json(doc) + "\n", args.output)
    return EXIT_OK


def cmd_decompose(args) -> int:
    p = _params(args)
    sol = _solve_solution(p, args)
    d = decomposition.fit_decomposition(sol)
    doc = _solution_doc(sol)
    doc.update({
        "alpha": d.alpha,
        "alpha_target": cst.alpha_n(p.N),
        "lambda": d.lam,
        "lambda_scaled": d.lam_scaled,
        "w_h1_norm": d.w_h1_norm,
        "ortho_residual_pu": d.ortho_residuals[0],
        "ortho_residual_dlam_pu": d.ortho_residuals[1],
    })
    _emit(_json(doc) + "\n", args.output)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    p = _params(args)
    lin.check_certificate_options(args.ell_max, args.tol,
                                  args.potential_scale)
    sol = _solve_solution(p, args)
    ok, rep = lin.nondegeneracy_certificate(
        p, sol, ell_max=args.ell_max, tol=args.tol,
        potential_scale=args.potential_scale)
    modes = []
    for ell, m in rep["per_mode"].items():
        modes.append({"ell": ell, "n_negative": m["n_negative"],
                      "nearest_below_zero": m["nearest_below"],
                      "nearest_above_zero": m["nearest_above"],
                      "min_abs": m["min_abs"]})
        if m["dirichlet_bound"] is not None:
            modes[-1]["dirichlet_bound"] = m["dirichlet_bound"]
        if m["n_negative"] and m["nearest_below"] is None:
            # what the certificate checked in place of the Morse eigenvalue
            modes[-1]["no_eigenvalue_in"] = [-abs(m["nearest_above"]), 0.0]
        if not m["resolved"]:
            modes[-1]["resolved"] = False
    doc = _solution_doc(sol)
    doc.update({
        "potential_scale": args.potential_scale,
        "tol": args.tol,
        "nondegenerate": ok,
        "modes": modes,
    })
    _emit(_json(doc) + "\n", args.output)
    return EXIT_OK


def cmd_branch_map(args) -> int:
    p = Params(args.n, args.q)
    bm = asy.branch_map(p)
    _emit(_table("mu,eps,eps_tilde", [bm["mu"], bm["eps"], bm["eps_tilde"]]),
          args.records)
    doc = {
        **_header(p),
        "eps0": bm["eps0"],
        "mu_at_eps0": bm["mu_at_eps0"],
        "has_fold": bm["has_fold"],
    }
    _emit(_json(doc) + "\n", args.output)
    return EXIT_OK


# ----------------------------------------------------------------- verify


def _verify_checks(green_scale: float):
    """Full identity suite; yields (name, residual, threshold) triples."""
    yield ("omega_3", abs(cst.omega_n(3) - 4.0 * math.pi), 1e-12)

    for (N, q) in ((4, 3.0), (5, 3.0), (3, 5.0)):
        p = Params(N, q)
        yield (
            f"c_nq_quadrature_n{N}_q{q:g}",
            abs(cst.c_nq(p) - cst.c_nq_quadrature(p)) / cst.c_nq(p),
            1e-8,
        )
    for N in (3, 4, 5):
        s_exact = cst.sobolev_sn2_exact(N)
        yield (
            f"sobolev_gradient_oracle_n{N}",
            abs(cst.sobolev_sn2(N) - s_exact) / s_exact,
            1e-8,
        )
        yield (
            f"sobolev_mass_oracle_n{N}",
            abs(cst.sobolev_sn2_from_mass(N) - s_exact) / s_exact,
            1e-8,
        )

    for N in (3, 4, 5):
        g = green.BallGreen(N, constant_scale=green_scale)
        y = np.zeros(N)
        y[0] = 0.4
        suite = green.surface_identity_suite(g, y)
        for name, entry in suite.items():
            yield (f"{name}_n{N}", entry["residual"], 1e-6)
        x = np.zeros(N)
        x[-1] = 0.3
        yield (
            f"representation_n{N}",
            green.greens_representation_residual(g, x),
            1e-6,
        )
        # exact ball Robin value at the center: R^{2-N}/((N-2) omega_N)
        rb = 1.0 / ((N - 2.0) * cst.omega_n(N))
        yield (
            f"robin_center_n{N}",
            abs(green.robin(g, np.zeros(N)) - rb) / rb,
            1e-12,
        )

    # normalized bubble solves its equation at a sample point (radial form)
    N = 5
    r = 0.9
    h = 1e-5
    u0 = bubbles.normalized_bubble_r2(N, r * r)
    up = bubbles.normalized_bubble_r2(N, (r + h) * (r + h))
    um = bubbles.normalized_bubble_r2(N, (r - h) * (r - h))
    lap = (up - 2 * u0 + um) / h**2 + (N - 1) / r * (up - um) / (2 * h)
    p = Params(N, 3.0)
    yield (
        "bubble_pde_residual",
        abs(lap + u0 ** (p.two_star - 1.0)) / abs(lap),
        1e-5,
    )

    # harmonic correction: quadrature vs exact image form, off-center
    b = bubbles.Bubble(3, 5.0, np.array([0.3, 0.0, 0.0]))
    xq = np.array([0.0, 0.5, 0.0])
    hc = bubbles.harmonic_correction(b, xq)
    hx = bubbles.harmonic_correction_exact(b, xq)
    yield ("harmonic_correction_oracle", abs(hc - hx) / abs(hx), 1e-8)

    # projection limit: lam^{(N-2)/2} psi -> (N-2) omega_N H(0, x)
    N = 4
    g = green.BallGreen(N, constant_scale=green_scale)
    xh = np.array([0.5, 0.0, 0.0, 0.0])
    target = ((N - 2.0) * cst.omega_n(N)
              * green.regular_part(g, np.zeros(N), xh))
    lam = 1000.0
    bb = bubbles.Bubble(N, lam)
    val = lam ** ((N - 2.0) / 2.0) * bubbles.harmonic_correction_exact(bb, xh)
    yield ("projection_robin_limit", abs(val - target) / abs(target), 1e-4)

    # solver identity gates at a moderate parameter
    p = Params(4, 3.0)
    sol = solver.solution_at(p, 1e-3)
    yield ("solver_nehari", sol.nehari_residual, 1e-6)
    yield ("solver_pohozaev", sol.pohozaev_residual, 1e-6)
    yield (
        "solver_energy_below_limit",
        max(0.0, sol.energy - cst.sobolev_sn2_exact(4) / 4.0),
        1e-12,
    )


def cmd_verify(args) -> int:
    checks = []
    all_ok = True
    for name, residual, threshold in _verify_checks(args.fault_green_scale):
        ok = residual <= threshold
        all_ok = all_ok and ok
        checks.append({
            "name": name,
            "residual": residual,
            "threshold": threshold,
            "pass": bool(ok),
        })
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n_checks": len(checks),
        "all_pass": all_ok,
        "checks": checks,
    }
    _emit(_json(doc) + "\n", args.output)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


# ------------------------------------------------------------------ parser


def _add_common(sp, with_eps=False):
    sp.add_argument("--n", type=int, required=True, help="space dimension N")
    sp.add_argument("--q", type=float, required=True,
                    help="subcritical exponent q")
    sp.add_argument("--output", default=None,
                    help="JSON output path (stdout when omitted)")
    if with_eps:
        sp.add_argument("--eps", type=float, default=None,
                        help="target perturbation strength")
        sp.add_argument("--eps-tilde", type=float, default=None,
                        help="shooting parameter (alternative to --eps)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bnlab",
        description="Numerical laboratory for the critically perturbed "
        "Lane-Emden problem on the unit ball.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", help="closed-form constants as JSON")
    _add_common(sp)
    sp.set_defaults(fn=cmd_constants)

    sp = sub.add_parser("solve", help="one radial solution: profile + JSON")
    _add_common(sp, with_eps=True)
    sp.add_argument("--profile", default=None,
                    help="CSV profile path (stdout when omitted)")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("sweep", help="continuation sweep: CSV + fits JSON")
    _add_common(sp)
    sp.add_argument("--points", type=int, default=25)
    sp.add_argument("--eps-tilde-min", type=float, default=1e-8)
    sp.add_argument("--eps-tilde-max", type=float, default=1e-2)
    sp.add_argument("--records", default=None,
                    help="CSV records path (stdout when omitted)")
    sp.add_argument("--jobs", type=int, default=1,
                    help="parallel workers for sweep points")
    sp.add_argument("--skip-spectrum", action="store_true")
    sp.add_argument("--spectrum-points", type=int, default=3,
                    help="sweep points receiving a nondegeneracy certificate")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("verify", help="identity suite; exit 1 on failure")
    sp.add_argument("--output", default=None)
    sp.add_argument("--fault-green-scale", type=float, default=1.0,
                    help="fault injection: scales the Green constant")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("decompose", help="bubble decomposition of a solution")
    _add_common(sp, with_eps=True)
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("spectrum", help="mode eigenvalues nearest zero")
    _add_common(sp, with_eps=True)
    sp.add_argument("--ell-max", type=int, default=4,
                    help="search modes at least up to this one; >= 0")
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--potential-scale", type=float, default=1.0)
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("branch-map", help="mu vs eps fold structure")
    _add_common(sp)
    sp.add_argument("--records", default=None)
    sp.set_defaults(fn=cmd_branch_map)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except UnreachableEpsError as exc:
        print(f"error: unreachable target: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except BnlabError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:  # noqa: BLE001  (one line, never a traceback)
        msg = " ".join(str(exc).split())
        print(f"error: internal failure: {type(exc).__name__}: {msg}",
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
