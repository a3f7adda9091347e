"""Command-line interface: output schemas, exit codes, determinism, and
fault injection."""

import contextlib
import io
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bnlab.cli
import bnlab.linearization
import bnlab.solver
from bnlab.cli import (
    EXIT_BAD_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNREACHABLE,
    EXIT_VERIFY_FAILED,
    PROFILE_HEADER,
    SWEEP_HEADER,
    _fmt,
    _json,
    _table,
    main,
)
from bnlab.constants import Params
from bnlab.solver import solution_at


def test_constants_json(tmp_path):
    out = tmp_path / "c.json"
    rc = main(["constants", "--n", "4", "--q", "3", "--output", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == "1"
    assert doc["blowup_target"] == pytest.approx(24.0, rel=1e-12)
    assert doc["c_nq"] == pytest.approx(0.25, rel=1e-12)
    assert set(doc) == {
        "schema_version", "n", "q", "alpha_n", "omega_n", "c_nq",
        "alpha_nq", "s_n2", "blowup_target",
    }


def test_constants_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        main(["constants", "--n", "5", "--q", "3", "--output", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_solve_profile_csv(tmp_path):
    prof = tmp_path / "p.csv"
    out = tmp_path / "s.json"
    rc = main([
        "solve", "--n", "4", "--q", "3", "--eps-tilde", "1e-3",
        "--profile", str(prof), "--output", str(out),
    ])
    assert rc == EXIT_OK
    lines = prof.read_text().splitlines()
    assert lines[0] == PROFILE_HEADER
    assert len(lines) == 4098
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert abs(float(last[1])) <= 1e-10
    # every cell reads back to the bits of the solution's profile
    cells = np.array([[float(x) for x in line.split(",")]
                      for line in lines[1:]])
    profile = np.array(solution_at(Params(4, 3), 1e-3).profile())
    assert cells.T.tobytes() == profile.tobytes()
    doc = json.loads(out.read_text())
    assert doc["nehari_residual"] <= 1e-6
    assert doc["pohozaev_residual"] <= 1e-6
    assert doc["eps_tilde"] == pytest.approx(1e-3)


def test_solve_requires_one_target():
    assert main(["solve", "--n", "4", "--q", "3"]) == EXIT_BAD_CONFIG
    assert main([
        "solve", "--n", "4", "--q", "3", "--eps", "0.1", "--eps-tilde", "1e-3",
    ]) == EXIT_BAD_CONFIG


@settings(max_examples=20, deadline=None)
@given(st.one_of(
    st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan]),
    st.floats(-8.0, 2.0).map(lambda u: 10.0**u),
))
def test_solve_exit_code_contract(tmp_path_factory, eps_tilde):
    """Any --eps-tilde ends in success or bad configuration, never in an
    unreachable target, and a success passes the solver's identity gates."""
    out = tmp_path_factory.mktemp("contract") / "s.json"
    rc = main([
        "solve", "--n", "4", "--q", "3", f"--eps-tilde={eps_tilde!r}",
        "--profile", os.devnull, "--output", str(out),
    ])
    assert rc in (EXIT_OK, EXIT_BAD_CONFIG)
    if rc == EXIT_OK:
        doc = json.loads(out.read_text())
        assert doc["nehari_residual"] <= 1e-6
        assert doc["pohozaev_residual"] <= 1e-6


_SPECTRUM = ["spectrum", "--n", "5", "--q", "3", "--eps-tilde", "1e-2"]
_SWEEP = ["sweep", "--n", "4", "--q", "3", "--records", os.devnull]
_SPECTRUM_UNREACHABLE = ["spectrum", "--n", "5", "--q", "3", "--eps", "1e9"]
_BAD_FLAGS = st.one_of(
    st.tuples(st.just(_SWEEP), st.just("--points"), st.integers(max_value=5)),
    # the default --eps-tilde-max is 1e-2, the default --eps-tilde-min 1e-8
    st.tuples(st.just(_SWEEP), st.just("--eps-tilde-min"), st.one_of(
        st.floats(max_value=0.0), st.floats(min_value=1e-2), st.just(math.nan)
    )),
    st.tuples(st.just(_SWEEP), st.just("--eps-tilde-max"), st.one_of(
        st.floats(max_value=1e-8), st.sampled_from([math.inf, math.nan])
    )),
    st.tuples(st.just(_SPECTRUM), st.just("--tol"), st.one_of(
        st.floats(max_value=0.0), st.sampled_from([math.inf, math.nan])
    )),
    st.tuples(st.just(_SPECTRUM), st.just("--potential-scale"),
              st.sampled_from([math.inf, -math.inf, math.nan])),
    st.tuples(st.just(_SPECTRUM), st.just("--ell-max"),
              st.integers(max_value=-1)),
    # checked before the solve, so an unreachable --eps (exit 3) hides none
    st.sampled_from([(_SPECTRUM_UNREACHABLE, "--tol", -1.0),
                     (_SPECTRUM_UNREACHABLE, "--ell-max", -1),
                     (_SPECTRUM_UNREACHABLE, "--potential-scale", math.nan)]),
    # a negative scale is a valid fault (exit 1); these are not
    st.tuples(st.just(["verify"]), st.just("--fault-green-scale"),
              st.sampled_from([0.0, math.inf, -math.inf, math.nan])),
)


@settings(max_examples=30, deadline=None)
@given(_BAD_FLAGS)
@example((_SPECTRUM_UNREACHABLE, "--tol", -1.0))
def test_sweep_and_spectrum_exit_code_contract(case):
    """A bad value of a sweep, spectrum or verify flag exits 2 with one
    stderr line and no warning."""
    command, flag, value = case
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(command + [f"{flag}={value!r}", "--output", os.devnull])
    assert rc == EXIT_BAD_CONFIG
    assert len(err.getvalue().splitlines()) == 1
    assert not caught


def test_nonfinite_eps_rejected(capsys):
    rc = main([
        "solve", "--n", "4", "--q", "3", "--eps", "inf",
        "--profile", os.devnull, "--output", os.devnull,
    ])
    assert rc == EXIT_BAD_CONFIG
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("n,q", [("3", "5"), ("4", "3"), ("7", "2.4")])
def test_eps_tilde_whose_span_overflows_exits_2(capsys, n, q):
    """s^{N-1} must stay finite up to the end of the shooting span; it is
    checked before the shoot integrates anything."""
    rc = main([
        "solve", "--n", n, "--q", q, "--eps-tilde", "1e-300",
        "--profile", os.devnull, "--output", os.devnull,
    ])
    assert rc == EXIT_BAD_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: invalid configuration: span ")
    assert err[0].endswith(f"of eps_tilde=1e-300 at (N={n}, q={q}) "
                           f"overflows s^{int(n) - 1}")


def test_shoot_past_its_span_end_exits_4(monkeypatch, capsys):
    """A shoot that loses its first zero is a numerical failure, not an
    unreachable target."""
    monkeypatch.setattr(bnlab.solver, "_estimate_r_max", lambda p, et: 100.0)
    rc = main([
        "solve", "--n", "4", "--q", "3", "--eps-tilde", "1e-3",
        "--profile", os.devnull, "--output", os.devnull,
    ])
    assert rc == EXIT_NUMERICAL
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: numerical failure: no first zero")


def test_sweep_jobs_below_one_rejected():
    assert main([
        "sweep", "--n", "4", "--q", "3", "--jobs", "0",
        "--records", os.devnull, "--output", os.devnull,
    ]) == EXIT_BAD_CONFIG


def test_sweep_negative_spectrum_points_rejected(capsys):
    rc = main([
        "sweep", "--n", "4", "--q", "3", "--spectrum-points", "-1",
        "--records", os.devnull, "--output", os.devnull,
    ])
    assert rc == EXIT_BAD_CONFIG
    assert len(capsys.readouterr().err.splitlines()) == 1
    # no certificates is spelled --skip-spectrum alone
    assert main([
        "sweep", "--n", "4", "--q", "3", "--points", "6",
        "--spectrum-points", "0",
        "--records", os.devnull, "--output", os.devnull,
    ]) == EXIT_BAD_CONFIG
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_spectrum_needs_ell_max_nonnegative():
    assert main([
        "spectrum", "--n", "5", "--q", "3", "--eps-tilde", "1e-2",
        "--ell-max", "-1", "--output", os.devnull,
    ]) == EXIT_BAD_CONFIG


def test_regime_rejected():
    assert main(["constants", "--n", "3", "--q", "3"]) == EXIT_BAD_CONFIG
    assert main(["constants", "--n", "4", "--q", "4"]) == EXIT_BAD_CONFIG


def test_unreachable_eps():
    rc = main([
        "solve", "--n", "4", "--q", "3", "--eps", "1e9",
        "--profile", "/dev/null", "--output", "/dev/null",
    ])
    assert rc == EXIT_UNREACHABLE


def test_sweep_outputs(tmp_path):
    rec = tmp_path / "r.csv"
    out = tmp_path / "s.json"
    rc = main([
        "sweep", "--n", "4", "--q", "3", "--points", "13",
        "--records", str(rec), "--output", str(out),
        "--skip-spectrum",
    ])
    assert rc == EXIT_OK
    lines = rec.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER == (
        "eps_tilde,eps,mu,R_tilde,S_eps,blowup_product,deficit,"
        "profile_dist,upper_bound_ratio,nehari_residual,pohozaev_residual"
    )
    assert len(lines) == 14
    doc = json.loads(out.read_text())
    assert doc["blowup_fit"]["rel_error"] <= 0.05
    assert doc["deficit_fit"]["rel_error"] <= 0.10
    assert doc["boundary_green_decreasing"]


def test_sweep_deterministic(tmp_path):
    outs = []
    for tag in ("1", "2"):
        rec = tmp_path / f"r{tag}.csv"
        main([
            "sweep", "--n", "4", "--q", "3", "--points", "7",
            "--eps-tilde-min", "1e-6",
            "--records", str(rec), "--output", "/dev/null",
            "--skip-spectrum",
        ])
        outs.append(rec.read_bytes())
    assert outs[0] == outs[1]


def test_verify_ok(tmp_path):
    out = tmp_path / "v.json"
    rc = main(["verify", "--output", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["all_pass"]
    assert doc["n_checks"] >= 12
    assert all(c["pass"] for c in doc["checks"])


def test_verify_fault_injection(tmp_path):
    out = tmp_path / "v.json"
    rc = main([
        "verify", "--fault-green-scale", "1.01", "--output", str(out),
    ])
    assert rc == EXIT_VERIFY_FAILED
    doc = json.loads(out.read_text())
    assert not doc["all_pass"]
    assert any(not c["pass"] for c in doc["checks"])


@pytest.mark.parametrize("scale, rc", [(-1.0, EXIT_VERIFY_FAILED),
                                       (0.0, EXIT_BAD_CONFIG)])
def test_verify_fault_scale_sign_and_zero(tmp_path, scale, rc):
    """A negative Green scale is a fault that verify reports; a zero scale
    is rejected before any JSON is written."""
    out = tmp_path / "v.json"
    assert main(["verify", "--fault-green-scale", repr(scale),
                 "--output", str(out)]) == rc
    assert out.exists() == (rc == EXIT_VERIFY_FAILED)


def test_decompose_command(tmp_path):
    out = tmp_path / "d.json"
    rc = main([
        "decompose", "--n", "4", "--q", "3", "--eps-tilde", "1e-3",
        "--output", str(out),
    ])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["alpha"] == pytest.approx(doc["alpha_target"], rel=1e-2)
    assert doc["ortho_residual_pu"] <= 1e-6
    assert doc["w_h1_norm"] >= 0.0


def test_branch_map_command(tmp_path):
    rec = tmp_path / "b.csv"
    out = tmp_path / "b.json"
    rc = main([
        "branch-map", "--n", "3", "--q", "3",
        "--records", str(rec), "--output", str(out),
    ])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["has_fold"]
    assert doc["eps0"] > 0
    assert rec.read_text().splitlines()[0] == "mu,eps,eps_tilde"


def test_branch_map_outside_its_cells_exits_2_with_one_line(capsys):
    assert main([
        "branch-map", "--n", "4", "--q", "1.5",
        "--records", os.devnull, "--output", os.devnull,
    ]) == EXIT_BAD_CONFIG
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_spectrum_command(tmp_path):
    out = tmp_path / "sp.json"
    rc = main([
        "spectrum", "--n", "5", "--q", "3", "--eps-tilde", "1e-2",
        "--ell-max", "2", "--output", str(out),
    ])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["nondegenerate"]
    assert [m["ell"] for m in doc["modes"]] == [0, 1, 2]
    assert doc["modes"][0]["n_negative"] == 1
    assert not any("resolved" in m for m in doc["modes"])
    # the Morse eigenvalue lies below -|above|: the JSON gives the window
    # the certificate checked instead of its value
    m = doc["modes"][0]
    assert m["nearest_below_zero"] is None
    assert m["no_eigenvalue_in"] == [-m["nearest_above_zero"], 0.0]
    assert not any("no_eigenvalue_in" in m for m in doc["modes"][1:])
    # the Dirichlet bound j_{m,1}^2, m = ell + N/2 - 1, of the ell >= 2 mode
    assert ["dirichlet_bound" in m for m in doc["modes"]] == [False, False,
                                                              True]
    m = doc["modes"][2]
    assert m["dirichlet_bound"] == pytest.approx(6.987932000500520**2,
                                                 rel=1e-14)
    assert m["nearest_above_zero"] < m["dirichlet_bound"]


def test_spectrum_reports_eigenvalue_inside_window(tmp_path):
    """With the potential scaled by 0.45 the ell = 0 Morse eigenvalue
    (-14.06) lies inside [-|above|, 0) = [-22.32, 0): it is reported, and
    it is the mode's distance from zero."""
    out = tmp_path / "sp.json"
    assert main(["spectrum", "--n", "5", "--q", "3", "--eps-tilde", "1e-2",
                 "--ell-max", "2", "--potential-scale", "0.45",
                 "--output", str(out)]) == EXIT_OK
    m = json.loads(out.read_text())["modes"][0]
    assert m["n_negative"] == 1 and "no_eigenvalue_in" not in m
    assert m["nearest_below_zero"] == pytest.approx(-14.0557272, rel=1e-7)
    assert m["min_abs"] == -m["nearest_below_zero"]


def test_unresolved_eigenvalue_is_flagged(monkeypatch, tmp_path):
    """An eigenvalue with |lambda| / R_tilde^2 below the resolution limit is
    marked "resolved": false in the spectrum and sweep JSON, and the
    verdict does not count it as a pass.  At N = 5, eps_tilde = 1e-2 a
    limit of 1e-3 lies between the ell = 0 eigenvalue above zero
    (nu = 4.3e-4, lambda = 1.32 > tol) and the ell = 2 one (nu = 1.6e-2).
    The limit applies to the Pruefer shoot alone: the ell = 1 eigenvalue
    (nu = 8.3e-6) comes from the kernel shoot, whose error is relative to
    it, and is not flagged."""
    monkeypatch.setattr(bnlab.linearization, "_NU_RESOLVED", 1e-3)
    out = tmp_path / "sp.json"
    assert main(["spectrum", "--n", "5", "--q", "3", "--eps-tilde", "1e-2",
                 "--ell-max", "2", "--output", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert [m.get("resolved") for m in doc["modes"]] == [False, None, None]
    assert min(m["min_abs"] for m in doc["modes"]) > doc["tol"]
    assert not doc["nondegenerate"]

    out = tmp_path / "sw.json"
    assert main(["sweep", "--n", "5", "--q", "3", "--points", "6",
                 "--spectrum-points", "1",
                 "--records", os.devnull, "--output", str(out)]) == EXIT_OK
    [cert] = json.loads(out.read_text())["nondegeneracy"]
    assert cert["resolved"] is False
    assert cert["min_abs"] > 1e-3
    assert not cert["nondegenerate"]


def test_spectrum_at_large_eps_tilde(tmp_path):
    """R_tilde = 6.3e-4 here, below the fixed series starts that the shoots
    used before they scaled with eps_tilde^{-1/2}."""
    out = tmp_path / "sp.json"
    rc = main([
        "spectrum", "--n", "4", "--q", "3", "--eps-tilde", "1e8",
        "--ell-max", "2", "--output", str(out),
    ])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert [m["n_negative"] for m in doc["modes"]] == [1, 0, 0]


@pytest.mark.parametrize("n,q", [("6", "2.6"), ("7", "2.2")])
def test_spectrum_writes_no_warning(capsys, n, q):
    """spectrum at N = 6 and 7 raises no warning and writes nothing to
    stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["spectrum", "--n", n, "--q", q, "--eps-tilde", "1e-2",
                   "--ell-max", "2", "--output", os.devnull])
    assert rc == EXIT_OK
    assert capsys.readouterr().err == ""


_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                     1.7976931348623157e308, 1.0, -3.0, 1e17]),
    st.integers(-2**53, 2**53).map(float),
)


@st.composite
def _columns(draw):
    """1 to 4 equal-length columns, each a list of floats, a list of
    np.float64 or an array."""
    n_rows = draw(st.integers(0, 12))
    kinds = st.sampled_from([list, np.array,
                             lambda c: [np.float64(x) for x in c]])
    return [draw(kinds)(draw(st.lists(_CELLS, min_size=n_rows,
                                      max_size=n_rows)))
            for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=200, deadline=None)
@given(_columns())
@example([[math.nan, 1.0, -0.0, 5e-324],
          np.array([math.inf, 2.0, 0.5, 1.7976931348623157e308]),
          [np.float64(-math.inf), np.float64(-0.0), np.float64(1e300),
           np.float64(-2.5)]])
def test_table_matches_fmt(columns):
    """Every row of _table is the _fmt cells of that row joined by commas,
    non-finite cells included."""
    ref = ["h"] + [",".join(_fmt(col[i]) for col in columns)
                   for i in range(len(columns[0]))]
    assert _table("h", columns).split("\n") == ref + [""]


def test_json_escapes_strings():
    doc = {"schema_version": "1", 'ke"y': 'a "quote", a \\ and a\nnewline',
           "x": [0.5, "plain"]}
    text = _json(doc)
    assert "\n" not in text
    assert json.loads(text) == doc
    assert _json({"name": "gamma_five"}) == '{"name":"gamma_five"}'


def test_json_numbers():
    """Floats print at 17 significant digits, numpy floats as Python ones,
    and non-finite values as JSON strings."""
    assert _json([math.nan, math.inf, -np.inf, np.float64(0.1), 1e-300,
                  2, True, None]) == (
        '["nan","inf","-inf",0.10000000000000001,1e-300,2,true,null]')


def test_unexpected_exception_exits_4_with_one_line(monkeypatch, capsys):
    def broken(args):
        return 1 / 0

    monkeypatch.setattr(bnlab.cli, "cmd_constants", broken)
    rc = main(["constants", "--n", "4", "--q", "3"])
    assert rc == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == "error: internal failure: ZeroDivisionError: division by zero\n"
