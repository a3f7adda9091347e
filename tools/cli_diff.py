"""Compare the CLI outputs of two bnlab source trees.

Usage: python3 tools/cli_diff.py OLD_SRC NEW_SRC

Each SRC is a directory that holds the `bnlab` package (a checkout's
`src`).  Every command in COMMANDS runs once per tree, in a child
interpreter with that tree first on sys.path, writing its JSON and CSV
outputs to files.  For each command the script prints `identical` when
every output file matches byte for byte.  Otherwise it prints the largest
relative change of every JSON key and CSV column that changed, the JSON
keys present in only one run, and any change in exit code or stderr; a
file whose bytes differ while every parsed value is equal (`1` against
`1.0`) prints `text differs, values equal`.  List elements are keyed by
their "name", or by their "ell", so that each spectrum mode reports its
own changes.  After the verdicts it prints each command's wall time on
each tree, old -> new in seconds, from the same single runs.  Standard
library only.
"""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CONSTANT_CELLS = ((4, 3), (5, 3), (3, 5), (6, 2.5), (7, 2.2))

# (argv, {option: file name}); each option is pointed at its file
COMMANDS = [
    *((["constants", "--n", str(n), "--q", str(q)],
       {"--output": "out.json"}) for n, q in CONSTANT_CELLS),
    (["solve", "--n", "3", "--q", "5", "--eps-tilde", "0.3"],
     {"--output": "out.json", "--profile": "profile.csv"}),
    (["solve", "--n", "3", "--q", "5", "--eps", "0.3"],
     {"--output": "out.json", "--profile": "profile.csv"}),
    # a deep secant solve
    (["solve", "--n", "5", "--q", "3", "--eps", "1e-6"],
     {"--output": "out.json", "--profile": "profile.csv"}),
    # the secant's third iterate would leave the bracket: a midpoint step
    (["solve", "--n", "3", "--q", "4.2", "--eps", "10"],
     {"--output": "out.json", "--profile": "profile.csv"}),
    # far below the default grids: 907 steps in tau = ln s, 915 232 in s
    (["solve", "--n", "3", "--q", "5", "--eps-tilde", "1e-80"],
     {"--output": "out.json", "--profile": "profile.csv"}),
    # a span whose cube overflows: rejected before the shoot
    (["solve", "--n", "4", "--q", "3", "--eps-tilde", "1e-300"],
     {"--output": "out.json", "--profile": "profile.csv"}),
    # eps_tilde > 1: the series start in units of L = eps_tilde^{-1/2}
    (["solve", "--n", "4", "--q", "3", "--eps-tilde", "1e6"],
     {"--output": "out.json", "--profile": "profile.csv"}),
    # where the crossing step's interpolant is furthest from the zero of
    # the redone step: 5.7e-10 in R_tilde
    (["solve", "--n", "4", "--q", "3.5", "--eps-tilde", "1e6"],
     {"--output": "out.json", "--profile": "profile.csv"}),
    (["spectrum", "--n", "4", "--q", "3", "--eps-tilde", "1e6",
      "--ell-max", "2"],
     {"--output": "out.json"}),
    (["decompose", "--n", "5", "--q", "3", "--eps-tilde", "1e-3"],
     {"--output": "out.json"}),
    *((["spectrum", "--n", n, "--q", q, "--eps-tilde", et, "--ell-max", "2"],
       {"--output": "out.json"})
      # lambda_1 at nu = 3.3e-15 at (4, 3, 1e-7) and 1.4e-26 at (3, 5, 1e-8);
      # (3, 5, 1e-5) is a mid-range N = 3 ell = 0 point
      for n, q, et in (("5", "3", "1e-2"), ("4", "3", "1e-5"),
                       ("3", "5", "1e-3"), ("4", "3", "1e-7"),
                       ("3", "5", "1e-8"), ("3", "5", "1e-5"))),
    (["spectrum", "--n", "5", "--q", "3", "--eps-tilde", "1e-2",
      "--ell-max", "2", "--potential-scale", "0.45"],
     {"--output": "out.json"}),
    # ell = 2..4 are listed because ell_max = 4, not because they are needed
    # to cover the higher modes
    (["spectrum", "--n", "5", "--q", "3", "--eps-tilde", "1e-2",
      "--ell-max", "4"],
     {"--output": "out.json"}),
    # m0 > 0 at ell = 2 and 3: their searches start at nu = 0, ell = 4 at the
    # Dirichlet bound
    (["spectrum", "--n", "5", "--q", "3", "--eps-tilde", "1e-2",
      "--ell-max", "4", "--potential-scale", "3"],
     {"--output": "out.json"}),
    (["verify"], {"--output": "out.json"}),
    (["verify", "--fault-green-scale", "1.01"], {"--output": "out.json"}),
    (["verify", "--fault-green-scale", "-1"], {"--output": "out.json"}),
    (["branch-map", "--n", "3", "--q", "3"],
     {"--output": "out.json", "--records": "records.csv"}),
    *((["sweep", "--n", n, "--q", q, "--skip-spectrum"],
       {"--output": "out.json", "--records": "records.csv"})
      # at N = 3, q = 5 R_tilde reaches 8.7e8; at N = 6 the order fit
      # removes its (ln lambda)^{2/3} factor
      for n, q in (("4", "3"), ("5", "3"), ("3", "5"), ("6", "2.6"))),
    (["sweep", "--n", "4", "--q", "3", "--points", "8",
      "--spectrum-points", "1"],
     {"--output": "out.json", "--records": "records.csv"}),
    # no certificates is spelled --skip-spectrum; 0 points is refused
    (["sweep", "--n", "4", "--q", "3", "--points", "6",
      "--spectrum-points", "0"],
     {"--output": "out.json", "--records": "records.csv"}),
    # the default sweeps: three certificates each, ell = 1 covering ell >= 2
    *((["sweep", "--n", n, "--q", "3"],
       {"--output": "out.json", "--records": "records.csv"})
      for n in ("4", "5")),
]

_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "from bnlab.cli import main; sys.exit(main(sys.argv[2:]))")


def run(src: Path, argv: list[str], files: dict[str, str]):
    """Exit code, stderr and {file name: text} of one command on one tree."""
    with tempfile.TemporaryDirectory() as tmp:
        opts = [x for opt, name in files.items()
                for x in (opt, str(Path(tmp) / name))]
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(src), *argv, *opts],
            capture_output=True, text=True, cwd=tmp,
        )
        texts = {}
        for name in files.values():
            path = Path(tmp) / name
            texts[name] = path.read_text() if path.exists() else None
    return proc.returncode, proc.stderr, texts


def timed_run(src: Path, argv: list[str], files: dict[str, str]):
    """run, and its wall time in seconds."""
    start = time.perf_counter()
    result = run(src, argv, files)
    return result, time.perf_counter() - start


def rel_change(old, new) -> float:
    if old == new:
        return 0.0
    if isinstance(old, bool) or isinstance(new, bool):
        return math.inf
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return math.inf
    if a == 0.0:
        return math.inf
    return abs(b - a) / abs(a)


def _tag(element) -> str:
    """The key of a list element: [name] for a dict with a string "name",
    [ell=l] for a dict with an integer "ell" (a spectrum mode), else []."""
    if isinstance(element, dict):
        name, ell = element.get("name"), element.get("ell")
        if isinstance(name, str):
            return f"[{name}]"
        if isinstance(ell, int) and not isinstance(ell, bool):
            return f"[ell={ell}]"
    return "[]"


def _leaves(obj, key=""):
    """(key, value) pairs of a JSON document, list elements keyed by _tag:
    the indices of untagged elements collapse to []."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(obj, list):
        for v in obj:
            yield from _leaves(v, key + _tag(v))
    else:
        yield key, obj


def _max_by_key(pairs, changes: dict) -> None:
    for key, old, new in pairs:
        changes[key] = max(changes.get(key, 0.0), rel_change(old, new))


def _numbered(doc) -> dict:
    """{(key, i): value} for the i-th leaf under each key of _leaves."""
    seen: dict = {}
    out = {}
    for k, v in _leaves(doc):
        i = seen[k] = seen.get(k, -1) + 1
        out[k, i] = v
    return out


def json_changes(old: str, new: str) -> dict:
    """Largest relative change per key; a key that one document has more
    often than the other is reported as present only in that one."""
    a, b = _numbered(json.loads(old)), _numbered(json.loads(new))
    changes: dict = {}
    for side, these, those in (("old", a, b), ("new", b, a)):
        for k, i in these:
            if (k, i) not in those:
                changes[f"{k} <only in {side}>"] = math.inf
    _max_by_key(((k, a[k, i], b[k, i]) for k, i in a if (k, i) in b),
                changes)
    return changes


def csv_changes(old: str, new: str) -> dict:
    a = list(csv.reader(old.splitlines()))
    b = list(csv.reader(new.splitlines()))
    if not a or not b or a[0] != b[0] or len(a) != len(b):
        return {"<header or row count>": math.inf}
    changes: dict = {}
    for ra, rb in zip(a[1:], b[1:]):
        _max_by_key(zip(a[0], ra, rb), changes)
    return changes


def compare(old, new) -> list[str]:
    """Lines describing how the run `new` differs from the run `old`."""
    (code_a, err_a, texts_a), (code_b, err_b, texts_b) = old, new
    lines = []
    if code_a != code_b:
        lines.append(f"exit code {code_a} -> {code_b}")
    if err_a != err_b:
        lines.append(f"stderr {err_a.strip()!r} -> {err_b.strip()!r}")
    for name, ta in texts_a.items():
        tb = texts_b[name]
        if ta == tb:
            continue
        if ta is None or tb is None:
            lines.append(f"{name}: present only in one run")
            continue
        diff = json_changes if name.endswith(".json") else csv_changes
        changed = [f"{name} {key}: {change:.3g}"
                   for key, change in diff(ta, tb).items() if change > 0.0]
        lines += changed or [f"{name}: text differs, values equal"]
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old_src, new_src = (Path(a).resolve() for a in args)
    seconds = []
    for argv_, files in COMMANDS:
        (old, t_old), (new, t_new) = (timed_run(src, argv_, files)
                                      for src in (old_src, new_src))
        lines = compare(old, new)
        seconds.append((" ".join(argv_), t_old, t_new))
        print(seconds[-1][0] + ": " + ("identical" if not lines else ""))
        for line in lines:
            print("  " + line)
        sys.stdout.flush()
    print("wall time (s), one run each, old -> new:")
    for command, old, new in seconds:
        print(f"  {command}: {old:.2f} -> {new:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
