"""tools/cli_diff.py: `identical` means identical bytes, and a value that
moves is reported by its key."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "cli_diff.py"
_SPEC = importlib.util.spec_from_file_location("cli_diff", _PATH)
cli_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_diff)


def _run(texts):
    """A run as cli_diff.run returns it: exit 0, no stderr, these files."""
    return 0, "", texts


@pytest.mark.parametrize("name, old, new", [
    ("profile.csv", "r,u\n1,-0\n", "r,u\n1.0,-0\n"),
    ("profile.csv", "r,u\n1,2\n", "r,u\n1,2"),
    ("out.json", '{"a":1,"b":[0.5]}', '{"a":1.0,"b":[0.5]}'),
    ("out.json", '{"a":1}', '{"a": 1}'),
])
def test_equal_values_in_other_bytes_are_not_identical(name, old, new):
    assert cli_diff.compare(_run({name: old}), _run({name: new})) == [
        f"{name}: text differs, values equal"]


def test_identical_bytes_print_nothing():
    old = _run({"out.json": '{"a":1}', "records.csv": "x,y\n1,2\n"})
    assert cli_diff.compare(old, old) == []


def test_changed_values_are_reported_by_key():
    old = _run({"out.json": '{"a":1,"b":2}', "records.csv": "x,y\n1,2\n"})
    new = _run({"out.json": '{"a":1,"b":3}', "records.csv": "x,y\n1,3\n"})
    assert cli_diff.compare(old, new) == ["out.json b: 0.5",
                                          "records.csv y: 0.5"]
