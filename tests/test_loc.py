"""tools/loc.py: every line is counted once, as code, docstring, comment
or blank."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "loc.py"
_SPEC = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

_SNIPPET = '''"""Module docstring,

over three lines."""

# a comment
X = 1  # code with a trailing comment


class C:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        s = """not a docstring:
# a line inside a string literal"""
        return s
'''


def test_counts_of_a_fixed_snippet():
    assert loc.count(_SNIPPET) == {"code": 6, "docstring": 5, "comment": 1,
                                   "blank": 4}
