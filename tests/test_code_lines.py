"""tools/code_lines.py counts code, not comments, docstrings or blanks."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''\
"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


class C:
    """One line."""

    x = """a string that is not a docstring,

    with a blank line inside"""

    def f(self):
        """A method docstring."""
        return os.sep
'''


def test_counts_code_lines_only():
    # import, class, the two non-blank lines of x, def, return
    assert code_lines.code_lines(SAMPLE) == 6


def test_a_comment_or_docstring_edit_moves_nothing():
    edited = SAMPLE.replace("# a comment", "# a comment\n# and another\n") \
        .replace('"""One line."""', '"""One line,\n    now two."""')
    assert code_lines.code_lines(edited) == 6
