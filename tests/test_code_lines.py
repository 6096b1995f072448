"""The code-line counter (.github/code_lines.py) on a small fixture."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines",
                                               ROOT / ".github" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
two lines."""

# a comment line
import math


class Box:
    """One line."""

    size = 2  # a trailing comment

    def area(self):
        """A docstring
        over three
        lines."""
        text = """a string that
        is not a docstring"""
        return math.pi * (
            self.size ** 2)
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # import, class, size, def, text (two lines), return (two lines)
    code, tokens = code_lines.measure(FIXTURE)
    assert code == 8
    # tokenize's tokens without COMMENT and NL, docstrings included
    assert tokens == 46


def test_counts_each_file_and_the_total(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    out = subprocess.run([sys.executable, str(ROOT / ".github" / "code_lines.py"),
                          str(path), str(path)], capture_output=True, text=True,
                         check=True).stdout.split("\n")
    assert out[1].split() == ["fixture.py", "8", "46"]
    assert out[3].split() == ["total", "16", "92"]
