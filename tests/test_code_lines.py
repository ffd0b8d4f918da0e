"""The line counter (benchmarks/code_lines.py) on a small source tree:
blank lines, comments and docstrings are not code lines, other strings
and every line of a multi-line statement are."""

import subprocess
import sys

from conftest import ROOT

A = '''"""Module docstring
over two lines."""

# a comment
import os  # trailing comment


def f(x):
    """Docstring."""
    y = (x +
         1)
    return "not a docstring"
'''

B = '''x = """a
multi-line string"""
'''


def test_code_lines_counts_each_file_and_their_sum(tmp_path):
    (tmp_path / "a.py").write_text(A)
    (tmp_path / "b.py").write_text(B)
    # only the *.py files directly under SRC count
    (tmp_path / "notes.txt").write_text("x = 1\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_text("x = 1\n")
    proc = subprocess.run([sys.executable, "benchmarks/code_lines.py", str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["file", "lines", "code"],
        ["a.py", "12", "5"],
        ["b.py", "2", "2"],
        ["total", "14", "7"],
    ]


def test_code_lines_takes_exactly_one_directory():
    proc = subprocess.run([sys.executable, "benchmarks/code_lines.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "code_lines.py SRC" in proc.stderr
