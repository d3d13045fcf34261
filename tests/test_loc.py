"""``tools/loc.py``: the line count the ROADMAP size gates quote."""

from __future__ import annotations

import importlib.util
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a trailing comment

# a whole-line comment
def f(x):
    """Docstring."""
    y = """a string
on two lines"""
    return (x +
            1)


class C:
    attr = 1
    """Attribute docstring."""
'''


def _load_loc():
    spec = importlib.util.spec_from_file_location("loc", REPO_ROOT / "tools" / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # import, def, two lines of `y = ...`, two of `return ...`, class, attr.
    assert _load_loc().code_lines(SNIPPET) == 8


def test_paths_sum_their_python_files(tmp_path, capsys):
    loc = _load_loc()
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert loc.main([str(tmp_path / "pkg"), str(tmp_path / "pkg" / "b.py")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows] == ["9", "1", "10"]
    assert rows[-1][1] == "total"
