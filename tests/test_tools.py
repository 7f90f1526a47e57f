"""The line counter in ``tools/source_lines.py``, on a module whose counts are known.

The tool is compiled from its source, so no bytecode is written under
``tools/``.
"""

from __future__ import annotations

import types
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "source_lines.py"

# 24 lines; code on lines 4, 9, 12, 13, 15, 17, 20, 21, 23, 24 (line 22 is blank inside the brackets)
FIXTURE = '''"""Module docstring,
on two lines."""

import os  # a comment on a code line

# a comment line


class A:
    """Class docstring."""

    x = """a string that is not a docstring,
    on two lines"""

    def f(self):
        """Function docstring."""
        return os.sep


y = max(
    1,

    2)
def g(): pass
'''


@pytest.fixture(scope="module")
def tool():
    module = types.ModuleType("source_lines")
    module.__file__ = str(TOOL)
    exec(compile(TOOL.read_text(), str(TOOL), "exec"), module.__dict__)
    return module


def test_counts_lines_and_code_lines_of_a_known_module(tool):
    assert tool.count(FIXTURE) == (24, 10)
    assert tool.count(FIXTURE.rstrip("\n")) == (23, 10)  # wc -l counts newline characters


def test_prints_each_module_and_the_total(tool, tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\n\nX = 1\n')
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert tool.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "4", "1"], ["b.py", "24", "10"], ["total", "28", "11"]]


def test_a_directory_without_modules_exits_2(tool, tmp_path, capsys):
    assert tool.main([str(tmp_path)]) == 2
    assert "no *.py files" in capsys.readouterr().err
