"""``tools/code_lines.py``: code lines exclude blanks, comments and docstrings."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts the line


class Box:
    """Class docstring."""

    # a comment line
    def area(self, side):
        """Function docstring,

        with a blank line inside.
        """
        text = """a string that is
        not a docstring"""
        return math.prod((side, side))
'''


def test_counts_only_lines_that_hold_code():
    # import, class, def, text = ..., return; a non-docstring string counts its first line
    assert code_lines.code_lines(SOURCE) == 5


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["5", "a.py"], ["1", "b.py"], ["6", "total"]]
