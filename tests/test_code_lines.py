"""tools/code_lines.py, the code-line count quoted for each module of
src/pcst, on synthetic source."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


@pytest.mark.parametrize("text, count", [
    ('"""Module docstring\nover two lines."""\nx = 1\n', 1),
    ('class C:\n    """Class docstring\n    over two lines."""\n'
     '    x = 1\n', 2),
    ('def f():\n    """Function docstring\n    over two lines."""\n'
     '    return 1\n', 2),
    ('async def f():\n    """Coroutine docstring\n    over two."""\n'
     '    return 1\n', 2),
    ('\nx = 1\n\n    \n# a comment\n    # an indented comment\n', 1),
    ('def f():\n    x = 1\n    """A string, not first,\n    counts."""\n'
     '    return x\n', 5),
    ('x = 1  # a trailing comment\n', 1),
], ids=["module-docstring", "class-docstring", "function-docstring",
        "async-docstring", "blank-and-comment", "later-string",
        "trailing-comment"])
def test_code_lines_rules(text, count):
    assert code_lines.code_lines(text) == count


def test_main_prints_each_module_and_their_sum(tmp_path, monkeypatch,
                                               capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\ny = 2\n')
    (tmp_path / "b.py").write_text("# note\n\nz = 3\n")
    (tmp_path / "notes.txt").write_text("w = 4\n")
    monkeypatch.setattr(code_lines, "PACKAGE", tmp_path)
    code_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "2"], ["b.py", "1"], ["total", "3"]]
