"""The source-size counter in tools/code_lines.py."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring
over two lines."""

# a comment
def f(a,
      b):
    """Function docstring."""
    return (a +  # trailing comment
            b)
'''


def test_counts_code_lines_outside_docstrings_comments_and_blanks(tmp_path, capsys):
    # code: the two lines of the def and the two of the return statement
    (tmp_path / "sample.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert code_lines.count(FIXTURE) == (4, 9)
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "code_lines 4\nphysical_lines 9\n"
