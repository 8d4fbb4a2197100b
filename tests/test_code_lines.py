"""The code-line counter ``tools/code_lines.py``: a line counts when it
holds a token of code outside a docstring."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class A:
    """A class docstring."""

    def f(self, x):
        """A one-line docstring."""
        text = """a string that is no docstring,
        over two lines"""
        return (x,
                text)


def g():
    pass
'''


def test_the_count_skips_docstrings_comments_and_blank_lines():
    # import, class, def, the two-line string, the two-line return, def, pass
    assert code_lines.code_lines(SNIPPET) == 9


def test_the_tool_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SNIPPET)
    (tmp_path / "a.py").write_text("x = 1\n\n# y = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     1  a.py", "     9  b.py", "    10  total", ""]
