"""tools/codelines.py counts the lines that hold a token that is not a comment or a string."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"

SOURCE = '''"""A module docstring,
spread over two lines."""

# a comment


def f(a):
    """A docstring."""
    x = 1  # a comment after code
    label = (
        f"""{a}
        {x + 1} and {f'{a}'}
        """
    )
    y = [
        1,
        # a comment inside brackets
        2,
    ]
    return label, y
'''


def _codelines():
    spec = importlib.util.spec_from_file_location("codelines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_only_lines_holding_code(tmp_path, capsys):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    codelines = _codelines()
    # def, x = 1, label = (, the closing ), y = [, 1, 2, ], return
    assert codelines.code_lines(path) == 9
    assert codelines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     9  {tmp_path.name}/sample.py",
        "     9  total",
    ]
