"""The README's library quick start runs and returns what its comments say."""
import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_values():
    source = quick_start()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comment = re.search(r"#\s*(-?\d+\.\d+)", lines[node.end_lineno - 1])
        if comment:
            checked.append(float(comment.group(1)))
            assert value == pytest.approx(checked[-1], abs=1e-9)
    assert checked == [3.0, 5.0, 2.5, 2.25, 2.25]
