"""The README's library example runs as written and gives the values its comments state."""

import ast
import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_gives_its_commented_values():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):  # a line whose value the README states in a comment
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    top, bottom, decay, verdict, shape = values
    # on the 401-node grid the two moments are within 4e-10 of exact, and the explicit
    # step's first-order error in time leaves e^-1 within 7.5e-5
    assert top == pytest.approx(2.0, abs=1e-6)
    assert bottom == pytest.approx(-1.0, abs=1e-6)
    assert decay == pytest.approx(math.exp(-1.0), abs=5e-4)
    assert verdict == "fails"
    assert shape == (33, 33, 4)
