"""The lattice kernel and the module code stay on ints and fractions:
``interleaving``, ``bottleneck``, ``pmodule``, ``families`` and ``maps``
hold no true division, no float literal and no ``float`` name, so a stray
``/`` in the class arithmetic or a run count cannot quietly bring a float
in."""

import ast
from pathlib import Path

import pytest

import persistd

PACKAGE = Path(persistd.__file__).parent


def float_sources(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{node.lineno}: /")
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{node.lineno}: {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{node.lineno}: float")
    return found


@pytest.mark.parametrize(
    "name", ["interleaving.py", "bottleneck.py", "pmodule.py", "families.py", "maps.py"]
)
def test_kernel_has_no_float_source(name):
    path = PACKAGE / name
    found = float_sources(ast.parse(path.read_text(), filename=str(path)))
    assert found == [], f"float sources in {name}: {found}"


@pytest.mark.parametrize("source", [
    "x = a / b", "x /= 2", "x = 0.5", "x = 1e3", "x = float(y)", "isinstance(y, float)",
])
def test_guard_sees_each_float_source(source):
    assert float_sources(ast.parse(source))
