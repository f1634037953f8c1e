"""One road from a pair of modules to its lattice keys: inside
``bottleneck.py`` only ``_pair`` and ``verify_certificate`` call
``_lattice_view`` or ``_lattice``, so the vertex cap and the work budgets
are checked in one place before every lattice the kernel builds."""

import ast
from pathlib import Path

import pytest

from persistd import bottleneck

KERNEL = Path(bottleneck.__file__)

LATTICE_NAMES = {"_lattice", "_lattice_view"}
ROADS = {"_pair", "verify_certificate"}


def lattice_callers(tree: ast.AST) -> list[str]:
    """'line: function calls name' for each call of a lattice builder, by
    the top-level function it sits in ('<module>' outside any)."""
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in LATTICE_NAMES:
                found.append(f"{node.lineno}: {owner} calls {name}")
    return found


def stray_callers(tree: ast.AST) -> list[str]:
    return [line for line in lattice_callers(tree) if line.split()[1] not in ROADS]


def test_only_the_pair_road_builds_lattices():
    tree = ast.parse(KERNEL.read_text(), filename=str(KERNEL))
    assert stray_callers(tree) == []
    callers = {line.split()[1] for line in lattice_callers(tree)}
    assert callers == ROADS


@pytest.mark.parametrize("source", [
    "def _cost_tables(m, n):\n    return _lattice(m._lattice_view(), n._lattice_view())",
    "def decide(m, n):\n    keys = interleaving._lattice(a, b)",
    "view = m._lattice_view()",
    "class Kernel:\n    def keys(self, m):\n        return m._lattice_view()",
])
def test_guard_sees_each_stray_call(source):
    assert stray_callers(ast.parse(source))


def test_guard_passes_the_roads_and_other_calls():
    source = ("def _pair(m, n):\n    return _lattice(m._lattice_view(), n._lattice_view())\n"
              "def verify_certificate(m, n):\n    return _lattice(m._lattice_view(), n._lattice_view())\n"
              "def _search(m, n):\n    return _cost_tables(m, n), lattice(m)\n")
    assert stray_callers(ast.parse(source)) == []
