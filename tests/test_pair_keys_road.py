"""One road from a pair of modules to its lattice keys: inside
``bottleneck.py`` only ``_admit`` calls ``_lattice_view`` or ``_lattice``,
so the work budgets are checked in one place before every view and every
lattice the kernel builds, and each entry point admits its pair once."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from persistd import (
    PModule,
    bottleneck,
    distance_certificate,
    module_distance,
    modules_eps_interleaved,
    verify_certificate,
)
from persistd.interleaving import _lattice

KERNEL = Path(bottleneck.__file__)

LATTICE_NAMES = {"_lattice", "_lattice_view"}
ROADS = {"_admit"}


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
    "def _cost_tables(pair):\n    return _lattice(m._lattice_view(), n._lattice_view())",
    "def _pair(m, n, table):\n"
    "    return _Pair(*_lattice(m._lattice_view(), n._lattice_view()), False, None)",
    "def verify_certificate(m, n, cert):\n    keys = _lattice(m._lattice_view(), n._lattice_view())",
    "def decide(m, n):\n    keys = interleaving._lattice(a, b)",
    "view = m._lattice_view()",
    "class Kernel:\n    def keys(self, m):\n        return m._lattice_view()",
])
def test_guard_sees_each_stray_call(source):
    assert stray_callers(ast.parse(source))


def test_guard_passes_the_roads_and_other_calls():
    source = ("def _admit(m, n, table):\n"
              "    return _Pair(*_lattice(m._lattice_view(), n._lattice_view()), False, None)\n"
              "def _pair(m, n, table):\n    return _admit(m, n, table)\n"
              "def verify_certificate(m, n, cert):\n    pair = _admit(m, n, False)\n"
              "def _search(pair, tables):\n    return _cost_tables(pair), lattice(m)\n")
    assert stray_callers(ast.parse(source)) == []


@pytest.mark.parametrize("call", [
    lambda m, n, cert: module_distance(m, n),
    lambda m, n, cert: distance_certificate(m, n),
    lambda m, n, cert: modules_eps_interleaved(m, n, Fraction(1, 2)),
    lambda m, n, cert: verify_certificate(m, n, cert),
], ids=["distance", "certificate", "decision", "check"])
def test_each_entry_point_builds_one_lattice(monkeypatch, call):
    """A distance, a certificate, a decision and a certificate check each
    admit their pair once, so each builds one lattice."""
    m = PModule.of("[0,2)", "[0,2)", "(1,4]", "[3,3]")
    n = PModule.of("(0,2)", "[1,4)", "[1,4)")
    cert = distance_certificate(m, n)
    expected = call(m, n, cert)
    calls = []

    def counted(*args):
        calls.append(args)
        return _lattice(*args)

    monkeypatch.setattr(bottleneck, "_lattice", counted)
    assert call(m, n, cert) == expected
    assert len(calls) == 1
