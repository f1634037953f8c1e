"""The package has no hidden inputs: no module under ``src/persistd`` reads
the process environment, so every budget and answer follows from the
arguments alone."""

import ast
from pathlib import Path

import pytest

import persistd

PACKAGE = Path(persistd.__file__).parent

ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in ENVIRONMENT_NAMES:
            found.append(f"{node.lineno}: {node.id}")
        elif isinstance(node, ast.ImportFrom):
            found.extend(f"{node.lineno}: import {alias.name}" for alias in node.names
                         if alias.name in ENVIRONMENT_NAMES)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_reads_no_environment(path):
    found = environment_reads(ast.parse(path.read_text(), filename=str(path)))
    assert found == [], f"environment reads in {path.name}: {found}"


@pytest.mark.parametrize("source", [
    "cap = os.environ.get('CAP')",
    "cap = os.environ['CAP']",
    "cap = os.getenv('CAP')",
    "from os import environ",
    "from os import getenv as read",
])
def test_guard_sees_each_environment_read(source):
    assert environment_reads(ast.parse(source))


def test_guard_passes_other_os_calls():
    assert environment_reads(ast.parse("import os\nos.dup2(os.open(os.devnull, 1), 1)")) == []
