"""The library's checks are real code: ``python -O`` strips ``assert``."""

import ast
from pathlib import Path

import persistd

PACKAGE = Path(persistd.__file__).parent


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements under src/persistd: {found}"
