"""``dataclasses`` (which imports ``inspect``, ``ast``, ``dis`` and
``tokenize``) stays out of the package, so no CLI run pays for importing
it: the package has no ``dataclasses`` import, and a ``dist`` run leaves it
out of ``sys.modules``.  So do ``copy`` and ``pickle``: the value classes
support both through ``__reduce__``, which needs neither module loaded."""

import ast
import subprocess
import sys
from pathlib import Path

import persistd

PACKAGE = Path(persistd.__file__).parent


def test_package_does_not_import_dataclasses():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], f"dataclasses imports under src/persistd: {found}"


def test_cli_dist_leaves_unneeded_modules_unloaded(tmp_path):
    module = tmp_path / "m.json"
    module.write_text(persistd.PModule.of("[0,2)", "[1,1]").to_json())
    script = (
        "import persistd.cli, sys\n"
        f"code = persistd.cli.cli_main(['dist', {str(module)!r}, {str(module)!r}])\n"
        "unwanted = {'dataclasses', 'inspect', 'copy', 'pickle'}\n"
        "print(code, sorted(unwanted & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=PACKAGE.parent,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out == "0\n0 []\n"
