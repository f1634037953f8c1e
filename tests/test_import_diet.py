"""``dataclasses`` (which imports ``inspect``, ``ast``, ``dis`` and
``tokenize``) stays out of the package, so no CLI run pays for importing
it: the package has no ``dataclasses`` import, and a ``dist`` run leaves it
out of ``sys.modules``.  So do ``copy`` and ``pickle``: the value classes
support both through ``__reduce__``, which needs neither module loaded.

``verify``, ``families`` and ``maps`` load on first use: the distance
commands run none of their code, and every public name of the package
still resolves to the object its module defines."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import persistd
from persistd import bottleneck, families, interleaving, intervals, maps, pmodule, verify

PACKAGE = Path(persistd.__file__).parent


def _python(script: str) -> str:
    """Stdout of ``script`` run by a fresh interpreter that imports the
    package from source."""
    return subprocess.run(
        [sys.executable, "-c", script],
        cwd=PACKAGE.parent,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout


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
    out = _python(script)
    assert out == "0\n0 []\n"


# A name that each module defines, so its presence shows that the module's
# code ran; read through ``object.__getattribute__``, which does not load.
LOADS_ON_FIRST_USE = {
    "persistd.verify": "run_suite",
    "persistd.families": "staircase",
    "persistd.maps": "has_nonzero_map",
}


def test_distance_commands_run_no_code_of_verify_families_or_maps(tmp_path):
    module = tmp_path / "m.json"
    module.write_text(persistd.PModule.of("[0,2)", "(1,4]", "[1,1]").to_json())
    m = str(module)
    script = (
        "import json, sys, persistd.cli\n"
        f"lazy = {LOADS_ON_FIRST_USE!r}\n"
        "def ran():\n"
        "    return sorted(name for name, defined in lazy.items()\n"
        "                  if defined in object.__getattribute__(sys.modules[name], '__dict__'))\n"
        "codes = [persistd.cli.cli_main(argv) for argv in (\n"
        f"    ['dist', {m!r}, {m!r}], ['dist', '--approx', {m!r}, {m!r}], ['cert', {m!r}, {m!r}],\n"
        f"    ['interleaved', '--eps', '1/2', {m!r}, {m!r}], ['radical', {m!r}])]\n"
        "after_distances = ran()\n"
        "codes.append(persistd.cli.cli_main(['gen', 'staircase', '--n', '2']))\n"
        "print(json.dumps([codes, after_distances, ran()]))\n"
    )
    out = _python(script)
    codes, after_distances, after_gen = json.loads(out.splitlines()[-1])
    assert codes == [0] * 6
    assert after_distances == []
    assert after_gen == ["persistd.families"]


def test_bare_import_resolves_submodules_on_first_use():
    script = (
        "import sys, persistd\n"
        "assert 'run_suite' not in object.__getattribute__(sys.modules['persistd.verify'], '__dict__')\n"
        "print(persistd.verify.run_suite.__name__, persistd.maps is sys.modules['persistd.maps'])\n"
    )
    out = _python(script)
    assert out == "run_suite True\n"


def test_public_names_are_the_objects_their_modules_hold():
    modules = (bottleneck, families, interleaving, intervals, maps, pmodule, verify)
    for name in persistd.__all__:
        value = getattr(persistd, name)
        owners = [module for module in modules if name in vars(module)]
        assert owners, name
        assert all(vars(module)[name] is value for module in owners), name
    assert set(persistd.__all__) <= set(dir(persistd))
    namespace = {}
    exec("from persistd import *", namespace)
    assert set(persistd.__all__) <= set(namespace)


def test_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'persistd' has no attribute 'no_such_name'$"):
        persistd.no_such_name
    assert not hasattr(persistd, "no_such_name")
