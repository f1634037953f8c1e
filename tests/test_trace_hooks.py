"""Every stage that the benchmark's layer trace wraps must exist.

``perfbench/layertrace.py`` lists its hooks as (module, attribute) pairs
and reports a vanished target as a missing hook instead of failing.  This
test reads that list and fails when a hooked function is renamed or
deleted, so the trace keeps covering the pipeline stages."""

import importlib
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _hooks():
    # Run the source text, so that nothing is written next to it.
    namespace = {"__name__": "layertrace"}
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), namespace)
    return namespace["HOOKS"]


@pytest.mark.parametrize("module_name, attr", [(h[0], h[1]) for h in _hooks()])
def test_hook_target_is_callable(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{module_name}.{attr}"
