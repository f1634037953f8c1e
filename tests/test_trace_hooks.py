"""Every stage that the benchmark's layer trace wraps must exist and be
reached through the attribute the trace wraps.

``perfbench/layertrace.py`` lists its hooks as (module, attribute) pairs
and reports a vanished target as a missing hook instead of failing.  These
tests read that list and fail when a hooked function is renamed or
deleted, or when the kernel stops calling a stage through its module
attribute, so the trace keeps covering and timing the pipeline stages."""

import importlib
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from persistd import PModule, bottleneck

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace() -> dict:
    # Run the source text, so that nothing is written next to it.
    namespace = {"__name__": "layertrace"}
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), namespace)
    return namespace


HOOKS = _layertrace()["HOOKS"]


@pytest.mark.parametrize("module_name, attr", [(h[0], h[1]) for h in HOOKS])
def test_hook_target_is_callable(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{module_name}.{attr}"


def _traced_calls(call) -> dict:
    """Calls per layer of ``call()`` under the benchmark's tracer."""
    for module_name, *_ in HOOKS:
        importlib.import_module(module_name)
    tracer = _layertrace()["Tracer"]()
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    return tracer.calls


def test_kernel_hooks_are_reached():
    """A distance runs the search's one per-pair set-up and probes; a probe
    runs Hopcroft-Karp's phases when a mandatory run stays free after the
    direct targets and swaps, as in the second pair.  A certificate runs the
    same search and reads its matching off the keys, without a further
    probe; the eps-decision neither runs the set-up nor probes, and its
    repair runs the phases on the second pair at eps = 17/8."""
    m, n = PModule.of("[0,2)", "(1,4]", "[3,3]"), PModule.of("(0,2)", "[1,4)")
    calls = _traced_calls(lambda: bottleneck.module_distance(m, n))
    assert calls["bottleneck.module_distance"] == calls["bottleneck.cost_table"] == 1
    assert calls["bottleneck.probe"] >= 1
    probes = calls["bottleneck.probe"]
    phases = PModule.of("(0,1)", "[1,6)"), PModule.of("(1/2,6)", "(3,8)")
    calls = _traced_calls(lambda: bottleneck.module_distance(*phases))
    assert calls["bottleneck.probe"] >= 1 and calls["bottleneck.hk"] >= 1
    calls = _traced_calls(lambda: bottleneck.distance_certificate(m, n))
    assert calls["bottleneck.certificate"] == calls["bottleneck.cost_table"] == 1
    assert calls["bottleneck.probe"] == probes
    calls = _traced_calls(lambda: bottleneck.modules_eps_interleaved(m, n, 1))
    assert calls["bottleneck.decide"] == 1
    assert calls["bottleneck.cost_table"] == calls["bottleneck.probe"] == 0
    calls = _traced_calls(lambda: bottleneck.modules_eps_interleaved(*phases, Fraction(17, 8)))
    assert calls["bottleneck.decide"] == 1 and calls["bottleneck.hk"] >= 1
    assert calls["bottleneck.cost_table"] == calls["bottleneck.probe"] == 0


def test_hooks_install_after_importing_only_the_cli():
    """The benchmark's traced runs import only ``persistd.cli`` before they
    install the tracer.  The modules that load on first use must still be
    found, the ``gen`` command must reach the wrapped generator, and no
    module may keep a wrapper once the tracer is uninstalled."""
    script = (
        "import sys, persistd.cli\n"
        "namespace = {'__name__': 'layertrace'}\n"
        f"exec(compile(open({str(LAYERTRACE)!r}).read(), {str(LAYERTRACE)!r}, 'exec'), namespace)\n"
        "tracer = namespace['Tracer']()\n"
        "tracer.install()\n"
        "code = persistd.cli.cli_main(['gen', 'staircase', '--n', '2'])\n"
        "tracer.uninstall()\n"
        "left = [f'{name}.{attr}' for name, module in list(sys.modules.items())\n"
        "        if name.startswith('persistd') for attr, value in vars(module).items()\n"
        "        if hasattr(value, '__wrapped__')]\n"
        "print(code, tracer.missing, tracer.calls['families.generate'], left)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=Path(bottleneck.__file__).parents[1],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out.splitlines()[-1] == "0 [] 1 []"
