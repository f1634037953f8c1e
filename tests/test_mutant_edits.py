"""Every named edit of the mutation runner (``tests/mutants/run.py``)
applies to the current kernel: its source text occurs exactly once in its
file.  A kernel change that moves or duplicates a mutated line then fails
here, in tier-1, instead of breaking the runner.  The mutants' CI workflow
runs on every change to a file they are run against."""

import importlib.util
from pathlib import Path

import pytest

RUNNER = Path(__file__).parent / "mutants" / "run.py"
SOURCE = Path(__file__).parents[1] / "src" / "persistd"


WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "mutants.yml"


def _runner():
    spec = importlib.util.spec_from_file_location("mutant_runner", RUNNER)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    return runner


RUNNER_MODULE = _runner()
MUTANTS = RUNNER_MODULE.MUTANTS


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_edit_occurs_once(mutant):
    text = (SOURCE / mutant.file).read_text()
    assert mutant.old != mutant.new
    assert text.count(mutant.old) == 1, mutant.old


def test_workflow_runs_on_every_file_the_mutants_run_against():
    """The workflow's ``paths`` list each kernel test file, the helpers and
    data they read, every source file a mutant edits, and the runner."""
    listed = {line.strip()[2:] for line in WORKFLOW.read_text().splitlines()
              if line.strip().startswith("- ")}
    inputs = [*RUNNER_MODULE.KERNEL_TESTS, "oracles.py", "kernel_seam.py", "strategies.py",
              "conftest.py", "golden_certificates.json"]
    missing = [f for f in inputs if f"tests/{f}" not in listed]
    assert not missing, missing
    edited = {f"src/persistd/{m.file}" for m in MUTANTS}
    assert edited | {"tests/mutants/**"} <= listed, sorted(edited - listed)
