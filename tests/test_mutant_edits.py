"""Every named edit of the mutation runner (``tests/mutants/run.py``)
applies to the current kernel: its source text occurs exactly once in its
file.  A kernel change that moves or duplicates a mutated line then fails
here, in tier-1, instead of breaking the runner."""

import importlib.util
from pathlib import Path

import pytest

RUNNER = Path(__file__).parent / "mutants" / "run.py"
SOURCE = Path(__file__).parents[1] / "src" / "persistd"


def _mutants():
    spec = importlib.util.spec_from_file_location("mutant_runner", RUNNER)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    return runner.MUTANTS


MUTANTS = _mutants()


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_edit_occurs_once(mutant):
    text = (SOURCE / mutant.file).read_text()
    assert mutant.old != mutant.new
    assert text.count(mutant.old) == 1, mutant.old
