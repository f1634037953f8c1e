"""Mutation runner for the distance kernel.

Each mutant is one named source edit to ``src/persistd/bottleneck.py`` or
``src/persistd/interleaving.py``.  The runner copies ``src/`` and ``tests/``
of this checkout to a temporary directory, applies the edit there, and
runs the kernel test files on the copy with ``pytest -x`` and a time
limit.  A mutant is

* killed   when a test fails,
* hung     when the run passes the time limit, or a test hits the suite's
           own per-test limit (``conftest.TEST_SECONDS``),
* survived when every test passes,
* broken   when the edit does not apply or the copy does not import.

Speed-only mutants change how fast the kernel is, not what it returns, and
are expected to survive.  Every other mutant must be killed.

Usage, from the repository root (standard library and pytest only)::

    python tests/mutants/run.py                # every mutant
    python tests/mutants/run.py --list         # names and descriptions
    python tests/mutants/run.py NAME [NAME...] # some of them

It prints one line per mutant and exits 1 unless every mutant that is not
speed-only is killed and every speed-only one survives.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]

# The kernel test files, the fast and deterministic detectors first.
KERNEL_TESTS = (
    "test_kernel_steps.py",
    "test_run_flows.py",
    "test_bottleneck.py",
    "test_table_free.py",
    "test_interleaving.py",
    "test_interval_lattice.py",
    "test_lattice.py",
    "test_pmodule_copies.py",
    "test_golden_certificates.py",
)

# Seconds one mutant's test run may take; an unmutated run takes about 40.
TIME_LIMIT = 400


class Mutant(NamedTuple):
    name: str
    file: str  # under src/persistd
    old: str  # must occur exactly once in the file
    new: str
    speed_only: bool
    note: str


BN, IL = "bottleneck.py", "interleaving.py"

MUTANTS = (
    # The fourteen hand-written mutants of the ROADMAP re-anchor, on the
    # code that now holds each of them.
    Mutant("jump-bisect-right", BN,
           "hi = bisect_left(tops, ((value + 1) & -4) + 1)",
           "hi = bisect_right(tops, ((value + 1) & -4) + 1)", False,
           "the jump keeps the top of the feasible value inside the bracket"),
    Mutant("unit-merge-no-covered-skip", BN,
           "        if j in covered:\n            continue\n        while j in m2:",
           "        while j in m2:", False,
           "the Mendelsohn-Dulmage walk also starts from N vertices M1 covers"),
    Mutant("unit-seeds-no-membership", BN,
           "if j != -1 and pair_r[j] == -1 and j in lists[k]:",
           "if j != -1 and pair_r[j] == -1:", False,
           "an earlier partner seeds a run even when it is no longer a neighbour"),
    Mutant("matching-root-start-0", BN,
           "                start = path[0][2]\n                if len(path) > 1",
           "                start = 0\n                if len(path) > 1", True,
           "a root with the previous root's list scans it from the start"),
    Mutant("boxes-upper-plus-one", BN,
           "below, above = up - w, up + w", "below, above = up - w, up + w + 1", False,
           "the box admits an upper-key gap of w + 1"),
    Mutant("boxes-upper-minus-one", BN,
           "below, above = up - w, up + w", "below, above = up - w - 1, up + w", False,
           "the box admits an upper-key gap of w + 1 below"),
    Mutant("boxes-lower-plus-one", BN,
           "bisect_right(lows, low + w)", "bisect_right(lows, low + w + 1)", False,
           "the box admits a lower-key gap of w + 1"),
    Mutant("boxes-lower-minus-one", BN,
           "bisect_left(lows, low - w)", "bisect_left(lows, low - w - 1)", False,
           "the box admits a lower-key gap of w + 1 below"),
    Mutant("bound-odd-top", IL,
           "4 * -(-num // (2 * den)) - 3", "4 * -(-num // (2 * den)) - 1", False,
           "eps between classes admits the open end of the class above"),
    Mutant("key-entry-half-diameter", IL,
           "h = max(a[1] - a[0], b[1] - b[0]) // 2 + 1",
           "h = max(a[1] - a[0], b[1] - b[0]) // 2", False,
           "the halving term of a pair loses its decoration"),
    Mutant("table-to-zero", BN,
           "dtz_m = [(up - low) // 2 + 1 for low, up in keys_m]",
           "dtz_m = [(up - low) // 2 for low, up in keys_m]", False,
           "the M summands' to-zero entries lose their decoration"),
    Mutant("table-no-halving", BN,
           "row.append(g if g < h else h)", "row.append(g)", False,
           "the table forgets that deleting both summands may be cheaper"),
    Mutant("rescale-drops-decoration", IL,
           "f * (lo - (lo & 1)) + (lo & 1)", "f * lo", False,
           "a lower key rescales with its decoration multiplied"),
    Mutant("lattice-small-infinity", IL,
           "    reach = max(f_m * reach_m, f_n * reach_n)\n    big = 8 * reach + 2",
           "    reach = max(f_m * reach_m, f_n * reach_n)\n    big = reach + 1", False,
           "the infinities sit too close to the finite keys"),
    # The capacitated matcher on runs.
    Mutant("greedy-ignores-room", BN,
           "units = free if free < short else short", "units = short", False,
           "the greedy start takes a run's whole shortfall from one neighbour"),
    Mutant("saturation-ge", BN,
           "                if room[v]:\n                    frame[1], frame[2] = v, k",
           "                if room[v] >= 0:\n                    frame[1], frame[2] = v, k", False,
           "an augmenting path may end at a right run with no room left"),
    Mutant("backward-units-kept", BN,
           "        for v, w in steps:\n", "        for v, w in ():\n", False,
           "a backward step does not give the edge's units back"),
    Mutant("push-one-unit", BN,
           "units = min([need[root], room[last], *(users[v][w] for v, w in steps)])",
           "units = 1", True,
           "each augmenting path carries one unit, not its smallest residual"),
    Mutant("flow-root-start-0", BN,
           "                short -= pushed\n                start = path[0][2]",
           "                short -= pushed\n                start = 0", True,
           "a root trying again scans its list from the start"),
    Mutant("stale-edges-kept", BN,
           "for j in [j for j in out if j not in near]:", "for j in ():", False,
           "a run keeps its earlier units on edges no longer in its list"),
    Mutant("dropped-runs-keep-units", BN,
           "for r in sent.keys() - set(runs):", "for r in ():", False,
           "runs no longer mandatory keep the room their units hold"),
    Mutant("merge-no-rewalk", BN,
           "                    sent_n[k] -= units\n                    walk.append(k)",
           "                    sent_n[k] -= units", False,
           "an N run short again after the walk takes its units back is left short"),
)


def apply(mutant: Mutant, src: Path) -> None:
    path = src / "persistd" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"the edit of {mutant.name} matches {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> tuple[str, str, float]:
    """(outcome, the failing test or a reason, seconds)."""
    with tempfile.TemporaryDirectory(prefix="persistd-mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests",
                        ignore=shutil.ignore_patterns("__pycache__", "mutants"))
        try:
            apply(mutant, work / "src")
        except ValueError as exc:
            return "broken", str(exc), 0.0
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "--rootdir", str(work), *(str(work / "tests" / f) for f in KERNEL_TESTS)]
        start = time.monotonic()
        try:
            done = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True,
                                  timeout=TIME_LIMIT)
        except subprocess.TimeoutExpired:
            return "hung", f"no result in {TIME_LIMIT} s", time.monotonic() - start
        seconds = time.monotonic() - start
    out = done.stdout + done.stderr
    failed = next((line.split(" - ")[0].split("::", 1)[-1] for line in out.splitlines()
                   if line.startswith(("FAILED", "ERROR"))), "")
    if done.returncode == 0:
        return "survived", "", seconds
    if "test ran longer than" in out:
        return "hung", f"per-test limit in {failed}", seconds
    if done.returncode == 1:
        return "killed", failed, seconds
    return "broken", f"pytest exit {done.returncode}: {out.strip().splitlines()[-1:]}", seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the kernel's mutants.")
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name:28} {'speed-only ' if m.speed_only else ''}{m.file}: {m.note}")
        return 0
    bad = 0
    for m in chosen:
        outcome, detail, seconds = run(m)
        expected = "survived" if m.speed_only else "killed"
        bad += outcome != expected
        mark = "ok " if outcome == expected else "BAD"
        kind = "speed-only" if m.speed_only else ""
        print(f"{mark} {m.name:28} {outcome:8} {seconds:6.1f} s {kind:10} {detail}", flush=True)
    print(f"{len(chosen) - bad}/{len(chosen)} as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
