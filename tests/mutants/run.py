"""Mutation runner for the distance kernel.

Each mutant is one named source edit to the distance kernel,
``src/persistd/bottleneck.py`` and ``src/persistd/interleaving.py``, or to
the producers of int runs: the parser, ``src/persistd/intervals.py`` and
``src/persistd/pmodule.py``, and the witness families,
``src/persistd/families.py``.  The runner copies ``src/`` and ``tests/``
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
    "test_module_views.py",
    "test_parse_order.py",
    "test_families.py",
    "test_shared_floor.py",
)

# Seconds one mutant's test run may take; an unmutated run takes about 40.
TIME_LIMIT = 400

# The Hypothesis profile of ``tests/conftest.py`` without the shrink phase:
# a property that fails is reported at once, so a killed mutant cannot time
# out while Hypothesis shrinks its counterexample.
HYPOTHESIS_PROFILE = "mutants"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/persistd
    old: str  # must occur exactly once in the file
    new: str
    speed_only: bool
    note: str


BN, IL, IV, PM = "bottleneck.py", "interleaving.py", "intervals.py", "pmodule.py"
FA = "families.py"

MUTANTS = (
    # The hand-written mutants of the ROADMAP re-anchor, on the code that
    # now holds each of them.
    Mutant("unit-merge-no-covered-skip", BN,
           "        if j in covered:\n            continue\n        while j in m2:",
           "        while j in m2:", False,
           "the Mendelsohn-Dulmage walk also starts from N vertices M1 covers"),
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
    Mutant("boxes-one-low-any-window", BN,
           "if a < b and lows[a] == lows[b - 1]:", "if a < b:", False,
           "the box bisects the upper keys of a window of several lower keys"),
    Mutant("boxes-one-low-upper-open", BN,
           "bisect_right(ups, above, a, b)", "bisect_left(ups, above, a, b)", False,
           "the box of one lower key leaves out an upper-key gap of exactly w above"),
    Mutant("boxes-upper-lt", BN,
           "if below <= ups[j] <= above:", "if below <= ups[j] < above:", False,
           "the box leaves out an upper-key gap of exactly w above"),
    Mutant("bound-odd-top", IL,
           "4 * -(-num // (2 * den)) - 3", "4 * -(-num // (2 * den)) - 1", False,
           "eps between classes admits the open end of the class above"),
    Mutant("key-entry-half-diameter", IL,
           "h = max(a[1] - a[0], b[1] - b[0]) // 2 + 1",
           "h = max(a[1] - a[0], b[1] - b[0]) // 2", False,
           "the halving term of a pair loses its decoration"),
    Mutant("table-to-zero", BN,
           "return [(up - low) // 2 + 1 for low, up in zip(lows, ups)]",
           "return [(up - low) // 2 for low, up in zip(lows, ups)]", False,
           "every to-zero entry loses its decoration"),
    Mutant("to-zero-columns-swapped", BN,
           "    lows, ups = cols\n    return [(up - low)",
           "    ups, lows = cols\n    return [(up - low)", False,
           "the to-zero entries read the upper keys as the lower ones"),
    Mutant("entry-no-halving", BN,
           "out.append(g if g < h else h)", "out.append(g)", False,
           "the inline entry forgets that deleting both summands may be cheaper"),
    Mutant("rescale-drops-decoration", IL,
           "n * (s2 // d) + (lo & 1)", "n * (s2 // d)", False,
           "a lower key rescales without its decoration"),
    Mutant("rescale-upper-lower-ratios", IL,
           "zip(ups, ratios[2::4], ratios[3::4])", "zip(ups, ratios[::4], ratios[1::4])", False,
           "the upper column rescales with the lower endpoints' values"),
    Mutant("view-upper-lower-decoration", IL,
           "2 * hi - 1 + e[7]", "2 * hi - 1 + e[3]", False,
           "a view's upper key takes the lower endpoint's decoration"),
    Mutant("view-lower-upper-points", IL,
           "2 * lo + e[3] for e, lo in zip(runs, points[::2])",
           "2 * lo + e[3] for e, lo in zip(runs, points[1::2])", False,
           "a view's lower column reads the upper endpoints' points"),
    Mutant("entry-reads-first-run", IL,
           "(lows[-1], ups[-1]) if ns", "(lows[0], ups[0]) if ns", False,
           "the per-interval entry reads the first interval's keys for the second"),
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
    Mutant("dropped-runs-lose-room", BN,
           "        for j, units in sent.pop(r).items():\n            room[j] += units\n",
           "        sent.pop(r)\n", False,
           "runs no longer mandatory drop their units without giving the room back"),
    Mutant("cover-mandatory-ge", BN,
           "runs = [r for r, v in enumerate(dtz) if v > t]",
           "runs = [r for r, v in enumerate(dtz) if v >= t]", False,
           "the flow takes a run of to-zero entry t for mandatory"),
    Mutant("flow-users-in-insertion-order", BN,
           "for u in sorted(sent):", "for u in sent:", False,
           "the flow's users follow the seed's insertion order, not the run order"),
    # The repair of the search's one matching when no run repeats.
    Mutant("repair-keeps-pairs-above-t", BN,
           "if j != -1 and term[i] > t:", "if False:", False,
           "a probe keeps the seed's pairs whose term exceeds t"),
    Mutant("prune-term-ge", BN,
           "if j != -1 and term[i] > t:", "if j != -1 and term[i] >= t:", False,
           "a probe also drops the seed's pairs whose term is t"),
    Mutant("repair-target-lt", BN,
           "pair_r = [-1 if i == -1 or dtz[i] <= t else i for i in other]",
           "pair_r = [-1 if i == -1 or dtz[i] < t else i for i in other]", False,
           "the phases take a partner of to-zero entry t for mandatory, not a target"),
    Mutant("repair-partner-keeps-pairing", BN,
           "        if o != -1:\n            mate[o] = -1\n        mate[i] = j",
           "        mate[i] = j", False,
           "the partner a direct target swaps out keeps its side of the pair"),
    Mutant("swap-partner-keeps-pairing", BN,
           "            if p != -1:\n                mate[p] = -1\n",
           "", False,
           "the partner a swap's target swaps out keeps its side of the pair"),
    Mutant("phases-partner-keeps-pairing", BN,
           "            if o != -1 and mate[o] == j:\n                mate[o] = -1\n",
           "", False,
           "the partner the phases swap out keeps its side of the pair"),
    Mutant("bfs-stops-before-free-layer", BN,
           "if found_free and shortest:", "if shortest:", False,
           "the phases' BFS stops after its first list, found a free vertex or not"),
    Mutant("bfs-cuts-own-layer", BN,
           "if dist[w] > dist[u]:", "if dist[w] >= dist[u]:", True,
           "the shortest BFS also cuts the rest of the layer that found a free vertex"),
    Mutant("direct-target-any", BN,
           "if dtz_other[j] > t:", "if True:", True,
           "a free run takes its first target, not its first mandatory one"),
    Mutant("swaps-forget-dead-runs", BN,
           "            if o in dead:\n                continue\n", "", True,
           "the swaps search a list in vain again"),
    Mutant("phases-always-cut", BN,
           "pair_r, hall, unbuilt)", "pair_r, hall, True)", True,
           "the phases cut each BFS at its first free layer even when every list is built"),
    # The bound a feasible probe returns: the value of the matching, or of
    # the two sides' flows when a run repeats, that it leaves in its seeds.
    Mutant("jump-drops-free-n-runs", BN,
           "*(v for j, v in enumerate(dtz_n) if j not in sent_n)", "*()", False,
           "the jump bound leaves out the N runs sent_n does not cover"),
    Mutant("jump-drops-free-m-runs", BN,
           "*(v for i, v in enumerate(dtz_m) if i not in sent_m)", "*()", False,
           "the jump bound leaves out the M runs sent_m does not cover"),
    Mutant("jump-drops-side-n-edges", BN,
           ",\n            *((i, j) for j, row in sent_n.items() for i in row)]", "]", False,
           "the jump bound leaves out the edge costs of sent_n"),
    Mutant("value-drops-free-n-runs", BN,
           "*term, *(v for v, i in zip(dtz_n, mate_n) if i == -1)]", "*term]", False,
           "a repaired matching's value leaves out the N runs it leaves unmatched"),
    Mutant("value-takes-to-zero", BN,
           "*_entries(used, dtz_m, dtz_n, cols_m, cols_n)", "*(dtz_m[i] for i, _ in used)",
           False, "a feasible probe on repeated runs takes each used edge's M run's to-zero "
           "entry, not the edge's entry"),
    Mutant("term-takes-to-zero", BN,
           "zip(new, _entries(new, dtz_m, dtz_n, cols_m, cols_n))",
           "zip(new, (dtz_m[i] for i, _ in new))", False,
           "a run's new pair gives it its to-zero entry as its term, not the pair's entry"),
    Mutant("term-stale-when-unmatched", BN,
           "        for i, _ in moved:\n            term[i] = dtz_m[i]\n", "", False,
           "a run whose pair a feasible probe drops keeps that pair's entry as its term"),
    Mutant("probe-keeps-old-seeds", BN,
           "        seeds[0][:], seeds[1][:] = mate_m, mate_n\n", "", False,
           "a feasible probe returns its matching's value but leaves its old seeds"),
    # The search's bracket of class indices and its Koenig floors.
    Mutant("floor-without-to-zero", BN,
           "low = min(map(dtz.__getitem__, hall))", "low = 10**100", False,
           "the floor leaves out the to-zero entries of X"),
    Mutant("floor-reads-inside-hood", BN,
           "            if j in hood:\n                continue\n", "", False,
           "the floor also reads X's entries to runs inside N(X)"),
    Mutant("floor-window-short", BN,
           "bisect_left(lows, a + low))", "bisect_left(lows, a + low - 1))", False,
           "the floor's window leaves out the runs whose lower key lies low - 1 above"),
    Mutant("witness-roots-only", BN,
           "hall += [u for u, d in enumerate(dist) if d != unreachable]",
           "hall += [u for u, d in enumerate(dist) if d == 0]", False,
           "the witness walk of the phases does not follow partners: X is the free runs"),
    Mutant("flow-witness-roots-only", BN,
           "hall += [u for u in range(n_left) if dist[u] != unreachable]",
           "hall += [u for u in range(n_left) if dist[u] == 0]", False,
           "the witness walk of the flow does not follow users: X is the short runs"),
    Mutant("lo-floor-class", BN,
           "lo, drops = k, 0", "lo, drops = bound + 1 >> 2, 0", False,
           "lo moves to the floor's class, which is the probe's when the floor is 4 mid + 2"),
    Mutant("bound-at-top-is-floor", BN,
           "if bound > top:", "if bound >= top:", False,
           "a feasible probe whose value equals its top moves lo, as a floor would"),
    Mutant("hi-without-plus-one", BN,
           "+ 1 >> 2, reach) + 1", "+ 1 >> 2, reach)", False,
           "hi starts at the largest to-zero entry's class, or reach for +inf"),
    # The shared-run floor the search starts from.
    Mutant("shared-floor-class-too-high", BN,
           "lo = min(_shared_floor(*tables) + 2 >> 2, hi)",
           "lo = min((_shared_floor(*tables) + 2 >> 2) + 1, hi)", False,
           "lo starts one class above the floor's, past the answer when the floor is tight"),
    Mutant("shared-floor-min-gap", BN,
           "cost = max(_nearest(other_lows, low, h), _nearest(other_ups, up, h))",
           "cost = min(_nearest(other_lows, low, h), _nearest(other_ups, up, h))", False,
           "a run's cost takes the smaller of its two nearest key gaps, not the larger"),
    Mutant("shared-floor-reads-shared-runs", BN,
           "if h > floor and (low, up) not in shared:", "if h > floor:", True,
           "the floor also reads the runs with an identical partner, each of cost 0"),
    Mutant("shared-floor-skips-other-shared-runs", BN,
           "        other_ups = sorted(other_ups)\n",
           "        own = set(zip(lows, ups))\n"
           "        kept = [key for key in zip(other_lows, other_ups) if key not in own]\n"
           "        other_lows, other_ups = [x for x, _ in kept], sorted(y for _, y in kept)\n",
           False,
           "a run's nearest gaps leave out the other side's runs that this side shares"),
    Mutant("search-walks-every-bit", BN,
           "mid = 1 << (a + b - 1) // 2 if drops > 1 and b - a > 1 else (lo + hi) // 2",
           "mid = (lo + hi) // 2", False,
           "the probe is always the middle class, one probe per lattice bit on a descent"),
    # The eps-decision's matcher from the empty start, either pair shape.
    Mutant("decision-matches-m-only", BN,
           " and\n            match(w, dtz_n, _Lists(cols_n, cols_m, w), *side_n, hall))",
           ")", False,
           "the decision matches only M's side"),
    # The certificate check on the pair's key columns.
    Mutant("verify-skips-unmatched-n", BN,
           "            all(dtz_n[run_n[j]] <= top for j in cert.unmatched_n) and\n", "", False,
           "the certificate check accepts any unmatched N summand"),
    Mutant("verify-pairs-read-m-to-zero", BN,
           "all(r <= top for r in _entries(pairs, dtz_m, dtz_n, cols_m, cols_n))",
           "all(dtz_m[i] <= top for i, _ in pairs)", False,
           "the certificate check bounds each pair by its M summand's to-zero entry"),
    # The bit cap and work budgets that ``_admit`` checks before any view is
    # built.
    Mutant("distance-skips-key-check", BN,
           'checks += ((runs_m + runs_n, KEYS_BUDGET, "key"),)',
           'checks += () if table else ((runs_m + runs_n, KEYS_BUDGET, "key"),)', False,
           "the distance and the certificate check only the table budget"),
    Mutant("joint-cut-ignores-m-bits", BN,
           "n._lcm(BITS_CAP - bits_m)", "n._lcm(BITS_CAP)", False,
           "N's lcm folds to the whole bit cap, whatever M's bits"),
    Mutant("bit-cap-ge", BN,
           "if bits > BITS_CAP:", "if bits >= BITS_CAP:", False,
           "the bit cap refuses a lattice of exactly its bits"),
    # The parser's int runs and their canonical order.
    Mutant("parse-skips-gcd", IV,
           "return 0, num // g, den // g", "return 0, num, den", False,
           "parsed endpoints keep their unreduced numerator and denominator"),
    Mutant("key-lower-decoration-flipped", PM,
           "return e[0], (e[1] << 64) // e[2], e[3],", "return e[0], (e[1] << 64) // e[2], 1 - e[3],",
           False, "the run key puts an open lower endpoint before a closed one"),
    Mutant("equal-runs-not-merged", PM,
           "counts[e] = counts.get(e, 0) + k", "counts[e] = k", False,
           "equal runs are not summed: the last one's count replaces the others'"),
    Mutant("key-precision-halved", PM,
           "shift = 2 * max(", "shift = max(", False,
           "a value of a long denominator is keyed to L binary places, not 2L"),
    Mutant("crowded-lower-only", PM,
           "((k[:2], e[2]), (k[3:5], e[6]))", "((k[:2], e[2]),)", False,
           "an upper endpoint of a long denominator does not refine the key of its floor"),
    # The witness families' int runs and the helper that fills them.
    Mutant("finite-ends-lower-flipped", IV,
           'lo_open, hi_closed = bounds[0] == "(",', 'lo_open, hi_closed = bounds[0] == "[",',
           False, "a family's lower endpoint takes the other decoration"),
    Mutant("finite-ends-admits-empty", IV,
           "    if above > 0 or above == 0 and (lo_open or not hi_closed):\n"
           "        raise ValueError(\"the empty interval cannot be a summand\")\n", "", False,
           "a pair that holds no point becomes a summand"),
    Mutant("finite-ends-unreduced", IV,
           "= lo.as_integer_ratio(), hi.as_integer_ratio()",
           "= (2 * lo.numerator, 2 * lo.denominator), hi.as_integer_ratio()", False,
           "a family's lower endpoint keeps an unreduced numerator and denominator"),
    Mutant("cauchy-lower-positive", FA,
           "_finite_ends(Fraction(-1, 2**k),", "_finite_ends(Fraction(1, 2**k),", False,
           "a Cauchy stage's summands start at 1/2^k, not -1/2^k"),
    Mutant("binary-one-bit-upper-plus-one", FA,
           "2 * pos + 2)", "2 * pos + 3)", False,
           "a 1 bit contributes [2(n-1), 2n+3), not [2(n-1), 2n+2)"),
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
                   f"--hypothesis-profile={HYPOTHESIS_PROFILE}", "--rootdir", str(work),
                   *(str(work / "tests" / f) for f in KERNEL_TESTS)]
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
