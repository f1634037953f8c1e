"""Self-tests of the benchmark: deterministic counters, the correctness
gate and the result format.

    python3 perfbench/selftest.py

Exits 0 when every check passes.  Takes about a minute and a half.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import traceback

import run
import workloads as wl

SEED = 5


def need(condition, *info) -> None:
    """A check that ``python -O`` keeps."""
    if not condition:
        raise AssertionError(*info)


def _traced(workload: str, seed: int = SEED):
    tally = run.Tally()
    tracer, ops, *_ = run.trace_pass(workload, seed, tally, None)
    need(tally.failed == 0, tally.errors)
    return tracer, ops


def _counts(tracer) -> dict:
    return {"calls": dict(tracer.calls), "counts": dict(tracer.counts),
            "probes_per_op": dict(tracer.per_op("bottleneck.probe"))}


def test_counts_repeat_and_dense_laws():
    """Two traced passes with one seed count the same; the dense counters
    obey Sum |M||N| and the probe bound."""
    first, ops = _traced("dense")
    second, _ = _traced("dense")
    need(_counts(first) == _counts(second))

    expected_calls = sum(len(m) * len(n) for m, n in (op.pair for op in ops))
    need(first.calls["interleaving.interval_distance"] == expected_calls, (
        first.calls["interleaving.interval_distance"], expected_calls))

    pd = wl.load_persistd()
    probes = first.per_op("bottleneck.probe")
    for op_id, op in enumerate(ops):
        m, n = op.pair
        cands = {pd.interval_distance(a, b) for a in m for b in n}
        cands.update(pd.distance_to_zero(a) for a in (*m, *n))
        cands = {c for c in cands if c.is_finite} | {pd.ExtRational(0)}
        bound = math.ceil(math.log2(len(cands))) + 1
        need(1 <= probes[op_id] <= bound, (op_id, probes[op_id], len(cands)))


def test_structured_and_cli_counts_repeat():
    for workload in ("structured", "cli"):
        first, _ = _traced(workload)
        second, _ = _traced(workload)
        need(_counts(first) == _counts(second), workload)
        need(not first.missing, first.missing)


def test_replicate_probes_at_most_twice():
    tracer, ops = _traced("structured")
    probes = tracer.per_op("bottleneck.probe")
    replicas = [i for i, op in enumerate(ops) if op.kind == "replicate.distance"]
    need(replicas)
    for op_id in replicas:
        need(1 <= probes[op_id] <= 2, (op_id, probes[op_id]))


def _digest(workload: str, seed: int) -> str:
    pd = wl.load_persistd()
    ops = wl.make_ops(workload, seed, pd, wl.OUT / "selftest-inputs")
    shutil.rmtree(wl.OUT / "selftest-inputs", ignore_errors=True)
    return wl.fingerprint(
        f"{op.kind}|{op.expect!r}|{op.pair and tuple(map(str, op.pair))}" for op in ops
    )


def test_seed_changes_inputs():
    for workload in wl.WORKLOADS:
        need(_digest(workload, 1) == _digest(workload, 1), workload)
        need(_digest(workload, 1) != _digest(workload, 2), workload)


def test_gate_counts_wrong_answers():
    pd = wl.load_persistd()
    for workload in wl.WORKLOADS:
        ops = wl.make_ops(workload, SEED, pd, wl.OUT / "selftest-gate")
        good, bad = ops[0], ops[1]
        if isinstance(bad.expect, bool):
            bad.expect = not bad.expect
        elif isinstance(bad.expect, bytes):
            bad.expect += b" "
        else:
            bad.expect = "12345/7"
        raising = wl.Op("raises", lambda: 1 // 0, "0")
        tally = run.Tally()
        results = [tally.attempt(op) for op in (good, bad, raising)]
        shutil.rmtree(wl.OUT / "selftest-gate", ignore_errors=True)
        need(results == [True, False, False], (workload, results, tally.errors))
        need((tally.attempted, tally.failed) == (3, 2))


def test_metric_names_match_benchmark_json():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    tally = run.Tally()
    tracer, _, untraced, traced, scale = run.trace_pass("cli", SEED, tally, 0.0)
    layer = run.per_layer_metrics(tracer, untraced, traced, scale)
    need(sorted(layer) == sorted(m["name"] for m in spec["per_layer"]))
    for m in spec["per_layer"]:
        need(layer[m["name"]][1] == m["unit"], m)
    e2e = run.run_end_to_end("structured", SEED, 0.0, tally)
    need(sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"]))
    for m in spec["end_to_end"]:
        need(e2e[m["name"]][1] == m["unit"], m)
        need(e2e[m["name"]][0] > 0, m)
    need(tally.failed == 0, tally.errors)


def test_refuses_to_run_without_the_program():
    bare = wl.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(wl.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    need(proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout))


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
