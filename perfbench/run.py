"""The persistd benchmark.

    python3 perfbench/run.py --workload dense|structured|cli --seed N \
        --seconds S --trace 0|1

One process, one thread, closed loop: each op starts when the previous one
has finished.  The timed phase runs whole passes over the workload's op
list until ``--seconds`` have passed and at least 100 ops have run.  Times
are reported at a reference CPU speed (see ``SPEED_PROBES``).  Every answer
is checked; a wrong answer, an exception or an unexpected exit code is a
failed op, and any failed op makes the run exit 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: it sets up under tracing, runs whole untraced passes over
the op list for half of ``--seconds``, then one traced pass, and writes the
spans to ``perfbench/out/``.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import workloads as wl
from layertrace import Tracer

SETUP_REPS = 3  # setup_s is the median of this many set-ups
WARMUP_OPS = 5
MIN_OPS = 100  # enough timed ops for a 90th percentile
DEADLINE_S = 120.0  # no new pass starts after this, even short of MIN_OPS
CLI_FLOOR_REPS = 5
CLI_COMMANDS = ("dist", "cert", "interleaved", "radical", "verify")

IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import persistd.cli; "
    "print(time.perf_counter() - t)"
)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, op: wl.Op, run=None) -> bool:
        """Run one op (through ``run`` when tracing) and check its answer."""
        self.attempted += 1
        try:
            result = run(op.call) if run else op.call()
        except Exception as exc:  # any exception is a failed op, reported below
            return self._fail(op, f"{type(exc).__name__}: {exc}")
        if not wl.check(op, result):
            return self._fail(op, f"expected {op.expect!r}, got {result!r}")
        return True

    def _fail(self, op: wl.Op, why: str) -> bool:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op.kind}: {why}")
        return False


def _workdir():
    return wl.OUT / f"cli-{os.getpid()}"


def _setup(workload: str, seed: int, tally: Tally):
    """Import persistd, build the inputs, write the files, warm up."""
    wl.purge_persistd()
    ops = wl.make_ops(workload, seed, wl.load_persistd(), _workdir())
    for op in ops[:WARMUP_OPS]:
        tally.attempt(op)
    return ops


# The host's CPU speed drifts by up to 2x within minutes (other tenants),
# so every timing is rescaled to a reference speed.  A speed probe runs after
# each op; an op's time is scaled by REF / (mean probe time of the
# 2 * WINDOW + 1 probes around it).  The probe resembles the timed work and
# runs no persistd code; persistd can reach it only through the cache and
# allocator state an op leaves behind.


def fraction_probe() -> float:
    """Exact rational arithmetic, small tuples and a sort: the shape of the
    library's hot path.  About 2 ms on an idle core.  The cyclic collector
    is off while it runs, so the number of objects the ops keep alive does
    not change its time."""
    gc.disable()
    try:
        start = time.perf_counter()
        total, items = Fraction(0), []
        for i in range(1, 600):
            total += Fraction(1, i % 31 + 1)
            items.append((total, i))
        items.sort()
        return time.perf_counter() - start
    finally:
        gc.enable()


def spawn_probe() -> float:
    """A bare interpreter start, the floor under every CLI op.  About 50 ms
    on an idle core."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=wl.ROOT, capture_output=True,
                   check=True, timeout=60)
    return time.perf_counter() - start


# (probe, its time at the reference speed, probes on each side of a set-up)
FRACTION_PROBE = (fraction_probe, 0.002, 10)
SPAWN_PROBE = (spawn_probe, 0.05, 2)
SPEED_PROBES = {"dense": FRACTION_PROBE, "structured": FRACTION_PROBE, "cli": SPAWN_PROBE}
WINDOW = 5


def at_reference_speed(times: list[float], probes: list[float], ref: float) -> list[float]:
    out = []
    for i, t in enumerate(times):
        near = probes[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(t * ref * len(near) / sum(near))
    return out


def run_passes(ops, probe, seconds: float, min_ops: int, deadline: float, attempt) -> tuple:
    """Whole passes over ``ops`` (so every run measures the same mix) until
    ``seconds`` have passed and ``min_ops`` ops have run, with one speed
    probe after each op.  No pass starts after ``deadline``.

    Returns (op latencies, probe times, correct ops)."""
    latencies, probes, correct = [], [], 0
    start = time.perf_counter()
    while True:
        for op_id, op in enumerate(ops):
            t = time.perf_counter()
            correct += attempt(op_id, op)
            latencies.append(time.perf_counter() - t)
            probes.append(probe())
        now = time.perf_counter()
        if now - start >= seconds and len(latencies) >= min_ops:
            return latencies, probes, correct
        if now >= deadline:
            print(f"warning: only {len(latencies)} timed ops before the deadline",
                  file=sys.stderr)
            return latencies, probes, correct


def run_end_to_end(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    probe, ref, setup_probes = SPEED_PROBES[workload]
    deadline = time.perf_counter() + DEADLINE_S
    setup_times, setup_speed = [], []
    for _ in range(SETUP_REPS):
        before = [probe() for _ in range(setup_probes)]
        start = time.perf_counter()
        ops = _setup(workload, seed, tally)
        setup_times.append(time.perf_counter() - start)
        around = before + [probe() for _ in range(setup_probes)]
        setup_speed.append(sum(around) / len(around))

    latencies, probes, correct = run_passes(
        ops, probe, seconds, MIN_OPS, deadline, lambda _, op: tally.attempt(op))
    scaled = at_reference_speed(latencies, probes, ref)
    setup = [t * ref / p for t, p in zip(setup_times, setup_speed)]
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    print(f"{workload}: {len(latencies)} timed ops, error_ratio "
          f"{tally.failed / tally.attempted}; as measured: {correct / sum(latencies):.4g} "
          f"ops/s, p50 {statistics.median(latencies) * 1e3:.4g} ms, setup "
          f"{statistics.median(setup_times):.4g} s; probe {statistics.median(probes) * 1e3:.4g} "
          f"ms (reference {ref * 1e3:g} ms)", file=sys.stderr)
    return {
        "ops_per_s": (correct / sum(scaled), "1/s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(scaled, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
    }


# ---------------------------------------------------------------------------
# traced run


def trace_pass(workload: str, seed: int, tally: Tally, untraced_seconds: float | None):
    """Set up under tracing, optionally run untraced passes for
    ``untraced_seconds``, then run one traced pass over the ops.  Every op
    runs in-process, so the speed probe is ``fraction_probe``.

    Returns (tracer, ops, untraced ops/s or None, traced ops/s, scale): both
    rates at the reference speed, and ``scale`` turns the tracer's times
    into times at the reference speed (reference probe time over the mean
    probe time around the traced set-up and during the traced pass)."""
    probe, ref, setup_probes = FRACTION_PROBE
    pd = wl.load_persistd()
    tracer = Tracer()
    traced_probes = [probe() for _ in range(setup_probes)]
    tracer.install()
    try:
        ops = wl.make_ops(workload, seed, pd, _workdir(), in_process=True)
    finally:
        tracer.uninstall()
    traced_probes += [probe() for _ in range(setup_probes)]

    deadline = time.perf_counter() + DEADLINE_S

    def rate(latencies, probes, correct):
        return correct / sum(at_reference_speed(latencies, probes, ref))

    untraced = None
    if untraced_seconds is not None:
        untraced = rate(*run_passes(ops, probe, untraced_seconds, 0, deadline,
                                    lambda _, op: tally.attempt(op)))

    def traced_attempt(op_id, op):
        return tally.attempt(op, lambda call: tracer.run_op(op_id, op.kind, call))

    tracer.install()
    try:
        latencies, probes, correct = run_passes(ops, probe, 0, 0, deadline, traced_attempt)
    finally:
        tracer.uninstall()
    traced_probes += probes
    scale = ref * len(traced_probes) / sum(traced_probes)
    return tracer, ops, untraced, rate(latencies, probes, correct), scale


def cli_floors_ms() -> tuple[float, float]:
    """(bare interpreter start, fresh ``import persistd.cli`` timed inside
    the child), medians of ``CLI_FLOOR_REPS`` alternating subprocesses, in
    ms.  The start time is ``spawn_probe`` itself and is given as measured;
    the import time is rescaled by the start time, as cli op times are."""
    starts, imports = [], []
    for _ in range(CLI_FLOOR_REPS):
        starts.append(spawn_probe())
        proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=wl.ROOT,
                              env=wl.cli_env(), capture_output=True, check=True, timeout=60)
        imports.append(float(proc.stdout))
    start = statistics.median(starts)
    return start * 1e3, statistics.median(imports) * SPAWN_PROBE[1] / start * 1e3


def per_layer_metrics(tracer: Tracer, untraced: float, traced: float, scale: float) -> dict:
    """Per-layer metrics; every time except ``cli.python_start_ms`` is at
    the reference speed."""
    t = tracer

    def ms(layer):
        return t.ms(layer) * scale

    def self_ms(layer):
        return t.self_ms(layer) * scale

    command_ms = {cmd: [] for cmd in CLI_COMMANDS}
    for span in t.spans:
        if span["name"] == "cli.command" and span["label"] in command_ms:
            command_ms[span["label"]].append((span["end_ns"] - span["start_ns"]) / 1e6 * scale)
    python_start_ms, import_ms = cli_floors_ms()

    out = {
        "interleaving.interval_distance.calls": (t.calls["interleaving.interval_distance"], "count"),
        "interleaving.interval_distance.ms": (ms("interleaving.interval_distance"), "ms"),
        "interleaving.distance_to_zero.calls": (t.calls["interleaving.distance_to_zero"], "count"),
        "interleaving.are_eps_interleaved.calls": (t.calls["interleaving.are_eps_interleaved"], "count"),
        "interleaving.are_eps_interleaved.ms": (ms("interleaving.are_eps_interleaved"), "ms"),
        "bottleneck.cost_table.ms": (ms("bottleneck.cost_table"), "ms"),
        "bottleneck.probes": (t.calls["bottleneck.probe"], "count"),
        "bottleneck.probe.ms": (ms("bottleneck.probe"), "ms"),
        "bottleneck.hk.calls": (t.calls["bottleneck.hk"], "count"),
        "bottleneck.hk.ms": (ms("bottleneck.hk"), "ms"),
        "bottleneck.candidates.ms": (self_ms("bottleneck.module_distance"), "ms"),
        "bottleneck.certificate.ms": (ms("bottleneck.certificate"), "ms"),
        "bottleneck.verify_certificate.ms": (ms("bottleneck.verify_certificate"), "ms"),
        "bottleneck.decide.self_ms": (self_ms("bottleneck.decide"), "ms"),
        "pmodule.parse_module.calls": (t.calls["pmodule.parse_module"], "count"),
        "pmodule.parse_module.ms": (ms("pmodule.parse_module"), "ms"),
        "pmodule.construct.calls": (t.calls["pmodule.construct"], "count"),
        "pmodule.construct.summands": (t.counts["pmodule.construct.summands"], "count"),
        "pmodule.construct.ms": (ms("pmodule.construct"), "ms"),
        "pmodule.radical.ms": (ms("pmodule.radical"), "ms"),
        "intervals.parse_interval.calls": (t.calls["intervals.parse_interval"], "count"),
        "intervals.parse_interval.ms": (ms("intervals.parse_interval"), "ms"),
        "cli.python_start_ms": (python_start_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
    }
    for cmd, values in command_ms.items():
        out[f"cli.command_ms.{cmd}"] = (statistics.median(values) if values else 0.0, "ms")
    out.update({
        "verify.run_suite.ms": (ms("verify.run_suite"), "ms"),
        "verify.trials": (t.counts["verify.trials"], "count"),
        "families.generate.ms": (ms("families.generate"), "ms"),
        "trace.untraced_ops_per_s": (untraced, "1/s"),
        "trace.traced_ops_per_s": (traced, "1/s"),
        "trace.missing_hooks": (len(t.missing), "count"),
    })
    return out


def run_traced(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    tracer, _, untraced, traced, scale = trace_pass(workload, seed, tally, seconds / 2)
    for name in tracer.missing:
        print(f"trace: could not install hook {name}", file=sys.stderr)
    path = wl.OUT / f"trace-{workload}-seed{seed}.json"
    tracer.write(path)
    print(f"{workload}: spans in {path.relative_to(wl.ROOT)}; untraced {untraced:.3f} ops/s, "
          f"traced {traced:.3f} ops/s; layer times x {scale:.4g} to the reference speed",
          file=sys.stderr)
    return per_layer_metrics(tracer, untraced, traced, scale)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="persistd benchmark")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (wl.SRC / "persistd" / "__init__.py").is_file():
        print(f"error: no persistd package under {wl.SRC}", file=sys.stderr)
        return 2
    tally = Tally()
    try:
        if args.trace:
            metrics = run_traced(args.workload, args.seed, args.seconds, tally)
        else:
            metrics = run_end_to_end(args.workload, args.seed, args.seconds, tally)
    finally:
        shutil.rmtree(_workdir(), ignore_errors=True)
    for line in tally.errors:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
