"""Run the benchmark over many seeds and summarise the spread.

    python3 perfbench/baseline.py --label baseline

Runs ``SETS`` sets of the seeds in ``SEEDS``.  For each set, seed and
workload (in that nesting, so slow drift of the machine spreads over all
workloads) it runs ``run.py --trace 0``, then one ``--trace 1`` run per
workload at seed 0.  It writes ``perfbench/results/BENCH_<label>.json``
with every value, and for each set the median, the quartiles and the
spread (q3 - q1) / median as ``statistics.quantiles(values, n=4)`` gives
them, plus each later set's median relative to the first set's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads as wl

RUN = [sys.executable, str(wl.HERE / "run.py")]
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed={seed} trace={trace} wall={wall:.1f}s "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                     if trace == 0), file=sys.stderr, flush=True)
    return {k: v["value"] for k, v in result["metrics"].items()} | {"wall_s": wall}


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sets = []
    for _ in range(SETS):
        runs = {w: [] for w in wl.WORKLOADS}
        for seed in SEEDS:
            for w in wl.WORKLOADS:
                runs[w].append(run_once(w, seed, seconds, 0))
        sets.append(runs)

    summary = {}
    for w in wl.WORKLOADS:
        summary[w] = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            per_set = [summarise([r[name] for r in s[w]]) for s in sets]
            entry = {"bound": m["bound"], "better": m["better"], "sets": per_set}
            if len(per_set) > 1:
                entry["later_median_vs_first"] = [
                    s["median"] / per_set[0]["median"] - 1 for s in per_set[1:]
                ]
            summary[w][name] = entry
        summary[w]["wall_s_max"] = max(r["wall_s"] for s in sets for r in s[w])

    traced = {w: run_once(w, 0, seconds, 1) for w in wl.WORKLOADS}

    doc = {
        "label": args.label,
        "machine": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "summary": summary,
        "traced_seed0": traced,
        "runs": sets,
    }
    out = wl.HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(wl.ROOT)}", file=sys.stderr)
    for w in wl.WORKLOADS:
        for m in spec["end_to_end"]:
            e = summary[w][m["name"]]
            spreads = " ".join(f"{s['spread']:.3f}" for s in e["sets"])
            shift = " ".join(f"{d:+.3f}" for d in e.get("later_median_vs_first", []))
            print(f"{w:10} {m['name']:13} median {e['sets'][0]['median']:.4g} "
                  f"spread {spreads} (bound {m['bound']}) shift {shift}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
