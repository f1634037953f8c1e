"""Record the reference answers the benchmark checks against.

    python3 perfbench/record.py dense
    python3 perfbench/record.py verify

``dense`` computes the distance of every dense pair with the library and
accepts it only when two independent checks agree: a matching certificate
at the value verifies (upper bound), and the eps-decision is false just
below the value and true just above it (lower bound, exact because every
candidate is a multiple of 1/32).

``verify`` stores the stdout of ``persistd verify <suite>`` for every suite
at seed 0 and checks that other seeds print the same text with only the
seed changed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

import workloads as wl


def record_dense() -> dict:
    pd = wl.load_persistd()
    out = {}
    for slot in range(wl.DENSE_SLOTS):
        start = time.perf_counter()
        inputs = wl.dense_inputs(slot)
        values = []
        for n, a_text, b_text in inputs:
            m, k = pd.parse_module(a_text), pd.parse_module(b_text)
            d = pd.module_distance(m, k)
            if not d.is_finite:
                raise SystemExit(f"slot {slot}: infinite distance")
            cert = pd.distance_certificate(m, k)
            value = d.as_fraction
            if cert.threshold != d or not pd.verify_certificate(m, k, cert):
                raise SystemExit(f"slot {slot}: certificate does not verify {d}")
            if not pd.modules_eps_interleaved(m, k, value + wl.DENSE_DELTA):
                raise SystemExit(f"slot {slot}: not interleaved above {d}")
            if value > 0 and pd.modules_eps_interleaved(m, k, value - wl.DENSE_DELTA):
                raise SystemExit(f"slot {slot}: interleaved below {d}")
            values.append(str(d))
        out[str(slot)] = {
            "fingerprint": wl.fingerprint(t for _, a, b in inputs for t in (a, b)),
            "distances": values,
        }
        print(f"slot {slot}: {len(values)} pairs in {time.perf_counter() - start:.1f}s",
              file=sys.stderr, flush=True)
    return {
        "about": "module_distance of each dense pair, recorded from the seed code and "
        "cross-checked by certificate and by the eps-decision at d -/+ 1/64",
        "sizes": list(wl.DENSE_SIZES),
        "pairs_per_slot": wl.DENSE_PAIRS,
        "slots": out,
    }


def record_verify() -> dict:
    pd = wl.load_persistd()
    suites = {}
    for suite in pd.SUITE_NAMES:
        texts = {}
        for seed in (0, 1, 17):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = pd.cli.cli_main(
                    ["verify", suite, f"--seed={seed}", f"--trials={wl.VERIFY_TRIALS}"]
                )
            if code != 0:
                raise SystemExit(f"suite {suite} fails at seed {seed}")
            texts[seed] = buf.getvalue()
        for seed, text in texts.items():
            if wl.verify_expected(texts[0], seed) != text:
                raise SystemExit(f"suite {suite}: output at seed {seed} is not the template")
        suites[suite] = texts[0]
    return {"trials": wl.VERIFY_TRIALS, "suites": suites}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("dense", "verify"))
    args = parser.parse_args()

    doc = record_dense() if args.what == "dense" else record_verify()
    with open(wl.HERE / "refs" / f"{args.what}.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
