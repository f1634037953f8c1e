"""Seeded inputs and reference answers for the three benchmark workloads.

Every op is a zero-argument callable plus the answer it must return.  No
answer comes from the library at run time:

* ``dense`` answers were recorded once (``record.py``) and are looked up in
  ``refs/dense.json`` by seed slot;
* ``structured`` answers are the closed forms of the witness families and
  the radical by its definition;
* ``cli`` answers are exact stdout bytes, built from the same closed forms
  or, for ``verify``, read from ``refs/verify.json``.

The persistd modules are imported inside the setup functions, never at the
top of this file, so that ``run.py`` can time a fresh import on each set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import import_module
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("dense", "structured", "cli")

# Endpoint grid shared by every random interval: values p/q on [-50, 50]
# with q in {1, 2, 4, 8, 16}, the grid of ``persistd.verify.random_interval``.
LO, HI, MAX_DEN = Fraction(-50), Fraction(50), 16

DENSE_SIZES = (20, 32, 44, 56, 68)
DENSE_PAIRS = 40
DENSE_SLOTS = 32
# Every dense candidate is a multiple of 1/32, so the decision one 1/64
# below a candidate is the decision at the candidate below it.
DENSE_DELTA = Fraction(1, 64)

VERIFY_TRIALS = 6

# Op lists are shuffled in the same order for every seed: the seed changes
# what each op computes, never which kind of op comes where, so the warm-up
# and the mix of any prefix are the same for every seed.
ORDER_SEED = "perfbench order"


@dataclass
class Op:
    """One benchmark operation and the answer it must produce.

    ``expect`` is a ``str`` for a distance (compared with ``str(result)``),
    a ``bool`` for a decision and ``bytes`` for CLI stdout.  ``pair`` holds
    the two modules of an in-process distance or decision op.
    """

    kind: str
    call: Callable[[], object]
    expect: object
    pair: tuple | None = None


def check(op: Op, result) -> bool:
    if isinstance(op.expect, bool):
        return result is op.expect
    if isinstance(op.expect, bytes):
        return result == op.expect
    return str(result) == op.expect


def load_persistd():
    """Import the package from ``src`` (fresh when the caller purged it)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import_module("persistd.cli")
    return import_module("persistd")


def purge_persistd() -> None:
    for name in [n for n in sys.modules if n == "persistd" or n.startswith("persistd.")]:
        del sys.modules[name]


# ---------------------------------------------------------------------------
# input text


def _fraction(rng: random.Random) -> Fraction:
    den = rng.choice([d for d in (1, 2, 4, 8, 16) if d <= MAX_DEN])
    return Fraction(rng.randint(int(LO * den), int(HI * den)), den)


def _bracketed(lo, hi, lo_closed: bool, hi_closed: bool) -> str:
    return f"{'[' if lo_closed else '('}{lo},{hi}{']' if hi_closed else ')'}"


def random_interval_text(rng: random.Random) -> str:
    """Same distribution as ``verify.random_interval`` on the grid above,
    without empty or infinite intervals."""
    a, b = _fraction(rng), _fraction(rng)
    if a > b:
        a, b = b, a
    if a == b:
        return _bracketed(a, a, True, True)
    return _bracketed(a, b, rng.random() < 0.5, rng.random() < 0.5)


def proper_interval(rng: random.Random) -> tuple[str, Fraction]:
    """A random interval of positive diameter: (text, diameter)."""
    while True:
        a, b = sorted((_fraction(rng), _fraction(rng)))
        if a < b:
            return _bracketed(a, b, rng.random() < 0.5, rng.random() < 0.5), b - a


def module_json(entries) -> str:
    """Module JSON from (interval text, multiplicity) pairs."""
    return json.dumps(
        {"summands": [{"interval": t, "multiplicity": k} for t, k in entries]},
        sort_keys=True,
    )


def fingerprint(texts) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
        digest.update(b"\n")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# dense: random module pairs with recorded distances


def dense_slot(seed: int) -> int:
    return seed % DENSE_SLOTS


def dense_inputs(slot: int) -> list[tuple[int, str, str]]:
    """(n, module JSON, module JSON) for each pair of a seed slot; the
    sizes cycle through ``DENSE_SIZES`` so every prefix is balanced."""
    rng = random.Random(f"perfbench dense {slot}")
    out = []
    for i in range(DENSE_PAIRS):
        n = DENSE_SIZES[i % len(DENSE_SIZES)]
        m_text, n_text = (
            module_json((random_interval_text(rng), 1) for _ in range(n))
            for _ in range(2)
        )
        out.append((n, m_text, n_text))
    return out


def load_dense_refs() -> dict:
    return json.loads((HERE / "refs" / "dense.json").read_text())


def dense_ops(seed: int, pd) -> list[Op]:
    slot = dense_slot(seed)
    inputs = dense_inputs(slot)
    ref = load_dense_refs()["slots"][str(slot)]
    if fingerprint(t for _, a, b in inputs for t in (a, b)) != ref["fingerprint"]:
        raise RuntimeError(
            f"dense inputs for slot {slot} differ from the recorded ones; "
            "re-record refs/dense.json"
        )
    ops = []
    for (n, a_text, b_text), value in zip(inputs, ref["distances"]):
        m, k = pd.parse_module(a_text), pd.parse_module(b_text)
        ops.append(Op(f"distance.n{n}", _distance_call(pd, m, k), value, (m, k)))
    return ops


def _distance_call(pd, m, n):
    bottleneck = pd.bottleneck
    return lambda: bottleneck.module_distance(m, n)


def _decision_call(pd, m, n, eps):
    bottleneck = pd.bottleneck
    return lambda: bottleneck.modules_eps_interleaved(m, n, eps)


# ---------------------------------------------------------------------------
# structured: witness families with closed-form distances


REPLICATE_COUNTS = ((28, 26), (24, 23), (32, 29), (20, 19), (30, 27), (22, 20), (26, 24), (25, 23))
STAIRCASE_HEIGHTS = (16, 20, 24, 28, 32)
STAIRCASE_ZERO_HEIGHTS = (30, 40)
CAUCHY_STAGES = ((8, 12), (10, 11), (12, 18), (14, 16), (16, 23))
BINARY_LENGTHS = (24, 28, 32, 36, 40, 26, 30, 34)
BINARY_EQUAL = 3  # of the BINARY_LENGTHS pairs, this many are equal sequences
CUBE_DIMS = (16, 20, 24, 28, 32, 18, 22, 26)
RADICAL_MULTIPLICITIES = ((18, 12, 12, 6), (15, 15, 9, 9), (12, 18, 6, 12), (21, 9, 12, 6))
# Modules of 36000 summand copies whose radical is written back as JSON:
# parsing, construction and the radical touch every copy, so these ops are
# the workload's pmodule share.  They are its slowest ops and all do the
# same work, so the 90th-percentile latency falls among them.
RADICAL_JSON_MULTIPLICITIES = (9000, 9000, 9000, 9000)
RADICAL_JSON_OPS = 12
# How many pairs of each family also get an eps-decision op.
DECISIONS = {"replicate": 5, "staircase": 4, "cauchy": 3, "binary": 4, "cube": 4}


def _delta(d: Fraction) -> Fraction:
    return d / 2 if d > 0 else Fraction(1, 8)


def _cube_coords(rng: random.Random, dim: int) -> list[Fraction]:
    # coordinates must lie in [0, 1/(100 dim))
    return [Fraction(rng.randrange(100), 10000 * dim) for _ in range(dim)]


def radical_json(rng: random.Random, multiplicities) -> str:
    """A high-multiplicity module with one summand of each decoration kind
    the radical treats differently, with the given multiplicities in this
    order: a singleton, a closed finite lower endpoint, an open lower
    endpoint and a closed interval.  The seed places them at distinct lower
    endpoints, so the canonical order is by lower endpoint."""
    starts = rng.sample(range(-40, 40), 4)
    texts = [_bracketed(starts[0], starts[0], True, True)]
    for a, brackets in zip(starts[1:], ("[)", "(]", "[]")):
        texts.append(_bracketed(a, a + rng.randint(1, 9), brackets[0] == "[", brackets[1] == "]"))
    return module_json(zip(texts, multiplicities))


def expected_radical_json(text: str) -> str:
    """The radical by its definition: singletons dropped, closed finite
    lower endpoints opened; output in canonical (lower endpoint) order."""
    out = []
    for entry in json.loads(text)["summands"]:
        t = entry["interval"]
        lo, hi = t[1:-1].split(",")
        if lo == hi:
            continue
        out.append((Fraction(lo), "(" + t[1:], entry["multiplicity"]))
    out.sort()
    return module_json((t, k) for _, t, k in out)


def family_pairs(seed: int, pd):
    """Seeded witness-family pairs: (family, M, N, distance).  The sizes
    are fixed; the seed draws the intervals, bits and coordinates."""
    rng = random.Random(f"perfbench structured {seed}")
    pairs = []
    for k, k2 in REPLICATE_COUNTS:
        text, diam = proper_interval(rng)
        summand = pd.parse_interval(text)
        pairs.append(("replicate", pd.replicate(summand, k), pd.replicate(summand, k2), diam / 2))
    for h in STAIRCASE_HEIGHTS:
        pairs.append(("staircase", pd.staircase(h), pd.staircase(h - 1), Fraction(1)))
    for h in STAIRCASE_ZERO_HEIGHTS:
        pairs.append(("staircase-zero", pd.staircase(h), pd.PModule.zero(), Fraction(h, 2)))
    for s, later in CAUCHY_STAGES:
        pairs.append(
            ("cauchy", pd.cauchy_witness(s), pd.cauchy_witness(later), Fraction(1, 2 ** (s + 1)))
        )
    for i, length in enumerate(BINARY_LENGTHS):
        bits = [rng.randint(0, 1) for _ in range(length)]
        other = list(bits)
        if i >= BINARY_EQUAL:
            for pos in rng.sample(range(length), rng.randint(1, 4)):
                other[pos] ^= 1
        d = Fraction(0) if other == bits else Fraction(1)
        pairs.append(
            ("binary", pd.binary_sequence_module(bits), pd.binary_sequence_module(other), d)
        )
    for dim in CUBE_DIMS:
        x, y = _cube_coords(rng, dim), _cube_coords(rng, dim)
        d = max(abs(a - b) for a, b in zip(x, y))
        pairs.append(("cube", pd.cube_point_module(dim, x), pd.cube_point_module(dim, y), d))
    return rng, pairs


def structured_ops(seed: int, pd) -> list[Op]:
    rng, pairs = family_pairs(seed, pd)
    ops = []
    decided = dict.fromkeys(DECISIONS, 0)
    for family, m, n, d in pairs:
        ops.append(Op(f"{family}.distance", _distance_call(pd, m, n), str(d), (m, n)))
        if decided.get(family, 0) < DECISIONS.get(family, 0):
            above = d == 0 or decided[family] % 2 == 0
            eps = d + _delta(d) if above else d - _delta(d)
            ops.append(Op(f"{family}.decision", _decision_call(pd, m, n, eps), above, (m, n)))
            decided[family] += 1
    for mults in RADICAL_MULTIPLICITIES:
        text = radical_json(rng, mults)
        ops.append(Op("radical.distance", _radical_call(pd, text), "0"))
    for _ in range(RADICAL_JSON_OPS):
        text = radical_json(rng, RADICAL_JSON_MULTIPLICITIES)
        ops.append(Op("radical.json", _radical_json_call(pd, text), expected_radical_json(text)))
    random.Random(ORDER_SEED).shuffle(ops)
    return ops


def _radical_call(pd, text):
    def call():
        m = pd.parse_module(text)
        return pd.bottleneck.module_distance(m, m.radical())

    return call


def _radical_json_call(pd, text):
    return lambda: pd.parse_module(text).radical().to_json()


# ---------------------------------------------------------------------------
# cli: subprocess runs of the persistd command on files written in set-up


CLI_DIST = (
    ("staircase", 16), ("staircase", 20), ("replicate", 30), ("replicate", 36),
    ("cauchy", 10), ("cauchy", 14), ("binary", 16), ("binary", 20),
    ("cube", 10), ("cube", 14), ("staircase-zero", 30), ("binary-equal", 18),
)
CLI_CERT_DIMS = (8, 10, 12, 14, 16, 12)
CLI_INTERLEAVED = (
    ("staircase", 18), ("replicate", 32), ("cauchy", 12), ("binary", 18),
    ("cube", 12), ("replicate", 28), ("staircase", 14), ("cube", 16),
)
CLI_RADICAL_MULTIPLICITIES = (
    (1500, 1000, 800, 700), (900, 1200, 1100, 800), (2000, 500, 700, 800),
    (1000, 1000, 1000, 1000), (1200, 600, 1400, 800), (700, 1300, 900, 1100),
)


def _staircase_entries(h: int):
    return [(f"[0,{k})", 1) for k in range(1, h + 1)]


def _cauchy_entries(s: int):
    return [(f"[-1/{2 ** k},1/{2 ** k})" if k else "[-1,1)", 1) for k in range(s + 1)]


def _binary_entries(bits):
    return [
        (f"[{2 * p - 1},{2 * p + 1})" if bit == 0 else f"[{2 * (p - 1)},{2 * p + 2})", 1)
        for p, bit in enumerate(bits, start=1)
    ]


def _cube_entries(dim: int, coords):
    return [
        (f"[{Fraction(i, dim)},{Fraction(i, dim) + Fraction(1, 10 * dim) + coords[i - 1]})", 1)
        for i in range(1, dim + 1)
    ]


def cli_family_pair(rng: random.Random, family: str, size: int):
    """Module JSON texts for one family pair, written by hand from the
    family definitions, with the pair's distance."""
    if family == "staircase":
        return module_json(_staircase_entries(size)), module_json(_staircase_entries(size - 1)), Fraction(1)
    if family == "staircase-zero":
        return module_json(_staircase_entries(size)), module_json([]), Fraction(size, 2)
    if family == "replicate":
        text, diam = proper_interval(rng)
        return module_json([(text, size)]), module_json([(text, size - 1)]), diam / 2
    if family == "cauchy":
        later = size + 3
        return (
            module_json(_cauchy_entries(size)),
            module_json(_cauchy_entries(later)),
            Fraction(1, 2 ** (size + 1)),
        )
    if family in ("binary", "binary-equal"):
        bits = [rng.randint(0, 1) for _ in range(size)]
        other = list(bits)
        if family == "binary":
            for pos in rng.sample(range(size), rng.randint(1, 4)):
                other[pos] ^= 1
        d = Fraction(0) if other == bits else Fraction(1)
        return module_json(_binary_entries(bits)), module_json(_binary_entries(other)), d
    if family == "cube":
        x, y = _cube_coords(rng, size), _cube_coords(rng, size)
        d = max(abs(a - b) for a, b in zip(x, y))
        return module_json(_cube_entries(size, x)), module_json(_cube_entries(size, y)), d
    raise ValueError(f"unknown family {family!r}")


def load_verify_refs() -> dict:
    return json.loads((HERE / "refs" / "verify.json").read_text())


def verify_expected(template: str, seed: int) -> str:
    return template.replace(" seed=0 ", f" seed={seed} ", 1)


def cli_commands(seed: int, workdir: Path) -> list[tuple[str, list[str], bytes]]:
    """Write the input files; return (command, argv, expected stdout)."""
    rng = random.Random(f"perfbench cli {seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    rel = workdir.relative_to(ROOT)
    counter = iter(range(1000))

    def write(text: str) -> str:
        name = f"{next(counter):03d}.json"
        (workdir / name).write_text(text)
        return str(rel / name)

    cmds = []
    for family, size in CLI_DIST:
        a, b, d = cli_family_pair(rng, family, size)
        cmds.append(("dist", ["dist", write(a), write(b)], f"{d}\n"))
    for dim in CLI_CERT_DIMS:
        a, b, d = cli_family_pair(rng, "cube", dim)
        cert = {
            "pairs": [[i, i] for i in range(dim)],
            "threshold": str(d),
            "unmatched_m": [],
            "unmatched_n": [],
        }
        cmds.append(("cert", ["cert", write(a), write(b)], json.dumps(cert, sort_keys=True) + "\n"))
    for i, (family, size) in enumerate(CLI_INTERLEAVED):
        a, b, d = cli_family_pair(rng, family, size)
        above = d == 0 or i % 2 == 0
        eps = d + _delta(d) if above else d - _delta(d)
        cmds.append(
            ("interleaved", ["interleaved", f"--eps={eps}", write(a), write(b)],
             "true\n" if above else "false\n")
        )
    for mults in CLI_RADICAL_MULTIPLICITIES:
        text = radical_json(rng, mults)
        cmds.append(("radical", ["radical", write(text)], expected_radical_json(text) + "\n"))
    templates = load_verify_refs()["suites"]
    for suite in sorted(templates):
        argv = ["verify", suite, f"--seed={seed}", f"--trials={VERIFY_TRIALS}"]
        cmds.append(("verify", argv, verify_expected(templates[suite], seed)))
    random.Random(ORDER_SEED).shuffle(cmds)
    return [(name, argv, out.encode()) for name, argv, out in cmds]


def cli_ops(seed: int, pd, workdir: Path, in_process: bool) -> list[Op]:
    ops = []
    for name, argv, expect in cli_commands(seed, workdir):
        call = _cli_in_process(pd, argv) if in_process else _cli_subprocess(argv)
        ops.append(Op(f"cli.{name}", call, expect))
    return ops


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli_subprocess(argv):
    cmd = [sys.executable, "-m", "persistd.cli", *argv]
    env = cli_env()

    def call():
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(
                f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}"
            )
        return proc.stdout

    return call


def _cli_in_process(pd, argv):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pd.cli.cli_main(list(argv))
        if code != 0:
            raise RuntimeError(f"cli_main returned {code}")
        return buf.getvalue().encode()

    return call


def make_ops(workload: str, seed: int, pd, workdir: Path, in_process: bool = False) -> list[Op]:
    if workload == "dense":
        return dense_ops(seed, pd)
    if workload == "structured":
        return structured_ops(seed, pd)
    if workload == "cli":
        return cli_ops(seed, pd, workdir, in_process)
    raise ValueError(f"unknown workload {workload!r}")
