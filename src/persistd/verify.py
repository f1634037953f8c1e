"""Runnable property suites with deterministic seeded trials.

Each suite packages a structural fact about interval-decomposable modules
as executable checks.  A report is deterministic in (suite, seed, trials,
params): trials for each property draw from their own seeded generator, so
property order and parallel evaluation cannot change the outcome.  Every
counterexample payload contains the full case inputs and can be replayed
standalone through :func:`replay`.

Random modules are drawn from a documented grid: summand count uniform on
[0, max_summands], endpoint values uniform rationals with denominator at
most ``max_den`` (powers of two) on [lo, hi], decorations uniform.  Two
independent oracles live here as well: a candidate-scan procedure for the
interval distance and an exhaustive-matching procedure for the module
distance, used to validate the closed form and the matcher.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, NamedTuple

from . import bottleneck
from .families import (
    INCLUSIONS,
    binary_sequence_module,
    cauchy_witness,
    cube_point_module,
    open_subset_witness,
    replicate,
)
from .interleaving import are_eps_interleaved, distance_to_zero, interval_distance
from .intervals import (
    EMPTY,
    Endpoint,
    ExtRational,
    Interval,
    NEG_INF,
    POS_INF,
    ZERO,
    _as_fraction,
    _as_int,
    interval,
    make_interval,
    parse_interval,
    singleton,
)
from .pmodule import PModule


# ---------------------------------------------------------------------------
# independent oracles


def candidate_scan_interval_distance(i: Interval, j: Interval) -> ExtRational:
    """Decision-procedure oracle for the interval distance.

    Collects the finite candidate thresholds (endpoint gaps, half
    diameters, zero), sorts them, and returns the first candidate at which
    the erosion decision holds just above it; the probe offset is half the
    smallest gap between distinct candidates (1 when there is only one).
    Monotonicity of the decision in eps makes this the infimum.
    """
    cands = {Fraction(0)}
    if not i.is_empty and not j.is_empty:
        for g in (i.lo.value.gap(j.lo.value), i.hi.value.gap(j.hi.value)):
            if g.is_finite:
                cands.add(g.as_fraction)
    for v in (distance_to_zero(i), distance_to_zero(j)):
        if v.is_finite:
            cands.add(v.as_fraction)
    ordered = sorted(cands)
    gaps = [b - a for a, b in zip(ordered, ordered[1:])]
    eta = min(gaps) / 2 if gaps else Fraction(1)
    for c in ordered:
        if are_eps_interleaved(i, j, c + eta):
            return ExtRational(c)
    return POS_INF


def bruteforce_module_distance(m: PModule, n: PModule) -> ExtRational:
    """Exhaustive minimum over all partial bijections between summands."""
    ms, ns = m.summands, n.summands
    costs = [[interval_distance(a, b) for b in ns] for a in ms]
    dtz_m = [distance_to_zero(a) for a in ms]
    dtz_n = [distance_to_zero(b) for b in ns]
    best = POS_INF
    rows, cols = range(len(m)), range(len(n))
    for k in range(min(len(m), len(n)) + 1):
        for row_pick in combinations(rows, k):
            for col_pick in permutations(cols, k):
                worst = ZERO
                for i, j in zip(row_pick, col_pick):
                    worst = max(worst, costs[i][j])
                for i in rows:
                    if i not in row_pick:
                        worst = max(worst, dtz_m[i])
                for j in cols:
                    if j not in col_pick:
                        worst = max(worst, dtz_n[j])
                best = min(best, worst)
    return best


# ---------------------------------------------------------------------------
# seeded random generation (documented grid)


def random_fraction(rng: random.Random, lo: Fraction, hi: Fraction, max_den: int) -> Fraction:
    dens = [d for d in (1, 2, 4, 8, 16) if d <= max_den] or [1]
    den = rng.choice(dens)
    lo_num = -((-lo.numerator * den) // lo.denominator)  # ceil(lo * den)
    hi_num = (hi.numerator * den) // hi.denominator  # floor(hi * den)
    return Fraction(rng.randint(lo_num, hi_num), den)


def random_interval(
    rng: random.Random,
    lo: Fraction,
    hi: Fraction,
    max_den: int,
    allow_empty: bool = False,
    allow_infinite: bool = False,
) -> Interval:
    if allow_empty and rng.random() < 0.1:
        return EMPTY
    a = random_fraction(rng, lo, hi, max_den)
    b = random_fraction(rng, lo, hi, max_den)
    if a > b:
        a, b = b, a
    lo_inf = allow_infinite and rng.random() < 0.15
    hi_inf = allow_infinite and rng.random() < 0.15
    if a == b and not (lo_inf or hi_inf):
        return singleton(a)
    lo_ep = Endpoint(NEG_INF, False) if lo_inf else Endpoint(ExtRational(a), rng.random() < 0.5)
    hi_ep = Endpoint(POS_INF, False) if hi_inf else Endpoint(ExtRational(b), rng.random() < 0.5)
    return make_interval(lo_ep, hi_ep)


def random_module(
    rng: random.Random,
    lo: Fraction,
    hi: Fraction,
    max_den: int,
    max_summands: int,
) -> PModule:
    count = rng.randint(0, max_summands)
    return PModule(
        random_interval(rng, lo, hi, max_den) for _ in range(count)
    )


# ---------------------------------------------------------------------------
# suite definitions

# The most trials per property, and the largest replicate count ``k`` and
# Cauchy ``depth`` of a case.  Each of ``k`` and ``depth`` builds that many
# modules plus one and compares every pair, so its time grows as its fourth
# power: 64 takes seconds.
_MAX_TRIALS = 10_000
_MAX_FAMILY_SIZE = 64
# The most summands of one module that ``N`` (cube-isometry), ``length``
# (binary-discrete) and ``max_summands`` (the random-module suites) can ask
# for; one distance between two modules of this size takes about a second.
_MAX_MODULE_SIZE = 1000


def _case_size(case: dict, key: str) -> int:
    """The int field ``key`` of a case, at most ``_MAX_FAMILY_SIZE``."""
    size = _as_int(case[key])
    if size > _MAX_FAMILY_SIZE:
        raise ValueError(f"{key} must be at most {_MAX_FAMILY_SIZE}, got {size}")
    return size


class PropertyCheck(NamedTuple):
    prop: str
    generate: Callable[[random.Random, dict, int], dict]
    check: Callable[[dict], bool]
    deterministic: bool = False


class PropertyResult(NamedTuple):
    property: str
    status: str
    trials: int
    counterexample: dict | None

    def to_json_obj(self) -> dict:
        return self._asdict()


class SuiteReport(NamedTuple):
    suite: str
    seed: int
    trials: int
    params: tuple[tuple[str, str], ...]
    results: tuple[PropertyResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "params": dict(self.params),
            "results": [r.to_json_obj() for r in self.results],
            "all_pass": self.all_pass,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2)

    def render_table(self) -> str:
        lines = [
            f"suite {self.suite}  seed={self.seed} trials={self.trials}  "
            + " ".join(f"{k}={v}" for k, v in self.params)
        ]
        for r in self.results:
            lines.append(f"{r.status.upper():4}  {r.property:40} trials={r.trials}")
            if r.counterexample is not None:
                lines.append(
                    "      counterexample: "
                    + json.dumps(r.counterexample, sort_keys=True)
                )
        lines.append("all properties pass" if self.all_pass else "FAILURES present")
        return "\n".join(lines)


def _gen_modules(count: int):
    def gen(rng, params, trial):
        keys = ("m", "n", "p")[:count]
        return {
            key: random_module(
                rng, params["lo"], params["hi"], params["max_den"], params["max_summands"]
            ).to_json_obj()
            for key in keys
        }

    return gen


def _check_self_distance(case) -> bool:
    m = PModule.from_json_obj(case["m"])
    return bottleneck.module_distance(m, m) == ZERO


def _check_symmetry(case) -> bool:
    m, n = PModule.from_json_obj(case["m"]), PModule.from_json_obj(case["n"])
    return bottleneck.module_distance(m, n) == bottleneck.module_distance(n, m)


def _check_triangle(case) -> bool:
    m, n, p = (PModule.from_json_obj(case[key]) for key in ("m", "n", "p"))
    dmp = bottleneck.module_distance(m, p)
    dmn = bottleneck.module_distance(m, n)
    dnp = bottleneck.module_distance(n, p)
    return dmp <= dmn + dnp


def _gen_interval_pair(rng, params, trial):
    kwargs = dict(
        lo=params["lo"], hi=params["hi"], max_den=params["max_den"],
        allow_empty=True, allow_infinite=True,
    )
    return {
        "i": str(random_interval(rng, **kwargs)),
        "j": str(random_interval(rng, **kwargs)),
    }


def _check_closed_form(case) -> bool:
    i, j = parse_interval(case["i"]), parse_interval(case["j"])
    return interval_distance(i, j) == candidate_scan_interval_distance(i, j)


def _gen_small_modules(rng, params, trial):
    grid = Fraction(params["grid"])
    return {
        key: random_module(rng, -grid, grid, params["max_den"], 4).to_json_obj()
        for key in ("m", "n")
    }


def _check_matching_oracle(case) -> bool:
    m, n = PModule.from_json_obj(case["m"]), PModule.from_json_obj(case["n"])
    return bottleneck.module_distance(m, n) == bruteforce_module_distance(m, n)


def _gen_cube_pair(rng, params, trial):
    n = params["N"]
    bound = Fraction(1, 100 * n)

    def coords():
        return [Fraction(rng.randrange(400), 400) * bound for _ in range(n)]

    return {"n": n, "x": [str(v) for v in coords()], "y": [str(v) for v in coords()]}


def _check_cube_isometry(case) -> bool:
    n = _as_int(case["n"])
    x = [_as_fraction(v) for v in case["x"]]
    y = [_as_fraction(v) for v in case["y"]]
    expected = ExtRational(max(abs(a - b) for a, b in zip(x, y)))
    got = bottleneck.module_distance(cube_point_module(n, x), cube_point_module(n, y))
    return got == expected


def _gen_bit_pair(rng, params, trial):
    length = params["length"]
    alpha = [rng.randint(0, 1) for _ in range(length)]
    beta = list(alpha)
    flips = rng.sample(range(length), rng.randint(1, length))
    for pos in flips:
        beta[pos] ^= 1
    return {"alpha": alpha, "beta": beta}


def _check_bits_distance_one(case) -> bool:
    a = binary_sequence_module(case["alpha"])
    b = binary_sequence_module(case["beta"])
    return bottleneck.module_distance(a, b) == ExtRational(1)


def _check_bits_distance_zero(case) -> bool:
    a = binary_sequence_module(case["alpha"])
    return bottleneck.module_distance(a, binary_sequence_module(case["alpha"])) == ZERO


def _gen_ntb(rng, params, trial):
    return {"c": str(params["c"]), "d": str(params["d"]), "k": params["k"]}


def _check_ntb(case) -> bool:
    c, d, k = _as_fraction(case["c"]), _as_fraction(case["d"]), _case_size(case, "k")
    half = ExtRational(Fraction(d - c, 2))
    piece = interval(c, d, "[)")
    mods = [replicate(piece, n) for n in range(k + 1)]
    return all(
        bottleneck.module_distance(mods[a], mods[b]) == half
        for a in range(k + 1)
        for b in range(a + 1, k + 1)
    )


def _check_radical_zero(case) -> bool:
    m = PModule.from_json_obj(case["m"])
    return bottleneck.module_distance(m, m.radical()) == ZERO


def _check_radical_idempotent(case) -> bool:
    m = PModule.from_json_obj(case["m"])
    return m.radical().radical() == m.radical()


def _gen_module_with_p(rng, params, trial):
    case = _gen_modules(1)(rng, params, trial)
    case["p"] = [str(p) for p in params["p"]]
    return case


def _check_p_persistent(case) -> bool:
    m = PModule.from_json_obj(case["m"])
    for p_text in case["p"]:
        p = _as_fraction(p_text)
        if bottleneck.module_distance(m, m.persistent_submodule(p)) > ExtRational(p):
            return False
    return True


def _gen_contraction(rng, params, trial):
    m = random_module(
        rng, params["lo"], params["hi"], params["max_den"], params["max_summands"]
    )
    s = Fraction(rng.randint(0, 16), 16)
    t = Fraction(rng.randint(0, 16), 16)
    if s > t:
        s, t = t, s
    return {"m": m.to_json_obj(), "s": str(s), "t": str(t)}


def _check_contraction_lipschitz(case) -> bool:
    m = PModule.from_json_obj(case["m"])
    s, t = _as_fraction(case["s"]), _as_fraction(case["t"])
    h_max = max((x.diameter().half() for x in m.summands), default=ZERO)
    bound = ExtRational((t - s) * h_max.as_fraction)
    got = bottleneck.module_distance(m.contraction_path(s), m.contraction_path(t))
    return got <= bound


def _gen_open_witness(rng, params, trial):
    inclusion = INCLUSIONS[trial % len(INCLUSIONS)]
    c, d = params["c"], params["d"]
    m = random_module(rng, c, d, params["max_den"], params["max_summands"])
    return {
        "m": m.to_json_obj(),
        "inclusion": inclusion,
        "eps": str(params["eps"]),
        "trunc": params["trunc"],
        "c": str(c),
        "d": str(d),
    }


def _check_open_witness(case) -> bool:
    m = PModule.from_json_obj(case["m"])
    eps = _as_fraction(case["eps"])
    bounds = (_as_fraction(case["c"]), _as_fraction(case["d"]))
    witness = open_subset_witness(
        m, case["inclusion"], eps, _as_int(case["trunc"]), bounds=bounds
    )
    return bottleneck.module_distance(m, witness) == ExtRational(eps)


def _gen_enveloping(rng, params, trial):
    c, d = params["c"], params["d"]
    m = random_module(rng, c, d, params["max_den"], params["max_summands"])
    return {"m": m.to_json_obj(), "c": str(c), "d": str(d), "z": str(params["z"])}


def _check_env_bounded(case) -> bool:
    m = PModule.from_json_obj(case["m"])
    c, d = _as_fraction(case["c"]), _as_fraction(case["d"])
    half = ExtRational(Fraction(d - c, 2))
    return bottleneck.module_distance(m, PModule.zero()) <= half


def _check_env_attained(case) -> bool:
    c, d = _as_fraction(case["c"]), _as_fraction(case["d"])
    full = PModule([interval(c, d, "[]")])
    return bottleneck.module_distance(full, PModule.zero()) == ExtRational(
        Fraction(d - c, 2)
    )


def _check_env_shifted(case) -> bool:
    m = PModule.from_json_obj(case["m"])
    d, z = _as_fraction(case["d"]), _as_fraction(case["z"])
    outside = PModule([interval(d, d + 2 * z, "(]")])
    return bottleneck.module_distance(m, outside) >= ExtRational(z)


def _gen_depth(rng, params, trial):
    return {"depth": params["depth"]}


def _check_cauchy_distances(case) -> bool:
    depth = _case_size(case, "depth")
    stages = [cauchy_witness(n) for n in range(depth + 1)]
    for n in range(depth + 1):
        for m in range(n + 1, depth + 1):
            expected = ExtRational(Fraction(1, 2 ** (n + 1)))
            if bottleneck.module_distance(stages[n], stages[m]) != expected:
                return False
    return True


def _check_cauchy_rank_growth(case) -> bool:
    depth = _case_size(case, "depth")
    if depth < 4:
        return False
    counts = []
    for n in range(3, depth + 1):
        half_width = Fraction(1, 2 ** (n - 2))
        counts.append(cauchy_witness(n).rank(-half_width, half_width))
    expected = [n - 2 for n in range(3, depth + 1)]
    increasing = all(b > a for a, b in zip(counts, counts[1:]))
    return counts == expected and increasing


def _gen_non_t0(rng, params, trial):
    case = _gen_modules(1)(rng, params, trial)
    case["r"] = str(random_fraction(rng, params["lo"], params["hi"], params["max_den"]))
    return case


def _check_non_t0(case) -> bool:
    m = PModule.from_json_obj(case["m"])
    bigger = m.direct_sum(PModule([singleton(_as_fraction(case["r"]))]))
    return bottleneck.module_distance(m, bigger) == ZERO


_GRID_DEFAULTS = {
    "lo": Fraction(-8),
    "hi": Fraction(8),
    "max_den": 16,
    "max_summands": 6,
}

_SUITES: dict[str, tuple[dict, tuple[PropertyCheck, ...]]] = {
    "pseudometric": (
        dict(_GRID_DEFAULTS),
        (
            PropertyCheck("self-distance-zero", _gen_modules(1), _check_self_distance),
            PropertyCheck("symmetry", _gen_modules(2), _check_symmetry),
            PropertyCheck("triangle-inequality", _gen_modules(3), _check_triangle),
        ),
    ),
    "interval-closed-form": (
        {"lo": Fraction(-8), "hi": Fraction(8), "max_den": 16},
        (
            PropertyCheck(
                "closed-form-equals-oracle", _gen_interval_pair, _check_closed_form
            ),
        ),
    ),
    "matching-oracle": (
        {"grid": 8, "max_den": 16},
        (
            PropertyCheck(
                "distance-equals-bruteforce", _gen_small_modules, _check_matching_oracle
            ),
        ),
    ),
    "cube-isometry": (
        {"N": 3},
        (PropertyCheck("cube-embedding-isometric", _gen_cube_pair, _check_cube_isometry),),
    ),
    "binary-discrete": (
        {"length": 8},
        (
            PropertyCheck(
                "distinct-sequences-distance-one", _gen_bit_pair, _check_bits_distance_one
            ),
            PropertyCheck(
                "equal-sequences-distance-zero", _gen_bit_pair, _check_bits_distance_zero
            ),
        ),
    ),
    "not-totally-bounded": (
        {"c": Fraction(0), "d": Fraction(1), "k": 10},
        (
            PropertyCheck(
                "replicates-pairwise-half-diameter", _gen_ntb, _check_ntb,
                deterministic=True,
            ),
        ),
    ),
    "radical-zero": (
        dict(_GRID_DEFAULTS),
        (
            PropertyCheck("radical-distance-zero", _gen_modules(1), _check_radical_zero),
            PropertyCheck(
                "radical-idempotent", _gen_modules(1), _check_radical_idempotent
            ),
        ),
    ),
    "p-persistent": (
        dict(_GRID_DEFAULTS, p=(Fraction(1, 4), Fraction(1), Fraction(3))),
        (
            PropertyCheck(
                "persistent-submodule-within-p", _gen_module_with_p, _check_p_persistent
            ),
        ),
    ),
    "contraction-lipschitz": (
        dict(_GRID_DEFAULTS),
        (
            PropertyCheck(
                "path-lipschitz-bound", _gen_contraction, _check_contraction_lipschitz
            ),
        ),
    ),
    "open-witness": (
        {
            "eps": Fraction(1, 8),
            "trunc": 3,
            "c": Fraction(10),
            "d": Fraction(100),
            "max_den": 16,
            "max_summands": 6,
        },
        (
            PropertyCheck(
                "witness-distance-equals-eps", _gen_open_witness, _check_open_witness
            ),
        ),
    ),
    "enveloping": (
        {
            "c": Fraction(0),
            "d": Fraction(4),
            "z": Fraction(1, 2),
            "max_den": 16,
            "max_summands": 6,
        },
        (
            PropertyCheck(
                "class-distance-to-zero-bounded", _gen_enveloping, _check_env_bounded
            ),
            PropertyCheck(
                "full-interval-attains-bound", _gen_enveloping, _check_env_attained,
                deterministic=True,
            ),
            PropertyCheck(
                "outside-shift-at-least-z", _gen_enveloping, _check_env_shifted
            ),
        ),
    ),
    "cauchy-incomplete": (
        {"depth": 8},
        (
            PropertyCheck(
                "cauchy-distance-law", _gen_depth, _check_cauchy_distances,
                deterministic=True,
            ),
            PropertyCheck(
                "rank-witness-diverges", _gen_depth, _check_cauchy_rank_growth,
                deterministic=True,
            ),
        ),
    ),
    "non-t0": (
        dict(_GRID_DEFAULTS),
        (
            PropertyCheck(
                "singleton-sum-distance-zero", _gen_non_t0, _check_non_t0
            ),
        ),
    ),
}

SUITE_NAMES = tuple(sorted(_SUITES))

# Also the CLI's ``verify`` flags, in ``--help`` order.
_PARAM_CONVERTERS: dict[str, Callable] = {
    "N": _as_int,
    "length": _as_int,
    "grid": _as_int,
    "k": _as_int,
    "depth": _as_int,
    "trunc": _as_int,
    "eps": _as_fraction,
    "z": _as_fraction,
    "c": _as_fraction,
    "d": _as_fraction,
    "lo": _as_fraction,
    "hi": _as_fraction,
    "p": lambda v: tuple(_as_fraction(x) for x in (v.split(",") if isinstance(v, str) else v)),
    "max_den": _as_int,
    "max_summands": _as_int,
}


def _merge_params(name: str, params: dict | None) -> dict:
    defaults, _ = _SUITES[name]
    merged = dict(defaults)
    for key, value in (params or {}).items():
        if key not in defaults:
            raise ValueError(
                f"suite {name!r} does not take parameter {key!r}; "
                f"known: {sorted(defaults)}"
            )
        try:
            merged[key] = _PARAM_CONVERTERS[key](value)
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ValueError(f"bad value for parameter {key!r}: {value!r}") from exc
    _validate_params(name, merged)
    return merged


def _validate_params(name: str, p: dict) -> None:
    def need(cond: bool, message: str) -> None:
        if not cond:
            raise ValueError(f"invalid params for suite {name!r}: {message}")

    if "lo" in p:
        need(p["lo"] < p["hi"], "need lo < hi")
    if "c" in p:
        need(p["c"] < p["d"], "need c < d")
    for key, floor in (("max_den", 1), ("grid", 1), ("N", 1), ("length", 1),
                       ("k", 1), ("trunc", 1), ("max_summands", 0)):
        if key in p:
            need(p[key] >= floor, f"need {key} >= {floor}")
    for key in ("N", "length", "max_summands"):
        if key in p:
            need(p[key] <= _MAX_MODULE_SIZE,
                 f"{key} must be at most {_MAX_MODULE_SIZE}, got {p[key]}")
    for key in ("eps", "z"):
        if key in p:
            need(p[key] > 0, f"need {key} > 0")
    if "p" in p:
        need(all(x >= 0 for x in p["p"]), "need every p >= 0")
    if "depth" in p:
        # the rank-growth witness needs at least stages 3 and 4 to compare
        need(p["depth"] >= 4, "need depth >= 4")


def _params_for_report(merged: dict) -> tuple[tuple[str, str], ...]:
    def fmt(v):
        if isinstance(v, tuple):
            return ",".join(str(x) for x in v)
        return str(v)

    return tuple(sorted((k, fmt(v)) for k, v in merged.items()))


def run_suite(name: str, seed: int, trials: int, params: dict | None = None) -> SuiteReport:
    """Run one property suite; deterministic in all four arguments."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if trials > _MAX_TRIALS:
        raise ValueError(f"trials must be at most {_MAX_TRIALS}, got {trials}")
    merged = _merge_params(name, params)
    _, props = _SUITES[name]
    results = []
    for prop in sorted(props, key=lambda p: p.prop):
        rng = random.Random(f"{seed}|{name}|{prop.prop}")
        n_trials = 1 if prop.deterministic else trials
        counterexample = None
        executed = 0
        for trial in range(n_trials):
            case = prop.generate(rng, merged, trial)
            executed = trial + 1
            if not prop.check(case):
                counterexample = {"trial": trial, "case": case}
                break
        results.append(
            PropertyResult(
                property=prop.prop,
                status="fail" if counterexample else "pass",
                trials=executed,
                counterexample=counterexample,
            )
        )
    return SuiteReport(
        suite=name,
        seed=seed,
        trials=trials,
        params=_params_for_report(merged),
        results=tuple(results),
    )


def replay(name: str, property_id: str, case: dict) -> bool:
    """Re-run one property on a stored counterexample case; True means the
    property holds on it (a genuine counterexample returns False again).
    A case with a field missing or of the wrong JSON type raises
    ``ValueError``."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    _, props = _SUITES[name]
    for prop in props:
        if prop.prop == property_id:
            try:
                return prop.check(case)
            except (KeyError, TypeError) as exc:
                raise ValueError(
                    f"malformed case for {name!r} {property_id!r}: {exc!r}"
                ) from exc
    known = sorted(p.prop for p in props)
    raise ValueError(f"suite {name!r} has no property {property_id!r}; known: {known}")
