"""Command-line surface.

All output is exact text; rationals print as ``p/q`` (reduced) or integers
and ``inf`` is the only non-rational token.  The optional ``--approx`` flag
adds a clearly marked decimal rendering for human convenience.

Exit codes: 0 on success, 1 on a property/verification failure or when
stdout is closed before all output is written (a broken pipe, as in
``persistd gen staircase --n 5000 | head -c 10``), 2 on a usage or parse
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Context
from fractions import Fraction

from . import families, verify
from .bottleneck import (
    InfiniteDistanceError,
    distance_certificate,
    module_distance,
    modules_eps_interleaved,
    verify_certificate,
)
from .intervals import ExtRational, _as_fraction, _as_int, parse_interval
from .pmodule import PModule, parse_module

# Rounds a quotient once, half to even, to the six digits ``--approx`` shows.
_SIX_DIGITS = Context(prec=6)


def _load_module(path: str) -> PModule:
    try:
        with open(path, "rb") as file:
            data = file.read()
    except OSError as exc:
        raise ValueError(f"cannot read module file {path}: {exc}") from exc
    return parse_module(data)


def _fraction(text: str) -> Fraction:
    try:
        return _as_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected a rational p/q or integer, got {text!r}") from None


def _int(text: str) -> int:
    try:
        return _as_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fraction_pair(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'c,d', got {text!r}")
    return _fraction(parts[0]), _fraction(parts[1])


def _approx(q: Fraction) -> str:
    """``q`` to six significant digits, as a float prints them.  Past the
    float range the digits come from the exact quotient instead."""
    try:
        return f"{float(q):.6g}"
    except OverflowError:
        return f"{_SIX_DIGITS.divide(q.numerator, q.denominator).normalize():.6g}"


def _print_exact(render) -> None:
    """Print ``render()`` with the interpreter's limit on int-to-text digits
    (4300 by default) lifted for the call and restored after.  An answer
    computed exactly from inputs within the limit can be longer; the
    inputs bound its length."""
    if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter with no limit
        print(render())
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = render()
    finally:
        sys.set_int_max_str_digits(limit)
    print(text)


def _print_value(value: ExtRational, approx: bool) -> None:
    if approx and value.is_finite:
        _print_exact(lambda: f"{value} ~= {_approx(value.as_fraction)}")
    else:
        _print_exact(lambda: str(value))


def _cmd_dist(args) -> int:
    value = module_distance(_load_module(args.a), _load_module(args.b))
    _print_value(value, args.approx)
    return 0


def _cmd_interleaved(args) -> int:
    eps = _fraction(args.eps)
    result = modules_eps_interleaved(_load_module(args.a), _load_module(args.b), eps)
    print("true" if result else "false")
    return 0


def _cmd_classify(args) -> int:
    module = _load_module(args.module)
    bounds = _fraction_pair(args.bounds) if args.bounds else None
    membership = module.classify(bounds=bounds)
    print(json.dumps(membership._asdict(), sort_keys=True))
    return 0


def _cmd_radical(args) -> int:
    print(_load_module(args.module).radical().to_json())
    return 0


def _cmd_persist(args) -> int:
    _print_exact(_load_module(args.module).persistent_submodule(_fraction(args.p)).to_json)
    return 0


def _cmd_contract(args) -> int:
    _print_exact(_load_module(args.module).contraction_path(_fraction(args.t)).to_json)
    return 0


def _cmd_cert(args) -> int:
    m, n = _load_module(args.a), _load_module(args.b)
    cert = distance_certificate(m, n)
    if not verify_certificate(m, n, cert):
        print("error: the computed certificate failed verification", file=sys.stderr)
        return 1
    _print_exact(lambda: json.dumps(cert.to_json_obj(), sort_keys=True))
    return 0


def _cmd_gen(args) -> int:
    if args.family == "cube":
        coords = [_fraction(t) for t in args.x.split(",")] if args.x else []
        n = args.n if args.n is not None else len(coords)
        module = families.cube_point_module(n, coords)
    elif args.family == "binary":
        # Only ASCII 0 and 1; the family refuses any other character.
        module = families.binary_sequence_module([{"0": 0, "1": 1}.get(c, c) for c in args.bits])
    elif args.family == "cauchy":
        module = families.cauchy_witness(args.n)
    elif args.family == "staircase":
        module = families.staircase(args.n)
    elif args.family == "replicate":
        module = families.replicate(parse_interval(args.interval), args.count)
    else:  # witness
        bounds = _fraction_pair(args.bounds) if args.bounds else None
        module = families.open_subset_witness(
            _load_module(args.module),
            args.inclusion,
            _fraction(args.eps),
            args.trunc,
            bounds=bounds,
        )
    print(module.to_json())
    return 0


def _cmd_verify(args) -> int:
    params = {}
    for name in verify._PARAM_CONVERTERS:
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    report = verify.run_suite(args.suite, seed=args.seed, trials=args.trials, params=params)
    if args.json:
        print(report.to_json())
    else:
        print(report.render_table())
    return 0 if report.all_pass else 1


def _two_modules(p) -> None:
    p.add_argument("a")
    p.add_argument("b")


def _dist_arguments(p) -> None:
    _two_modules(p)
    p.add_argument("--approx", action="store_true", help="add a decimal rendering")


def _interleaved_arguments(p) -> None:
    p.add_argument("--eps", required=True)
    _two_modules(p)


def _classify_arguments(p) -> None:
    p.add_argument("--bounds", help="class bounds as 'c,d'")
    p.add_argument("module")


def _radical_arguments(p) -> None:
    p.add_argument("module")


def _persist_arguments(p) -> None:
    p.add_argument("--p", required=True)
    p.add_argument("module")


def _contract_arguments(p) -> None:
    p.add_argument("--t", required=True)
    p.add_argument("module")


def _gen_arguments(p) -> None:
    gen_sub = p.add_subparsers(dest="family", required=True)

    g = gen_sub.add_parser("cube", help="cube-point module")
    g.add_argument("--n", type=_int, help="dimension (default: number of coordinates)")
    g.add_argument("--x", required=True, help="coordinates 'x1,x2,...' as rationals")

    g = gen_sub.add_parser("binary", help="binary-sequence module")
    g.add_argument("--bits", required=True, help="bit string such as 0101")

    g = gen_sub.add_parser("cauchy", help="Cauchy-sequence stage")
    g.add_argument("--n", type=_int, required=True)

    g = gen_sub.add_parser("staircase", help="staircase stage")
    g.add_argument("--n", type=_int, required=True)

    g = gen_sub.add_parser("replicate", help="copies of one interval")
    g.add_argument("--interval", required=True, help="interval text such as '[0,1)'")
    g.add_argument("--count", type=_int, required=True)

    g = gen_sub.add_parser("witness", help="open-subset witness module")
    g.add_argument("--module", required=True, help="module JSON file")
    g.add_argument("--inclusion", required=True, choices=families.INCLUSIONS)
    g.add_argument("--eps", required=True)
    g.add_argument("--trunc", type=_int, default=3)
    g.add_argument("--bounds", help="class bounds 'c,d' (ffid_cd_in_ffid)")


def _verify_arguments(p) -> None:
    p.add_argument("suite", choices=verify.SUITE_NAMES)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--trials", type=_int, default=100)
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    for name in verify._PARAM_CONVERTERS:
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None)


# name: (help, adds the arguments, handler), in the order ``--help`` lists them.
_SUBCOMMANDS = {
    "dist": ("exact distance between two module files", _dist_arguments, _cmd_dist),
    "interleaved": ("decide eps-interleaving of two modules", _interleaved_arguments,
                    _cmd_interleaved),
    "classify": ("class membership of a module", _classify_arguments, _cmd_classify),
    "radical": ("radical of a module", _radical_arguments, _cmd_radical),
    "persist": ("p-persistent submodule", _persist_arguments, _cmd_persist),
    "contract": ("contraction path stage at time t", _contract_arguments, _cmd_contract),
    "cert": ("matching certificate for the distance", _two_modules, _cmd_cert),
    "gen": ("generate a witness-family module", _gen_arguments, _cmd_gen),
    "verify": ("run a property suite", _verify_arguments, _cmd_verify),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``persistd`` parser.  Every subcommand is listed, but only the
    arguments of ``command`` are added, or those of all subcommands when it
    is None.  So ``families`` and ``verify``, which supply the choices of
    ``gen witness --inclusion`` and the suites and flags of ``verify``, load
    only for those subcommands."""
    parser = argparse.ArgumentParser(
        prog="persistd",
        description="Exact interleaving distances for interval-decomposable "
        "persistence modules with decorated endpoints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command is None or command == name:
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def cli_main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # No top-level option takes a value, so argparse hands argv to the
    # subcommand that the first non-option token names.  When that token
    # names none, argparse stops at the top level, whose output does not
    # depend on any subcommand's arguments.
    command = next((token for token in argv if token in _SUBCOMMANDS), None)
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows up here, not at shutdown
        return code
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull, so the flush at
        # shutdown does not fail again (the recipe in the Python ``signal``
        # docs), and exit 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InfiniteDistanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
