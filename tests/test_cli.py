import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from persistd import (
    MatchingCertificate,
    ModuleFormatError,
    PModule,
    cli,
    families,
    parse_interval,
    parse_module,
    pmodule,
    verify_certificate,
)
from persistd.cli import build_parser, cli_main
from persistd.verify import _PARAM_CONVERTERS


@pytest.fixture
def module_file(tmp_path):
    def write(name, *texts):
        path = tmp_path / name
        path.write_text(PModule.of(*texts).to_json())
        return str(path)

    return write


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDist:
    def test_sharp_pair_prints_zero(self, capsys, module_file):
        a = module_file("a.json", "[0,2]")
        b = module_file("b.json", "(0,2)")
        code, out, _ = run(capsys, "dist", a, b)
        assert code == 0 and out.strip() == "0"

    def test_infinite(self, capsys, module_file):
        a = module_file("a.json", "[0,1)")
        b = module_file("b.json", "[0,inf)")
        code, out, _ = run(capsys, "dist", a, b)
        assert code == 0 and out.strip() == "inf"

    def test_exact_fraction_output(self, capsys, module_file):
        a = module_file("a.json", "[0,1)")
        b = module_file("b.json")
        code, out, _ = run(capsys, "dist", a, b)
        assert code == 0 and out.strip() == "1/2"

    def test_approx_marked(self, capsys, module_file):
        a = module_file("a.json", "[0,1)")
        b = module_file("b.json")
        code, out, _ = run(capsys, "dist", "--approx", a, b)
        assert code == 0 and out.strip() == "1/2 ~= 0.5"

    @pytest.mark.parametrize(
        "upper, exact, shown",
        [
            ("1" + "0" * 400, "5" + "0" * 399, "5e+399"),
            ("123456789" + "0" * 400, "617283945" + "0" * 399, "6.17284e+407"),
            ("1/1" + "0" * 400, "1/2" + "0" * 400, "0"),
        ],
        ids=["above", "above-rounded", "below"],
    )
    def test_approx_outside_the_float_range(self, capsys, module_file, upper, exact, shown):
        """Past the float range the decimal is rounded from the exact value;
        below the smallest float it reads 0, as the float prints it."""
        a = module_file("a.json", f"[0,{upper})")
        b = module_file("b.json")
        assert run(capsys, "dist", "--approx", a, b) == (0, f"{exact} ~= {shown}\n", "")

    def test_missing_file_usage_error(self, capsys, module_file):
        a = module_file("a.json", "[0,1)")
        code, _, err = run(capsys, "dist", a, "nope.json")
        assert code == 2 and "cannot read" in err

    def test_malformed_module_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"summands": [{"interval": "[2,1)"}]}')
        ok = tmp_path / "ok.json"
        ok.write_text(PModule.of("[0,1)").to_json())
        code, _, err = run(capsys, "dist", str(bad), str(ok))
        assert code == 2 and "[2,1)" in err

    def test_exponent_endpoint_fails_fast(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"summands":[{"interval":"[0,1e6000000)"}]}')
        code, _, err = run(capsys, "dist", str(bad), str(bad))
        assert code == 2 and "expected p/q" in err


class TestInterleaved:
    def test_decision_both_ways(self, capsys, module_file):
        a = module_file("a.json", "[0,2]")
        b = module_file("b.json", "(0,2)")
        code, out, _ = run(capsys, "interleaved", "--eps", "0", a, b)
        assert code == 0 and out.strip() == "false"
        code, out, _ = run(capsys, "interleaved", "--eps", "1/1000", a, b)
        assert code == 0 and out.strip() == "true"

    def test_bad_eps(self, capsys, module_file):
        a = module_file("a.json", "[0,1)")
        code, _, err = run(capsys, "interleaved", "--eps", "fast", a, a)
        assert code == 2 and "rational" in err


class TestModuleTransforms:
    def test_classify(self, capsys, module_file):
        m = module_file("m.json", "[1,4]")
        code, out, _ = run(capsys, "classify", "--bounds", "1,4", m)
        assert code == 0
        got = json.loads(out)
        assert got["in_ffid_cd"] is True and got["is_zero"] is False

    def test_classify_without_bounds(self, capsys, module_file):
        m = module_file("m.json", "[0,inf)")
        code, out, _ = run(capsys, "classify", m)
        got = json.loads(out)
        assert code == 0 and got["in_ffid"] is False and got["in_ffid_cd"] is None

    def test_radical(self, capsys, module_file):
        m = module_file("m.json", "[0,3)", "[1,1]")
        code, out, _ = run(capsys, "radical", m)
        assert code == 0
        assert parse_module(out) == PModule.of("(0,3)")

    def test_persist(self, capsys, module_file):
        m = module_file("m.json", "[0,2]")
        code, out, _ = run(capsys, "persist", "--p", "2", m)
        assert code == 0
        assert parse_module(out) == PModule.of("[2,2]")

    def test_contract(self, capsys, module_file):
        m = module_file("m.json", "[0,2)")
        code, out, _ = run(capsys, "contract", "--t", "1/2", m)
        assert code == 0
        assert parse_module(out) == PModule.of("[1/2,3/2)")

    def test_contract_out_of_range(self, capsys, module_file):
        m = module_file("m.json", "[0,2)")
        code, _, err = run(capsys, "contract", "--t", "3/2", m)
        assert code == 2 and "[0, 1]" in err


class TestGen:
    def test_cube(self, capsys):
        code, out, _ = run(capsys, "gen", "cube", "--x", "0,0")
        assert code == 0
        assert parse_module(out) == PModule.of("[1/2,11/20)", "[1,21/20)")

    def test_cube_bad_coordinate(self, capsys):
        code, _, err = run(capsys, "gen", "cube", "--x", "1,0")
        assert code == 2 and "out of range" in err

    def test_binary(self, capsys):
        code, out, _ = run(capsys, "gen", "binary", "--bits", "01")
        assert code == 0
        assert parse_module(out) == PModule.of("[1,3)", "[2,6)")

    @pytest.mark.parametrize("bits,bad", [("\u0661\u0660", "'\u0661'"), ("1 0", "' '")])
    def test_binary_takes_only_ascii_bits(self, capsys, bits, bad):
        """Only ASCII 0 and 1 are bits: an Arabic-Indic digit or a space is
        one error line that names it."""
        code, out, err = run(capsys, "gen", "binary", "--bits", bits)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and bad in err

    def test_cauchy(self, capsys):
        code, out, _ = run(capsys, "gen", "cauchy", "--n", "1")
        assert code == 0
        assert parse_module(out) == PModule.of("[-1,1)", "[-1/2,1/2)")

    def test_staircase(self, capsys):
        code, out, _ = run(capsys, "gen", "staircase", "--n", "3")
        assert code == 0
        assert parse_module(out) == PModule.of("[0,1)", "[0,2)", "[0,3)")

    def test_replicate(self, capsys):
        code, out, _ = run(capsys, "gen", "replicate", "--interval", "[0,1)", "--count", "2")
        assert code == 0
        assert parse_module(out) == PModule.of("[0,1)", "[0,1)")

    def test_witness(self, capsys, module_file):
        m = module_file("m.json", "[10,40)")
        code, out, _ = run(
            capsys,
            "gen", "witness", "--module", m, "--inclusion", "ffid_cd_in_ffid",
            "--eps", "1/8", "--bounds", "10,100",
        )
        assert code == 0
        assert parse_module(out) == PModule.of("[10,40)", "[100,401/4)")

    def test_witness_missing_bounds(self, capsys, module_file):
        m = module_file("m.json", "[10,40)")
        code, _, err = run(
            capsys, "gen", "witness", "--module", m,
            "--inclusion", "ffid_cd_in_ffid", "--eps", "1/8",
        )
        assert code == 2 and "bounds" in err


class TestCert:
    def test_round_trip(self, capsys, module_file):
        a = module_file("a.json", "[0,1)", "[5,9)")
        b = module_file("b.json", "[0,1)")
        code, out, _ = run(capsys, "cert", a, b)
        assert code == 0
        cert = MatchingCertificate.from_json_obj(json.loads(out))
        m = parse_module(open(a).read())
        n = parse_module(open(b).read())
        assert verify_certificate(m, n, cert)
        assert cert.threshold.as_fraction == 2

    def test_infinite_distance_is_failure_exit(self, capsys, module_file):
        a = module_file("a.json", "[0,1)")
        b = module_file("b.json", "[0,inf)")
        code, _, err = run(capsys, "cert", a, b)
        assert code == 1 and "infinitely far" in err

    def test_unverified_certificate_is_failure_exit(self, capsys, module_file, monkeypatch):
        # The self-check is real code, so it also runs under python -O.
        monkeypatch.setattr("persistd.cli.verify_certificate", lambda m, n, cert: False)
        a = module_file("a.json", "[0,1)", "[5,9)")
        b = module_file("b.json", "[0,1)")
        code, out, err = run(capsys, "cert", a, b)
        assert code == 1 and out == "" and "failed verification" in err


    def test_dist_and_cert_on_thousands_of_copies(self, capsys, tmp_path):
        files = []
        for name, count in (("m.json", 3000), ("n.json", 2999)):
            path = tmp_path / name
            path.write_text(json.dumps(
                {"summands": [{"interval": "[0,2)", "multiplicity": count}]}
            ))
            files.append(str(path))
        code, out, _ = run(capsys, "dist", *files)
        assert code == 0 and out.strip() == "1"
        code, out, _ = run(capsys, "cert", *files)
        assert code == 0
        cert = MatchingCertificate.from_json_obj(json.loads(out))
        assert str(cert.threshold) == "1" and cert.pairs == ()
        assert len(cert.unmatched_m) == 3000 and len(cert.unmatched_n) == 2999


class TestVerify:
    def test_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "cube-isometry", "--seed", "1", "--trials", "10", "--N", "4"
        )
        assert code == 0
        assert "PASS" in out and "all properties pass" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "pseudometric", "--seed", "1", "--trials", "5", "--json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["all_pass"] is True and obj["suite"] == "pseudometric"

    def test_unknown_suite_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "flat-earth")
        assert code == 2

    def test_bad_param_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "cube-isometry", "--N", "many")
        assert code == 2 and "bad value" in err

    def test_flags_are_the_param_converters(self):
        verify = build_parser()._subparsers._group_actions[0].choices["verify"]
        flags = {a.dest for a in verify._actions if a.option_strings}
        assert flags - {"help", "seed", "trials", "json"} == set(_PARAM_CONVERTERS)


class TestSelectedSubcommand:
    """``cli_main`` builds the arguments of the one subcommand it runs; its
    exit code, stdout and stderr are those of the complete parser."""

    ARGVS = [
        [],
        ["--help"],
        *([name, "--help"] for name in (
            "dist", "interleaved", "classify", "radical", "persist", "contract", "cert", "gen",
            "verify",
        )),
        *(["gen", family, "--help"] for family in (
            "cube", "binary", "cauchy", "staircase", "replicate", "witness",
        )),
        ["flat-earth"],
        ["flat-earth", "dist", "M", "M"],
        ["--x", "dist", "M", "M"],
        ["dist"],
        ["dist", "M"],
        ["dist", "cert", "M"],
        ["interleaved", "M", "M"],
        ["classify"],
        ["persist", "M"],
        ["cert", "M"],
        ["gen"],
        ["gen", "witness", "--module", "M"],
        ["verify"],
        ["verify", "flat-earth"],
        ["verify", "cube-isometry", "--N", "many"],
        ["gen", "witness", "--module", "M", "--inclusion", "bogus", "--eps", "1"],
        ["gen", "witness", "--module", "M", "--inclusion", "fid_in_pfd", "--eps", "1"],
        ["gen", "staircase", "--n", "2"],
        ["dist", "--approx", "M", "M"],
        ["verify", "pseudometric", "--trials", "2", "--json"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
    def test_same_as_the_complete_parser(self, capsys, monkeypatch, module_file, argv):
        monkeypatch.setenv("COLUMNS", "80")
        m = module_file("m.json", "[0,2)", "(1,4]")
        argv = [m if token == "M" else token for token in argv]
        selected = run(capsys, *argv)
        monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser())
        assert run(capsys, *argv) == selected


class TestCopyBound:
    """A module of more than 10**6 summand copies is refused before its
    copies are built, and so is a family count that would give one."""

    @pytest.mark.parametrize("command", ["dist", "radical", "classify"])
    @pytest.mark.parametrize("mults", [[10**19], [2, 999_999]])
    def test_oversized_module_is_usage_error(self, capsys, tmp_path, command, mults):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"summands": [
            {"interval": f"[0,{k + 1})", "multiplicity": mult} for k, mult in enumerate(mults)
        ]}))
        argv = [command, str(path)] + ([str(path)] if command == "dist" else [])
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "1000000" in err

    @pytest.mark.parametrize("count", ["10000000000000000000", "1000001"])
    def test_oversized_replicate_is_usage_error(self, capsys, count):
        code, out, err = run(capsys, "gen", "replicate", "--interval", "[0,1)", "--count", count)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "1000000" in err

    @pytest.mark.parametrize("value", ["10000000000000000000", "1000001"])
    @pytest.mark.parametrize("family", [
        ["staircase", "--n"],
        ["witness", "--inclusion", "fid_in_pfd", "--eps", "1", "--trunc"],
        ["witness", "--inclusion", "fid_in_cid", "--eps", "1", "--trunc"],
        ["witness", "--inclusion", "ffid_in_cfid", "--eps", "1", "--trunc"],
    ])
    def test_oversized_family_is_usage_error(self, capsys, module_file, family, value):
        if family[0] == "witness":
            family = ["witness", "--module", module_file("m.json", "[0,1)")] + family[1:]
        code, out, err = run(capsys, "gen", *family, value)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "1000000" in err

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(pmodule, "_MAX_COPIES", 3)
        monkeypatch.setattr(families, "_MAX_COPIES", 3)
        entries = [{"interval": "[0,1)", "multiplicity": 1}, {"interval": "[0,2)", "multiplicity": 2}]
        assert len(PModule.from_json_obj({"summands": entries})) == 3
        entries[0]["multiplicity"] = 2
        with pytest.raises(ModuleFormatError, match="summand #1 brings the module to 4 copies"):
            PModule.from_json_obj({"summands": entries})
        assert len(families.replicate(parse_interval("[0,1)"), 3)) == 3
        with pytest.raises(ValueError, match="at most 3"):
            families.replicate(parse_interval("[0,1)"), 4)
        assert len(families.staircase(3)) == 3
        with pytest.raises(ValueError, match="at most 3"):
            families.staircase(4)
        m = PModule.zero()
        for inclusion in ("fid_in_pfd", "fid_in_cid"):
            assert len(families.open_subset_witness(m, inclusion, 1, 3)) == 3
            with pytest.raises(ValueError, match="at most 3"):
                families.open_subset_witness(m, inclusion, 1, 4)

    def test_sums_are_held_to_the_bound(self, monkeypatch):
        monkeypatch.setattr(pmodule, "_MAX_COPIES", 3)
        m = PModule.of("[0,1)", "[0,2)")
        assert len(m.direct_sum(PModule.of("[0,1)"))) == 3
        with pytest.raises(ValueError, match="at most 3 summand copies, got 4"):
            m.direct_sum(m)
        with pytest.raises(ValueError, match="at most 3 summand copies, got 4"):
            PModule._of_runs([(parse_interval("[0,1)"), 2), (parse_interval("[0,1)"), 2)])
        with pytest.raises(ValueError, match="at most 3 summand copies, got 4"):
            families.open_subset_witness(PModule.of("[10,11)"), "fid_in_cid", 1, 3)

    def test_oversized_witness_sum_is_usage_error(self, capsys, module_file):
        path = module_file("m.json", "[0,1)")
        code, out, err = run(capsys, "gen", "witness", "--module", path,
                             "--inclusion", "fid_in_cid", "--eps", "1", "--trunc", "1000000")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "1000001" in err


class TestBudgets:
    """Sizes whose cost is not a copy count have fixed bounds too: each
    oversized value is one error line and exit 2, before any work."""

    @pytest.mark.parametrize("argv,bound", [
        (["verify", "pseudometric", "--trials"], "10000"),
        (["verify", "not-totally-bounded", "--k"], "64"),
        (["verify", "cauchy-incomplete", "--depth"], "64"),
        (["gen", "cauchy", "--n"], "1000"),
        (["verify", "cube-isometry", "--N"], "1000"),
        (["verify", "binary-discrete", "--length"], "1000"),
        (["verify", "pseudometric", "--max-summands"], "1000"),
    ])
    @pytest.mark.parametrize("value", ["10000000000000000000", "next"])
    def test_oversized_value_is_usage_error(self, capsys, no_module_building, argv, bound, value):
        value = str(int(bound) + 1) if value == "next" else value
        code, out, err = run(capsys, *argv, value)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and bound in err


class TestCap:
    """5001 copies against 5000 are one over the fixed vertex cap of 10,000,
    whatever the environment holds."""

    @pytest.mark.parametrize("command", [["dist"], ["cert"], ["interleaved", "--eps", "0"]])
    def test_over_cap_pair_is_usage_error(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.setenv("PERSISTD_MATCH_CAP", "100000")
        paths = []
        for count in (5001, 5000):
            paths.append(tmp_path / f"{count}.json")
            paths[-1].write_text(families.replicate(parse_interval("[0,2)"), count).to_json())
        code, out, err = run(capsys, *command, *map(str, paths))
        assert code == 2 and out == ""
        assert err == "error: matching on 5001+5000 summands exceeds the vertex cap 10000\n"


def test_deeply_nested_module_json_is_usage_error(capsys, tmp_path):
    path = tmp_path / "nest.json"
    path.write_text("[" * 1000 + "]" * 1000)
    code, out, err = run(capsys, "dist", str(path), str(path))
    assert code == 2 and out == ""
    assert err == "error: invalid module JSON: nested too deeply\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["interleaved", "--eps", "1e-3", "M", "M"],
        ["interleaved", "--eps", "0.5", "M", "M"],
        ["persist", "--p", "1_0", "M"],
        ["contract", "--t", "5e-1", "M"],
        ["classify", "--bounds", "0,1e3", "M"],
        ["gen", "cube", "--x", "0,1e-3"],
        ["gen", "replicate", "--interval", "[0,1e3)", "--count", "2"],
        ["gen", "witness", "--module", "M", "--inclusion", "ffid_in_cfid", "--eps", "1e9"],
        ["verify", "open-witness", "--eps", "1e9"],
        ["verify", "not-totally-bounded", "--d", "1.5"],
    ],
)
def test_off_grammar_rational_is_usage_error(capsys, module_file, argv):
    path = module_file("m.json", "[0,1)")
    code, out, err = run(capsys, *(path if a == "M" else a for a in argv))
    assert code == 2 and out == "" and err.startswith("error:")


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    capsys.readouterr()


def test_no_command_is_usage_error(capsys):
    assert cli_main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "cube-isometry", "--N", "1_0"],
        ["verify", "not-totally-bounded", "--k", "1_0"],
        ["verify", "matching-oracle", "--grid", "1_0"],
        ["verify", "cauchy-incomplete", "--depth", "1_0"],
        ["verify", "open-witness", "--trunc", "1_0"],
        ["verify", "binary-discrete", "--length", "1_0"],
        ["verify", "pseudometric", "--max-den", "1_0"],
        ["verify", "pseudometric", "--max-summands", "1_0"],
        ["verify", "pseudometric", "--trials", "1_0"],
        ["verify", "pseudometric", "--seed", "1_0"],
        ["gen", "cube", "--n", "1_0", "--x", "0"],
        ["gen", "cauchy", "--n", "1_0"],
        ["gen", "staircase", "--n", "1_0"],
        ["gen", "replicate", "--interval", "[0,1)", "--count", "1_0"],
        ["gen", "witness", "--module", "M", "--inclusion", "ffid_in_cfid", "--eps", "1",
         "--trunc", "1_0"],
    ],
)
def test_off_grammar_int_is_usage_error(capsys, module_file, argv):
    path = module_file("m.json", "[0,1)")
    code, out, err = run(capsys, *(path if a == "M" else a for a in argv))
    assert code == 2 and out == "" and "'1_0'" in err


def test_int_flags_take_sign_and_spaces(capsys):
    assert run(capsys, "gen", "staircase", "--n", " +3 ") == run(
        capsys, "gen", "staircase", "--n", "3"
    )


def test_closed_stdout_exits_one_quietly(tmp_path):
    # 224 KB of output, more than a pipe buffer holds, so the writer is
    # still writing when the reader closes its end.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "persistd.cli", "gen", "staircase", "--n", "5000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(10) == b'{"summands'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
