import argparse
import json
import math
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cfrac import DEFAULT_MAX_DEPTH, CfSpec, cli, eval_backward, exact, xcot_spec
from cfrac.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_sec_tan_at_zero_text(capsys):
    code, out, err = run(capsys, "eval", "sec-tan", "--x", "0")
    assert code == 0
    assert err == ""
    assert "value" in out and "1.0" in out


def test_eval_sec_tan_json_record(capsys):
    code, out, _ = run(capsys, "eval", "sec-tan", "--x", "1", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert list(record) == ["function", "x", "value", "depth", "est_rel_err", "method"]
    assert record["function"] == "sec-tan"
    assert record["x"] == 1.0
    assert record["value"] == pytest.approx(3.4082234423358275, rel=1e-12)
    assert record["method"] == "adaptive" or record["method"] == "backward"
    assert record["est_rel_err"] <= 1e-12
    # the record must round-trip
    assert json.loads(json.dumps(record)) == record


def test_eval_xcot(capsys):
    code, out, _ = run(capsys, "eval", "xcot", "--x", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1 / math.tan(1), rel=1e-12)


def test_eval_cot_divides_by_x(capsys):
    code, out, _ = run(capsys, "eval", "cot", "--x", "1/2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["function"] == "cot"
    assert record["x"] == 0.5
    assert record["value"] == pytest.approx(1 / math.tan(0.5), rel=1e-12)


def test_eval_cot_at_zero_is_numeric_error(capsys, monkeypatch):
    """cot(0) is rejected before x*cot(x) is evaluated, whatever the method."""

    def evaluator_called(*args):
        raise AssertionError(f"an evaluator ran for cot at x = 0: {args}")

    for name in ("_fold", "eval_adaptive", "eval_backward", "eval_forward", "eval_lentz"):
        monkeypatch.setattr(cli, name, evaluator_called)
    for method in ("adaptive", "backward", "forward", "lentz"):
        code, out, err = run(capsys, "eval", "cot", "--x", "0", "--method", method)
        assert code == 2
        assert out == ""
        assert "DivisionNearZero" in err
        assert "x = 0" in err


@pytest.mark.parametrize("x_text, shown", [("0", "0.0"), ("1e-310", "1e-310")])
def test_eval_cot_names_the_pole_threshold(capsys, x_text, shown):
    # 1e-310 is not 0 but lies inside the threshold; x is shown as the float evaluated
    code, out, err = run(capsys, "eval", "cot", "--x", x_text)
    assert (code, out) == (2, "")
    assert err == f"error: DivisionNearZero: cot(x) is xcot(x)/x and needs |x| >= 1e-300; got x = {shown}\n"


def test_eval_rational_x_argument(capsys):
    # negative rationals need the --x=value spelling (argparse reads a bare
    # "-3/4" as an option); negative decimals work either way
    code, out, _ = run(capsys, "eval", "sec-tan", "--x=-3/4", "--format", "json")
    assert code == 0
    x = float(Fraction(-3, 4))
    reference = (1 + math.sin(x)) / math.cos(x)
    assert json.loads(out)["value"] == pytest.approx(reference, rel=1e-12)

    code, out, _ = run(capsys, "eval", "sec-tan", "--x", "-0.25", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.7767431027633493, rel=1e-12)


def test_eval_fixed_depth_methods(capsys):
    code, out, _ = run(
        capsys, "eval", "sec-tan", "--x", "1", "--method", "backward", "--depth", "6",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["value"] == pytest.approx(167 / 49, rel=1e-14)
    assert record["depth"] == 6
    assert record["method"] == "backward"
    assert record["est_rel_err"] > 0

    code, out, _ = run(
        capsys, "eval", "sec-tan", "--x", "1", "--method", "forward", "--depth", "6",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(167 / 49, rel=1e-14)


def test_eval_lentz_method(capsys):
    code, out, _ = run(
        capsys, "eval", "xcot", "--x", "1", "--method", "lentz", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["method"] == "lentz"
    assert record["value"] == pytest.approx(1 / math.tan(1), rel=1e-12)


def test_usage_errors_exit_1(capsys):
    for argv in (
        [],
        ["eval", "sec-tan"],  # missing --x
        ["eval", "sinh", "--x", "1"],  # unknown function
        ["eval", "sec-tan", "--x", "abc"],  # unparseable x
        ["eval", "sec-tan", "--x", "1/0"],  # zero denominator
        ["eval", "sec-tan", "--x", "1", "--depth", "0"],
        ["eval", "sec-tan", "--x", "1", "--rel-err", "-1"],
        ["frobnicate"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert "error" in captured.err


@pytest.mark.parametrize("x_text", ["1e400", "-1e400", f"{10**400}/3", "1e-400", "-1e-400", f"3/{10**400}"])
@pytest.mark.parametrize(
    "command", [["eval", "sec-tan"], ["convergents", "xcot"], ["study", "xcot"]]
)
def test_x_beyond_float_range_is_usage_error(capsys, command, x_text):
    code, out, err = run(capsys, *command, f"--x={x_text}")
    assert code == 1
    assert out == ""
    assert "float range" in err and "Traceback" not in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("eval", "convergents", "series", "verify", "terms", "study"):
        assert command in out


def test_convergents_table(capsys):
    code, out, _ = run(capsys, "convergents", "sec-tan", "--x", "1", "--depth", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "value", "delta"]
    assert len(lines) == 7
    assert lines[-1].split()[0] == "6"
    assert float(lines[-1].split()[1]) == pytest.approx(167 / 49, rel=1e-14)


def test_convergents_csv(capsys):
    code, out, _ = run(
        capsys, "convergents", "xcot", "--x", "1", "--depth", "20", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value,delta"
    assert len(lines) == 21
    assert float(lines[-1].split(",")[1]) == pytest.approx(1 / math.tan(1), rel=1e-13)


def test_convergents_at_zero(capsys):
    code, out, _ = run(
        capsys, "convergents", "sec-tan", "--x", "0", "--depth", "3", "--format", "csv"
    )
    assert code == 0
    for line in out.splitlines()[1:]:
        assert line.split(",")[1] == "1.0"


def test_series_table(capsys):
    code, out, _ = run(capsys, "series", "--order", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "zigzag", "coefficient"]
    assert lines[1].split() == ["0", "1", "1"]
    assert lines[-1].split() == ["4", "5", "5/24"]


def test_series_csv_reduces_coefficients(capsys):
    code, out, _ = run(capsys, "series", "--order", "9", "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == "9,7936,62/2835"


def test_series_json(capsys):
    code, out, _ = run(capsys, "series", "--order", "5", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[2] == {"n": 2, "zigzag": 1, "coefficient": "1/2"}
    assert rows[5] == {"n": 5, "zigzag": 16, "coefficient": "2/15"}


def test_series_builds_the_zigzag_triangle_once(capsys, monkeypatch):
    calls = []
    original = exact._zigzags
    monkeypatch.setattr(exact, "_zigzags", lambda n: calls.append(n) or original(n))
    monkeypatch.setattr(exact, "zigzag", None)  # no row asks for its own triangle
    code, out, _ = run(capsys, "series", "--order", "30", "--format", "csv")
    assert code == 0 and calls == [30]
    z30 = original(30)[-1]
    assert out.splitlines()[-1] == f"30,{z30},{Fraction(z30, math.factorial(30))}"


def test_series_order_past_the_cap_is_refused_before_the_triangle(capsys, monkeypatch):
    calls = []
    original = exact._zigzags
    monkeypatch.setattr(exact, "_zigzags", lambda n: calls.append(n) or original(n))
    for order in ("1001", "1600", str(10**6)):
        code, out, err = run(capsys, "series", "--order", order)
        assert code == 1 and out == "" and f"must be <= {cli.MAX_SERIES_ORDER}" in err
    assert calls == []
    code, out, _ = run(capsys, "series", "--order", str(cli.MAX_SERIES_ORDER), "--format", "csv")
    assert code == 0 and calls == [1000] and out.splitlines()[-1].startswith("1000,")


def test_terms_xcot(capsys):
    code, out, _ = run(capsys, "terms", "xcot", "--count", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,a,b", "1,-x^2,3", "2,-x^2,5", "3,-x^2,7"]


def test_terms_sec_tan(capsys):
    code, out, _ = run(capsys, "terms", "sec-tan", "--count", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,a,b", "1,x,1", "2,-x,2", "3,-x,3", "4,x,2"]


def test_terms_count_zero(capsys):
    code, out, _ = run(capsys, "terms", "sec-tan", "--count", "0", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,a,b"]


def test_terms_count_past_the_cap_is_refused_before_any_term(capsys, monkeypatch):
    calls, spec = [], xcot_spec()
    counting = CfSpec(name=spec.name, leading=spec.leading,
                      termgen=lambda k: calls.append(k) or spec.termgen(k))
    monkeypatch.setitem(cli._SPECS, "xcot", lambda: counting)
    for count in ("4097", "200000", str(10**9)):
        code, out, err = run(capsys, "terms", "xcot", "--count", count)
        assert code == 1 and out == "" and f"must be <= {DEFAULT_MAX_DEPTH}" in err
    assert calls == []
    code, out, _ = run(capsys, "terms", "xcot", "--count", str(DEFAULT_MAX_DEPTH), "--format", "csv")
    assert code == 0 and calls == list(range(1, 4097)) and out.splitlines()[-1] == "4096,-x^2,8193"


def test_closed_stdout_exits_1_without_a_traceback():
    """The reader of stdout, as ``| head -n 1``, closes it after one line of 4.5 MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "cfrac", "series", "--order", "1000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().split() == [b"n", b"zigzag", b"coefficient"]
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=30) == 1
    assert err == b""


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["suite", "passed", "checked"]
    assert [line.split() for line in lines[1:]] == [
        ["pairing", "pass", "levels", "0..8"],
        ["offset", "pass", "levels", "0..5"],
        ["halving", "pass", "levels", "0..5"],
        ["flatten", "pass", "levels", "0..3"],
        ["series", "pass", "orders", "0..12"],
    ]


def test_verify_all_runs_each_suite_of_the_table(capsys, monkeypatch):
    calls = []
    for fn, suite in (
        ("verify_pairing", "pairing"),
        ("verify_offset_rewrite", "offset"),
        ("verify_halving_rewrite", "halving"),
        ("verify_flattening", "flatten"),
        ("verify_series", "series"),
    ):
        def recorded(level, original=getattr(exact, fn), suite=suite):
            calls.append((suite, level))
            return original(level)

        monkeypatch.setattr(exact, fn, recorded)
    code, out, _ = run(capsys, "verify", "all", "--format", "csv")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == list(exact.SUITES)
    assert calls == (
        [("pairing", m) for m in range(9)]
        + [("offset", k) for k in range(6)]
        + [("halving", k) for k in range(6)]
        + [("flatten", m) for m in range(4)]
        + [("series", 12)]
    )


def test_stream_choices_come_from_the_spec_table(capsys, monkeypatch):
    monkeypatch.setitem(cli._SPECS, "xcot-again", xcot_spec)
    _clear_parsers()  # each parser is built once per process, so build them again
    try:
        for argv in (
            ["eval", "xcot-again", "--x", "1"],
            ["convergents", "xcot-again", "--x", "1", "--depth", "2"],
            ["terms", "xcot-again", "--count", "2"],
            ["study", "xcot-again", "--x", "1", "--max-depth", "2"],
        ):
            assert run(capsys, *argv)[0] == 0, argv
    finally:
        _clear_parsers()


def _clear_parsers():
    cli._command.cache_clear()
    cli._build_parser.cache_clear()


def test_verify_single_suite_json(capsys):
    code, out, _ = run(capsys, "verify", "halving", "--max-level", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [{"suite": "halving", "passed": True, "checked": "levels 0..2"}]


def test_verify_is_reproducible(capsys):
    first = run(capsys, "verify", "offset")
    second = run(capsys, "verify", "offset")
    assert first == second
    assert first[0] == 0


def test_verify_failure_exits_3(capsys, monkeypatch):
    original = exact._offset_rhs
    monkeypatch.setattr(exact, "_offset_rhs", lambda k: exact._at(original(k), -1))  # x -> -x
    code, out, err = run(capsys, "verify", "offset")
    assert code == 3
    assert "fail" in out


def test_verify_level_beyond_exact_cap_is_usage_error(capsys, monkeypatch):
    def must_not_run(m):
        raise AssertionError("a suite ran before the level was checked")

    for check in ("verify_pairing", "verify_offset_rewrite", "verify_halving_rewrite"):
        monkeypatch.setattr(exact, check, must_not_run)
    # all: halving is the first suite of the table past its cap at level 16
    for suite, refused in (("flatten", "flatten"), ("all", "halving")):
        code, out, err = run(capsys, "verify", suite, "--max-level", "16")
        assert code == 1, suite
        assert out == ""
        assert "error" in err and f"{refused} level 16" in err
    for suite, level in (("series", 31), ("offset", 32), ("offset", 10**8), ("halving", 10**8)):
        code, out, err = run(capsys, "verify", suite, "--max-level", str(level))
        assert (code, out) == (1, "")
        assert f"{suite} level {level} needs exact depth" in err


def test_verify_passes_at_each_suite_cap(capsys):
    # the deepest level check_level accepts for each capped suite
    for suite, cap in (("pairing", 31), ("offset", 31), ("halving", 15), ("flatten", 15), ("series", 30)):
        code, out, err = run(capsys, "verify", suite, "--max-level", str(cap), "--format", "csv")
        assert (code, err) == (0, ""), suite
        unit = "orders" if suite == "series" else "levels"
        assert out.splitlines() == ["suite,passed,checked", f"{suite},pass,{unit} 0..{cap}"]


def test_verify_sampling_flags_are_gone(capsys):
    for flag in ("--trials", "--seed"):
        code, out, err = run(capsys, "verify", "offset", flag, "8")
        assert code == 1, flag
        assert "unrecognized arguments" in err


def test_study_error_decays(capsys):
    code, out, _ = run(
        capsys, "study", "sec-tan", "--x", "1", "--max-depth", "64", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "depth,value,abs_err"
    depths = [int(line.split(",")[0]) for line in lines[1:]]
    assert depths == [1, 2, 4, 8, 16, 32, 64]
    errors = [float(line.split(",")[2]) for line in lines[1:]]
    converged = 1e-12
    for previous, current in zip(errors, errors[1:]):
        assert current < previous or previous <= converged
    assert errors[-1] <= converged


def test_study_at_zero(capsys):
    code, out, _ = run(capsys, "study", "xcot", "--x", "0", "--format", "csv")
    assert code == 0
    for line in out.splitlines()[1:]:
        assert line.split(",")[2] == "0.0"


def test_study_json_fields(capsys):
    code, out, _ = run(
        capsys, "study", "sec-tan", "--x", "0.5", "--max-depth", "8", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["depth"] for row in rows] == [1, 2, 4, 8]
    for row in rows:
        assert set(row) == {"depth", "value", "abs_err"}


@pytest.mark.skipif(shutil.which("cfrac") is None, reason="console script not installed")
def test_console_script_entry_point():
    proc = subprocess.run(
        ["cfrac", "eval", "sec-tan", "--x", "0"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "1.0" in proc.stdout


REUSE_SEQUENCE = (
    ["eval", "sec-tan", "--x", "0.7", "--method", "lentz", "--format", "json"],
    ["eval", "cot", "--x=1/2"],
    ["convergents", "xcot", "--x", "1", "--depth", "3", "--format", "csv"],
    ["series", "--order", "4"],
    ["verify", "offset", "--max-level", "2"],
    ["terms", "sec-tan", "--count", "3"],
    ["study", "xcot", "--x", "0.5", "--max-depth", "4"],
    ["eval", "xcot", "--x", "1..5"],
    ["verify", "flatten", "--max-level", "16"],
    ["verify", "nosuch"],
    ["eval", "--help"],
)


def test_reused_parser_gives_the_output_of_a_fresh_one(capsys, monkeypatch):
    _clear_parsers()
    built = []
    for name, (summary, options) in list(cli._COMMANDS.items()):
        def recording(parser, options=options):
            built.append(parser.prog)
            options(parser)

        monkeypatch.setitem(cli._COMMANDS, name, (summary, recording))
    reused = [run(capsys, *argv) for argv in REUSE_SEQUENCE]
    # each subcommand's parser is built at its first request, then reused
    assert sorted(built) == sorted(f"cfrac {name}" for name in cli._COMMANDS)
    assert cli._build_parser.cache_info().currsize == 0  # no request here needs the top level
    fresh = []
    for argv in REUSE_SEQUENCE:
        _clear_parsers()  # a new parser per call
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0] * 7 + [1] * 3 + [0]


def test_handler_patched_after_a_request_runs(capsys, monkeypatch):
    assert run(capsys, "verify", "offset", "--max-level", "1")[0] == 0  # caches a parser
    seen = []

    def patched(args):
        seen.append((args.suite, args.max_level))
        return 3

    monkeypatch.setattr(cli, "_cmd_verify", patched)
    assert run(capsys, "verify", "offset", "--max-level", "1") == (3, "", "")
    assert seen == [("offset", 1)]


DISPATCH_ARGVS = (
    [],
    ["-h"],
    ["--help"],
    ["eval"],
    ["eval", "-h"],
    ["eval", "sec-tan", "--x", "1", "--help"],
    ["eval", "sec-tan", "--x", "1", "-h", "--bogus"],
    ["eval", "sec-tan"],  # missing --x
    ["eval", "sec-tan", "--x", "1", "--bogus"],
    ["eval", "sec-tan", "--x", "1", "stray"],
    ["series", "--order", "3", "a", "b"],
    ["eval", "xcot", "--x", "abc", "--zz"],
    ["eval", "sec-tan", "--x=-1/3", "--for", "json"],  # abbreviated option
    ["eval", "xcot", "--x", "-1"],
    ["eval", "cot", "--x", "0"],
    ["nosuch"],
    ["ev"],  # commands are not abbreviated
    ["--x", "1", "eval", "sec-tan"],
    ["-x"],
    ["--form", "json"],
    ["--", "terms", "xcot"],
    ["terms", "--", "xcot"],
    ["terms", "xcot", "--count", "2", "--", "x"],
    ["verify", "series", "--max-level", "31"],
    ["verify", "all"],
    ["verify", "all", "--format", "csv"],
    ["verify", "all", "--format", "json"],
    ["study"],
    ["eval", "sec-tan", "--x=-1/8"],  # an attached value may start with "-"
    ["eval", "sec-tan", "--x", "-0.4"],  # a separate one is argparse's to read
    ["eval", "sec-tan", "--x", "-1/8"],
    ["eval", "sec-tan", "--x="],
    ["eval", "sec-tan", "--x", "1", "--format="],
    ["eval", "sec-tan", "--x", "2", "--format", "csv", "--x=1/2", "--format=json"],  # last one wins
    ["eval", "--x=1", "--format", "csv", "sec-tan"],  # a positional after options
    ["eval", "sec-tan", "--x", "1", "-"],
    ["eval", "sec-tan", "--x", "1", "--method", "backward", "--depth", "0"],
    ["eval", "sec-tan", "--x", "1", "--method", "backward", "--depth", "4097"],
)


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
def test_dispatch_matches_the_top_level_parse(capsys, monkeypatch, argv):
    direct = run(capsys, *argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
    assert direct == run(capsys, *argv)


def test_unrecognized_argument_after_a_command_is_refused_by_the_top_level(capsys):
    code, out, err = run(capsys, "eval", "sec-tan", "--x", "1", "--bogus")
    assert (code, out) == (1, "")
    assert err.startswith("usage: cfrac [-h]")
    assert err.endswith("\ncfrac: error: unrecognized arguments: --bogus\n")


def test_a_named_command_is_parsed_once(capsys, monkeypatch):
    parsed = []
    parse_known_args = cli._Parser.parse_known_args

    def counting(parser, *args, **kwargs):
        parsed.append(parser.prog)
        return parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_known_args", counting)
    assert run(capsys, "eval", "sec-tan", "--x", "1")[0] == 0
    assert parsed == []  # the option table parsed it
    assert run(capsys, "eval", "sec-tan", "--x", "1", "--meth", "adaptive")[0] == 0
    assert parsed == ["cfrac eval"]  # an abbreviation is argparse's
    parsed.clear()
    assert run(capsys, "nosuch")[0] == 1
    assert parsed == ["cfrac"]


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    argv = ["eval", "xcot", "--x", "1/2", "--format", "json"]
    expected = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["cfrac", *argv])
    assert main() == expected[0]
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == expected[1:]


# texts for each argument type, valid and invalid
TYPE_SAMPLES = {
    cli._fraction_arg: ["1", "0.731", "-1/8", "-0.4", "2.5E+2", "1_000e-3", " 3/7 ", "1e-400",
                        "1e400", "1e-5001", "1e5001", "abc", "1/0", "nan", "0x10"],
    cli._depth_arg: ["1", "4096", "0", "4097", "-1", "1.5", "1_0", "x"],
    cli._nonneg_int: ["0", "30", "31", "-1", "x"],
    cli._order_arg: ["0", "1000", "1001", "-1", "x"],
    cli._count_arg: ["0", "4096", "4097", "-1", "x"],
    cli._positive_float: ["1e-12", "0.5", "inf", "0", "-1", "nan", "x"],
}


def _samples(action):
    if action.choices is not None:
        return [*action.choices, "nosuch", "-x"]
    return TYPE_SAMPLES[action.type]


def _corpus(name):
    """argv built from the subcommand's own option strings, with valid and invalid values."""
    command = cli._command(name)
    actions = [a for a in command._actions if a.dest != "help"]
    positionals = [a for a in actions if not a.option_strings]
    options = [a for a in actions if a.option_strings]

    def spelled(action, text, attached=False):
        if not action.option_strings:
            return [text]
        option = action.option_strings[0]
        return [f"{option}={text}"] if attached else [option, text]

    base = {a: spelled(a, _samples(a)[0]) for a in actions if a.required}
    corpus = []

    def add(parts, *extra):
        for order in (positionals + options, options + positionals):  # positionals first or last
            corpus.append([name, *(t for a in order if a in parts for t in parts[a]), *extra])

    add(base)
    for action in actions:
        add({a: p for a, p in base.items() if a is not action})  # one part missing
        for text in _samples(action):
            add({**base, action: spelled(action, text)})
            if action.option_strings:
                add({**base, action: spelled(action, text, attached=True)})
        if action.option_strings:
            option = action.option_strings[0]
            text = _samples(action)[0]
            add(base, option, text, option, _samples(action)[1])  # repeated
            add(base, option[:-1], text)  # abbreviated
            add(base, option)  # no value
            add(base, f"{option}=")
            add(base, option, "--", text)
    for extra in (["-h"], ["--"], ["-"], [""], ["extra"], ["--bogus"], ["--bogus=1"]):
        add(base, *extra)
    return corpus


def _outcome(parse, argv, capsys):
    try:
        result = parse(argv)
    except cli.UsageError as err:
        result = ("usage error", str(err))
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, capsys.readouterr()


@pytest.mark.parametrize("name", ["eval", "convergents", "series", "verify", "terms", "study"])
def test_option_table_parses_as_argparse_does(capsys, monkeypatch, name):
    parser = cli._build_parser()  # the full top-level parser: the reference
    assert set(cli._COMMANDS) == {"eval", "convergents", "series", "verify", "terms", "study"}
    declined = []
    table_parse = cli._OptionTable.parse

    def recording(table, tokens):
        args = table_parse(table, tokens)
        declined.append(args is None)
        return args

    monkeypatch.setattr(cli._OptionTable, "parse", recording)
    corpus = _corpus(name)
    for argv in corpus:
        assert _outcome(cli._parse, argv, capsys) == _outcome(parser.parse_args, argv, capsys), argv
    # both paths ran: the table parsed some requests and left others to argparse
    assert len(declined) == len(corpus) and 0 < sum(declined) < len(corpus)


def test_option_table_fills_defaults_as_argparse_does():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=7)
    parser.add_argument("--f", type=Fraction, default=Fraction(1, 2))
    parser.add_argument("--s", default=argparse.SUPPRESS)
    parser.add_argument("--t", type=int, default=argparse.SUPPRESS)  # set only when given
    table = cli._OptionTable.of(parser)
    for argv in ([], ["--n", "3"], ["--f=1/3", "--s", "a"], ["--t", "5"]):
        assert table.parse(argv) == parser.parse_args(argv), argv


def test_option_table_parses_the_plain_requests_of_the_benchmark():
    for argv in (
        ["eval", "cot", "--x=-1.4551915228366852e-11", "--method", "lentz", "--format", "json"],
        ["eval", "xcot", "--x=7/8", "--method", "backward", "--format", "csv"],
        ["convergents", "sec-tan", "--x=-3/8", "--depth", "17", "--format", "csv"],
        ["terms", "xcot", "--count", "0", "--format", "text"],
        ["series", "--order", "24", "--format", "json"],
        ["verify", "series", "--max-level", "31"],  # parses; check_level refuses it later
        ["verify", "all"],
    ):
        command = cli._command(argv[0])
        assert command.table.parse(argv[1:]) == command.parse_args(argv[1:]), argv


def _counting_specs(monkeypatch):
    terms = []

    def counting(k):
        terms.append(k)
        return xcot_spec().termgen(k)

    spec = CfSpec(name="counting", leading=xcot_spec().leading, termgen=counting)
    for name in list(cli._SPECS):
        monkeypatch.setitem(cli._SPECS, name, lambda: spec)
    return terms


@pytest.mark.parametrize("argv", [
    ["eval", "xcot", "--x=0.5", "--method", "backward", "--depth", "1000000"],
    ["eval", "sec-tan", "--x=0.5", "--method", "lentz", "--depth=4097"],
    ["convergents", "xcot", "--x=0.5", "--depth", "4097"],
    ["study", "xcot", "--x=0.5", "--max-depth", "1000000"],
])
def test_depth_beyond_the_cap_is_refused_before_any_term(capsys, monkeypatch, argv):
    terms = _counting_specs(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, out, terms) == (1, "", [])
    assert err.endswith(f"must be <= {DEFAULT_MAX_DEPTH}, got {argv[-1].split('=')[-1]}\n")


def test_depth_at_the_cap_is_accepted(capsys, monkeypatch):
    terms = _counting_specs(monkeypatch)
    argv = ["eval", "xcot", "--x=0.5", "--method", "forward", "--depth", "4096"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert max(terms) == DEFAULT_MAX_DEPTH


HUGE_EXPONENT_SCRIPT = """
import sys
from cfrac import cli
from cfrac.core import CfSpec
terms = []
for name, make in list(cli._SPECS.items()):
    spec = make()
    cli._SPECS[name] = lambda spec=spec: CfSpec(
        name=spec.name, leading=spec.leading, termgen=lambda k: terms.append(k) or spec.termgen(k))
code = cli.main(sys.argv[1:])
print(f"terms={len(terms)}", file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "x_text", ["1e-10000000", "-1e-10000000", "1e+10000000", "1E1_000_000", "1e5001"]
)
def test_huge_decimal_exponent_is_refused_at_once(x_text):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", HUGE_EXPONENT_SCRIPT, "eval", "sec-tan", f"--x={x_text}"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "not a p/q or decimal in float range" in proc.stderr
    assert proc.stderr.endswith("terms=0\n")


def test_decimal_exponent_up_to_the_bound_still_parses(capsys):
    assert cli._fraction_arg("0e-5000") == 0.0  # a nonzero text with exponent -5000 underflows
    assert cli._fraction_arg("0." + "0" * 4000 + "1e4300") == float(Fraction(10**299))
    code, out, err = run(capsys, "eval", "sec-tan", "--x=1e5000")
    assert code == 1 and "float range" in err


def _x_reference(text):
    """float(Fraction(text)), or None where --x refuses text: Fraction refuses it, or it
    overflows or underflows a float."""
    try:
        fraction = Fraction(text)
        value = float(fraction)
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    return None if value == 0 != fraction else value


def _x_corpus():
    """The texts whose float and Fraction readings part, then seeded random decimals and p/q,
    some longer than the quick path takes."""
    rng = random.Random(22)

    def digits(low, high):
        return "".join(rng.choice("0123456789") for _ in range(rng.randint(low, high)))

    texts = ["3/-7", "3 /7", "3/ 7", " 3/7 ", "1_0/3", "١٢/٣", "-0", "-0.0", "0/5", "-0/5", "1.", ".5",
             "1e5_0", "1e-400", "1e400", "nan", "inf", "-inf", "1" * 5000, "0." + "0" * 5000 + "1e5000",
             "+3/7", "3/0", "3/00", "0/0", "1/3\n", "1e", "e5", ".", "1..5", "0x10", "",
             "2.4e-324", "2.5e-324", "4.9e-324", "1e-320", "1.7976931348623157e308",
             "1.7976931348623159e308", f"{10**48}/3", f"3/{10**48}", "9" * 49, "9" * 49 + "/7"]
    for _ in range(3000):
        sign = rng.choice(("", "-", "+"))
        if rng.random() < 0.5:
            texts.append(f"{sign}{digits(1, 30)}/{digits(1, 30)}")
        else:
            whole, point, part = digits(0, 25), rng.choice(("", ".")), digits(0, 25)
            exponent = rng.choice(("", f"e{rng.randint(-340, 340)}", f"E+{rng.randint(0, 330)}"))
            texts.append(f"{sign}{whole or (point and '0')}{point}{part if point else ''}{exponent}")
    return texts


def test_x_is_read_as_the_float_of_its_fraction():
    for text in _x_corpus():
        expected = _x_reference(text)
        if expected is None:
            with pytest.raises(argparse.ArgumentTypeError, match="float range"):
                cli._fraction_arg(text)
        else:
            assert cli._fraction_arg(text).hex() == expected.hex(), text  # hex: -0.0 is not 0.0


def test_plain_x_is_read_without_fraction(monkeypatch):
    monkeypatch.setattr(cli, "Fraction", None)  # a call would fail
    assert [cli._fraction_arg(t) for t in ("0.7", "-17/8", "+.5e1", "12/003", "1.")] == [0.7, -2.125, 5.0, 4.0, 1.0]


def test_usage_line_follows_the_terminal_width(capsys, monkeypatch):
    usages = []
    for columns in ("40", "120", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, err = run(capsys, "eval", "sec-tan", "--x", "abc")
        usage = cli._command("eval").format_usage()
        assert (code, out) == (1, "")
        assert err == f"{usage}cfrac eval: error: argument --x: not a p/q or decimal in float range: 'abc'\n"
        usages.append(usage)
    assert usages[0] == usages[2] != usages[1]


@pytest.mark.parametrize("argv", [
    ["eval", "xcot", "--x", "1e200", "--method", "backward"],
    ["eval", "cot", "--x=1e200", "--method", "forward", "--format", "json"],
    ["convergents", "xcot", "--x=1e160", "--depth", "3", "--format", "csv"],
    ["convergents", "sec-tan", "--x", "1e300", "--depth", "4"],  # convergent 3 is inf
])
def test_a_result_that_is_not_finite_is_a_numeric_failure(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: NoConvergence: ") and ("nan" in err or "inf" in err)
    assert math.isnan(eval_backward(xcot_spec(), 1e200, 32))  # the library value is left as it is
