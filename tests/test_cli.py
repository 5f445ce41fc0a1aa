import json
import math
import shutil
import subprocess
from fractions import Fraction

import pytest

from cfrac import cli, exact, xcot_spec
from cfrac.cli import main


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


@pytest.mark.parametrize("x_text", ["1e400", "-1e400", f"{10**400}/3"])
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


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["suite", "passed"]
    suites = [line.split()[0] for line in lines[1:]]
    assert suites == ["pairing", "offset", "halving", "flatten", "series"]
    for line in lines[1:]:
        assert line.split()[1:] == ["pass"]


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
    for argv in (
        ["eval", "xcot-again", "--x", "1"],
        ["convergents", "xcot-again", "--x", "1", "--depth", "2"],
        ["terms", "xcot-again", "--count", "2"],
        ["study", "xcot-again", "--x", "1", "--max-depth", "2"],
    ):
        assert run(capsys, *argv)[0] == 0, argv


def test_verify_single_suite_json(capsys):
    code, out, _ = run(capsys, "verify", "halving", "--max-level", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [{"suite": "halving", "passed": True}]


def test_verify_is_reproducible(capsys):
    first = run(capsys, "verify", "offset")
    second = run(capsys, "verify", "offset")
    assert first == second
    assert first[0] == 0


def test_verify_failure_exits_3(capsys, monkeypatch):
    original = exact._offset_rhs
    monkeypatch.setattr(exact, "_offset_rhs", lambda k, x, t: original(k, -x, t))
    code, out, err = run(capsys, "verify", "offset")
    assert code == 3
    assert "fail" in out


def test_verify_level_beyond_exact_cap_is_usage_error(capsys, monkeypatch):
    def must_not_run(m):
        raise AssertionError("a suite ran before the level was checked")

    monkeypatch.setattr(exact, "verify_pairing", must_not_run)
    for suite in ("flatten", "all"):
        code, out, err = run(capsys, "verify", suite, "--max-level", "16")
        assert code == 1, suite
        assert out == ""
        assert "error" in err and "flatten level 16" in err
    code, out, err = run(capsys, "verify", "series", "--max-level", "31")
    assert code == 1
    assert "series level 31" in err


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
    cli._parser_for.cache_clear()
    reused = [run(capsys, *argv) for argv in REUSE_SEQUENCE]
    info = cli._parser_for.cache_info()
    assert (info.misses, info.hits) == (1, len(REUSE_SEQUENCE) - 1)
    monkeypatch.setattr(cli, "_parser_for", cli._parser_for.__wrapped__)  # a new parser per call
    fresh = [run(capsys, *argv) for argv in REUSE_SEQUENCE]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0] * 7 + [1] * 3 + [0]


def test_stream_added_after_a_request_is_accepted_until_removed(capsys, monkeypatch):
    assert run(capsys, "terms", "xcot", "--count", "2")[0] == 0
    with monkeypatch.context() as patch:
        patch.setitem(cli._SPECS, "xcot-again", xcot_spec)
        code, out, _ = run(capsys, "terms", "xcot-again", "--count", "2")
        assert code == 0 and out == run(capsys, "terms", "xcot", "--count", "2")[1]
    code, out, err = run(capsys, "terms", "xcot-again", "--count", "2")
    assert code == 1 and out == "" and "invalid choice: 'xcot-again'" in err


def test_handler_patched_after_a_request_runs(capsys, monkeypatch):
    assert run(capsys, "verify", "offset", "--max-level", "1")[0] == 0  # caches a parser
    seen = []

    def patched(args):
        seen.append((args.suite, args.max_level))
        return 3

    monkeypatch.setattr(cli, "_cmd_verify", patched)
    assert run(capsys, "verify", "offset", "--max-level", "1") == (3, "", "")
    assert seen == [("offset", 1)]
