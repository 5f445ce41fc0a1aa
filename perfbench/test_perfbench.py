"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cfrac  # noqa: E402
import cfrac.cli  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Small cycles so a whole run takes seconds."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(workloads, "FLOAT_MIX", {"smooth": 3, "large": 1, "near": 2, "nonfinite": 1})
    monkeypatch.setattr(workloads, "EXACT_DEPTHS", {"sec-tan": (2, 5), "xcot": (3, 4)})
    monkeypatch.setattr(workloads, "CLI_MIX", {"eval": 1, "near": 4, "tables": 1})
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def run_main(capsys, *args) -> tuple[dict, str]:
    assert run.main(list(args)) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


def one_cycle(workload: str, api=cfrac, seed: int = 3) -> run.Stats:
    ops = workloads.bind(workloads.build(workload, seed), api)
    return run.run_cycles(ops, 0, run.Stats([op.kind == workloads.REFERENCE for op in ops]))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric_with_its_unit(tiny, capsys, workload):
    result, out = run_main(capsys, "--workload", workload, "--seed", "1", "--seconds", "0.01")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in expected.items():
        assert f"# {name} = " in out and out.split(f"# {name} = ")[1].split("\n")[0].endswith(unit)
    for name in ("failed_share", "wrong_share", "ops=", "seed=1", "python=", "cores="):
        assert name in out
    # p99 is printed only where ten cases lie beyond it; a tiny cycle has fewer
    assert "latency_p99_ms" not in out and "cases_beyond_p99=" not in out
    assert ("# verify_all_s = " in out) == (workload == "cli")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_prints_every_per_layer_metric(tiny, capsys, workload):
    result, _ = run_main(capsys, "--workload", workload, "--seed", "2", "--seconds", "0.01",
                         "--trace", "1")
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] is True
    assert (ROOT / "perfbench" / "out" / f"spans-{workload}-seed2.json").is_file()


def test_float_eval_cycle_has_ten_cases_beyond_its_p99():
    assert len(workloads.build("float-eval", 1)) * (1 - 0.99) >= run.P99_MIN_BEYOND


def test_inputs_depend_on_the_seed_alone():
    assert workloads.build("cli", 7) == workloads.build("cli", 7)
    assert workloads.build("cli", 7) != workloads.build("cli", 8)


def test_seed_commit_shows_the_known_defects_but_nothing_else():
    stats = one_cycle("float-eval")
    assert stats.failed > 0 and stats.wrong > 0
    assert stats.known == stats.failed and not stats.unexpected


def test_planted_wrong_value_raises_wrong_and_failed_share(monkeypatch):
    base = one_cycle("float-eval")
    real = cfrac.sec_tan

    def off_by_a_millionth(x, target):
        report = real(x, target)
        return cfrac.EvalReport(report.value * (1 + 1e-6), report.depth,
                                report.est_rel_err, report.method)

    monkeypatch.setattr(cfrac, "sec_tan", off_by_a_millionth)
    planted = one_cycle("float-eval")
    assert planted.wrong > base.wrong and planted.failed > base.failed
    assert planted.unexpected  # a wrong value at a smooth point is not a known defect


def test_planted_exception_on_valid_input_raises_failed_share(monkeypatch):
    base = one_cycle("float-eval")

    def broken(*args, **kwargs):
        raise cfrac.NoConvergence("planted")

    monkeypatch.setattr(cfrac, "eval_lentz", broken)
    planted = one_cycle("float-eval")
    assert planted.failed > base.failed
    assert any("eval_lentz: raised" in line for line in planted.unexpected)


def test_invalid_request_not_rejected_counts_as_failed():
    invalid = [c for c in workloads.build("cli", 1) if c["kind"] == "invalid"]
    assert invalid
    accepting = SimpleNamespace(cli=SimpleNamespace(main=lambda argv: 0))
    stats = run.run_cycles(workloads.bind(invalid, accepting), 0, run.Stats([False] * len(invalid)))
    assert stats.failed == len(invalid) and len(stats.unexpected) == len(invalid)
    stats = run.run_cycles(workloads.bind(invalid, cfrac), 0, run.Stats([False] * len(invalid)))
    assert stats.failed == 0


def test_non_finite_input_must_raise_value_error():
    case = {"workload": "float-eval", "kind": "eval_backward", "stream": "xcot",
            "stratum": "nonfinite", "x": math.nan, "depth": 8}
    (op,) = workloads.bind([case], cfrac)
    assert not op.check(None, ValueError("nan")).failed
    verdict = op.check(math.nan, None)
    assert verdict.status == workloads.NOT_REJECTED and verdict.known


def test_sec_tan_tail_pole_is_a_known_defect_elsewhere_a_raise_is_not():
    def case(x):
        c = {"workload": "float-eval", "kind": "eval_adaptive", "stream": "sec-tan",
             "stratum": "near", "x": x, "target": 1e-10}
        c["ref"], c["kappa"] = oracle.f_ref("sec-tan", x)
        c["tail_pole"] = oracle.tail_pole("sec-tan", x)
        return workloads.bind([c], cfrac)[0]

    at_pole = case(-2 * math.pi)  # sec + tan = 1 here; cfrac raises DivisionNearZero
    with pytest.raises(cfrac.DivisionNearZero) as raised:
        at_pole.call()
    verdict = at_pole.check(None, raised.value)
    assert verdict.status == workloads.RAISED and verdict.known
    verdict = case(1.0).check(None, cfrac.DivisionNearZero("planted"))
    assert verdict.status == workloads.RAISED and not verdict.known


def test_run_refuses_a_directory_without_cfrac(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        run.main(["--workload", "cli", "--seed", "1", "--seconds", "1"])
    assert exit_info.value.code not in (0, None)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("stream", ["sec-tan", "xcot"])
def test_oracle_convergents_match_cfrac_exact(stream):
    spec = cfrac.sec_tan_spec() if stream == "sec-tan" else cfrac.xcot_spec()
    x = 0.8125
    for depth, (ref, _) in enumerate(oracle.convergents(stream, x, 12), start=1):
        exact = cfrac.convergent_exact(spec, depth)(Fraction(x))
        assert ref == (float(exact), float(exact - Fraction(float(exact))))
        assert oracle.fold(stream, Fraction(x), depth) == exact


def test_oracle_series_and_kappa():
    assert [oracle.zigzag(n) for n in range(10)] == [cfrac.zigzag(n) for n in range(10)]
    f = cfrac.convergent_exact(cfrac.xcot_spec(), 6)
    order = oracle.series_agreement("xcot", 6)
    assert cfrac.series_from_ratfunc(f, order) == oracle.series("xcot", order)
    (value, _), kappa = oracle.f_ref("sec-tan", 1.2)
    (shifted, _), _ = oracle.f_ref("sec-tan", 1.2 + 1e-7)
    assert kappa == pytest.approx(1.2 * (shifted - value) / 1e-7 / value, rel=1e-5)


def test_tracer_restores_every_binding():
    before = (cfrac.eval_backward, cfrac.core.eval_backward, cfrac.cli._SPECS["xcot"],
              cfrac.exact.poly_gcd)
    tracer = tracing.Tracer()
    tracer.install(cfrac)
    try:
        assert cfrac.core.eval_backward is not before[1]
        assert cfrac.cli._SPECS["xcot"] is not before[2]
        cfrac.eval_adaptive(cfrac.xcot_spec(), 0.5, 1e-10)
    finally:
        tracer.uninstall()
    assert (cfrac.eval_backward, cfrac.core.eval_backward, cfrac.cli._SPECS["xcot"],
            cfrac.exact.poly_gcd) == before
    m = tracing.layer_metrics(tracer, 1)
    assert m["core.eval_adaptive.probes_per_call"] >= 2
    assert m["core.eval_adaptive.terms_per_call"] > 0
