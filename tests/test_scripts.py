"""The scripts run end to end with tiny arguments."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DENSE_ROWS = ("eval_backward(dense, 0.7, 32)", "eval_forward(dense, 0.7, 32)", "eval_lentz(dense, 0.7)")
FRESH_LENTZ_ROWS = ("eval_lentz(fresh sec-tan, 1.0)", "eval_lentz(fresh xcot, 0.7)")  # restarts included
LARGE_X_ROWS = ("eval_forward(xcot, 20.0, 64)", "eval_lentz(xcot, 20.0)",  # the most steps per call
                "sec_tan(20.0)", "eval_adaptive(sec-tan, 20.0)")
TERMGEN_ROWS = ("termgen(xcot, 7)", "termgen(sec-tan, 7)")  # one term pair built
CLI_ROWS = (  # whole requests: a csv record, two text tables and a usage error
    "cli.main(eval xcot --x=-17/8 --method forward --format csv)",
    "cli.main(convergents sec-tan --x=0.7 --depth 24)",
    "cli.main(terms xcot --count 16)",
    "cli.main(eval sec-tan --x abc)",
)


@pytest.mark.parametrize(
    "script, args",
    [
        ("tail_acceleration.py", ["--x", "0.8", "--levels", "2"]),
        ("convergence_study.py", ["--max-depth", "4", "--points", "5"]),
        ("bench_layers.py", [str(ROOT / "src"), "--repeat", "1", "--number", "1"]),
        # in-process pairs against a second copy of cfrac, here the same checkout
        ("bench_layers.py", ["--repeat", "1", "--number", "1", "--baseline", str(ROOT / "src")]),
    ],
)
def test_study_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if script == "bench_layers.py":  # one JSON object: layer -> microseconds per call
        times = json.loads(proc.stdout)
        assert {
            "exact.SUITES[flatten].check(15)",
            "convergent_exact(sec-tan, 2)",  # shallow rows: the fold's per-call overhead
            "convergent_exact(xcot, 4)",
            "series_from_ratfunc(sec-tan 12, 12)",  # exact-deep's shallow series
            "series_from_ratfunc(xcot 12, 25)",
            "exact-deep op(sec-tan 12, 12)",
            "cli._parse(eval sec-tan --x 1)",  # the option table's path
            "cli._parse(eval sec-tan --x 1 --meth adaptive)",  # argparse's
            "one-shot import cfrac",  # new interpreters
            "one-shot cli.main(eval sec-tan --x 1)",
            *DENSE_ROWS,  # each kernel on its generic loop
            *FRESH_LENTZ_ROWS,
            *LARGE_X_ROWS,
            *TERMGEN_ROWS,
            *CLI_ROWS,
        } <= set(times)
        assert all(t > 0 for t in times.values())
        if "--baseline" in args:  # each row also timed in the baseline, with the pairs' ratio
            row = "eval_forward(sec-tan, 1.0, 32)"
            assert {row, f"{row} [baseline]", f"{row} [ratio]", "eval_adaptive(xcot, 20.0) [ratio]",
                    "exact-deep op(sec-tan 12, 12) [ratio]",
                    "one-shot import cfrac [baseline]",
                    *(f"{row} [ratio]" for row in (
                        DENSE_ROWS + FRESH_LENTZ_ROWS + LARGE_X_ROWS + TERMGEN_ROWS + CLI_ROWS))} <= set(times)

