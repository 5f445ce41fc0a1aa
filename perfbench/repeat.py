"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload float-eval --seeds 1-10 --seconds 20
    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/out/runs.json

Run from the root of a cfrac checkout.  For every workload and metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, next to the metric's bound in BENCHMARK.json.  Runs are
made one after another, never in parallel, so they do not disturb each
other's timings.  --out keeps every run's record (environment, metrics,
failure counts) and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: every workload)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result line to this JSON file")
    args = parser.parse_args(argv)

    names = args.workload or [w["name"] for w in bench["workloads"]]
    runs: dict[str, list[dict]] = {}
    for workload in names:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            record = json.loads((Path.cwd() / "perfbench" / "out" /
                                 f"result-{workload}-seed{seed}-trace{args.trace}.json").read_text())
            record["result"] = result
            runs.setdefault(workload, []).append(record)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    worst_ok = True
    summary: dict[str, dict] = {}
    for workload, records in runs.items():
        print(f"\n{workload}: {len(records)} runs")
        for metric in records[0]["metrics"]:
            s = summarize([r["metrics"][metric] for r in records])
            summary.setdefault(workload, {})[metric] = s
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s":
                flag = "ok" if s["spread"] < bound / 3 else "WIDE"
                worst_ok &= flag == "ok"
            print(f"  {metric:44s} median={s['median']:<12.6g} q1={s['q1']:<12.6g} "
                  f"q3={s['q3']:<12.6g} spread={s['spread']:.4f} bound={bound} {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
