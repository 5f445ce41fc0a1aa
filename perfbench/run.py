"""cfrac benchmark: one seeded, closed-loop, single-client workload per run.

    python3 perfbench/run.py --workload float-eval --seed 1 --seconds 35 --trace 0

Run from the root of a cfrac checkout; cfrac is imported from ./src.  One
client calls cfrac in a loop, each call starting when the previous one has
returned, and every output is checked against an oracle that does not call
cfrac (see oracle.py).  The seeded cycle of cases is repeated until
--seconds have passed, split over WORKERS worker processes run one after
another; each worker always completes its first cycle.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same cycle
untraced for half the time and traced for the other half, and prints the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Earlier
lines are a readable summary; a record of the run, and the spans of a
traced run, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import pickle
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 15
# The untraced run is split over this many worker processes, run one after
# another, and each case's fastest time is taken over all of them.  On a
# shared machine one process can run slow for its whole life (other tenants'
# load lasting many seconds, memory layout); a case's fastest time over
# several processes does not depend on any one of them.
WORKERS = 5

# The mean fastest time of a workload's reference cases (workloads.REFERENCE)
# on the machine the benchmark was written on (2 vCPUs of a shared Xeon
# host, CPython 3.11.7) at about its fastest.  A run's speed moves with other
# tenants' load for minutes at a time, and the reference cases, timed among
# the workload's, move with it; so every reported time but setup_s is the
# raw time times REFERENCE_MS / the run's mean fastest reference time: the
# time at about the speed that machine had when least loaded.  The raw
# figures are printed too.
REFERENCE_MS = {"float-eval": 0.40, "exact-deep": 3.6, "cli": 0.45}
P99_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# What set-up means per workload: import, spec construction, first call.
SETUP_FIRST_CALL = {
    "float-eval": "s = cfrac.sec_tan_spec(); cfrac.xcot_spec(); cfrac.eval_adaptive(s, 1.0, 1e-12)",
    "exact-deep": "cfrac.convergent_exact(cfrac.sec_tan_spec(), 8)",
    "cli": "import cfrac.cli, contextlib, io\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    cfrac.cli.main(['eval', 'sec-tan', '--x', '1'])",
}


class Stats:
    """Per-case fastest latency and the verdicts of one segment of a run.

    Every case runs once per cycle.  Contention from other processes on a
    shared machine only ever adds time, so a case's fastest repetition is
    its least disturbed measurement; the run reports statistics across
    cases of those minima, scaled to reference speed (REFERENCE_MS).
    ``reference`` marks the reference cases, which count in no statistic
    but the scale.
    """

    def __init__(self, reference: list[bool]):
        self.reference = reference
        self.best = [math.inf] * len(reference)
        self.runs = [0] * len(reference)
        self.ops = 0
        self.failed = 0
        self.wrong = 0
        self.known = 0
        self.unexpected: list[str] = []
        self.verify_all: list[float] = []

    def add(self, case: int, kind: str, seconds: float, verdict) -> None:
        self.ops += 1
        self.runs[case] += 1
        self.best[case] = min(self.best[case], seconds)
        if self.reference[case]:
            if verdict.failed:
                self.unexpected.append(f"{kind}: {verdict.status}")
            return
        if kind == "cli.verify":
            self.verify_all.append(seconds)
        if verdict.failed:
            self.failed += 1
            self.wrong += verdict.status == "wrong"
            if verdict.known:
                self.known += 1
            else:
                self.unexpected.append(f"{kind}: {verdict.status}: {verdict.detail}")

    def merge(self, other: dict) -> None:
        """Add the stats of another segment of the same cases, as ``vars()`` gives them."""
        self.best = [min(a, b) for a, b in zip(self.best, other["best"])]
        self.runs = [a + b for a, b in zip(self.runs, other["runs"])]
        for name in ("ops", "failed", "wrong", "known"):
            setattr(self, name, getattr(self, name) + other[name])
        self.unexpected += other["unexpected"]
        self.verify_all += other["verify_all"]

    def raw_best(self) -> list[float]:
        """Fastest time of each of the workload's own cases, unscaled."""
        return [b for b, ref in zip(self.best, self.reference) if not ref]

    def scale(self, reference_ms: float) -> float:
        """Factor from raw to reference-speed times: below 1 when the run was slow."""
        ref = [b for b, is_ref in zip(self.best, self.reference) if is_ref]
        return reference_ms / 1e3 / statistics.fmean(ref)

    def ops_per_s(self, reference_ms: float) -> float:
        """Cases per second of a cycle in which every case takes its fastest
        time, at reference speed."""
        best = self.raw_best()
        return len(best) / sum(best) / self.scale(reference_ms)


def run_cycles(ops, seconds: float, stats: Stats, rng: random.Random | None = None) -> Stats:
    """Run ``ops`` in cycles until ``seconds`` have passed, at least one whole cycle.

    An op runs ``op.repeat`` times per cycle.  With ``rng``, every cycle
    after the first runs them in a new order, so that a case does not
    always follow the same one (whose garbage and cache footprint it would
    inherit every time).  Stopping inside a later cycle loses nothing:
    every case already has a time.
    """
    deadline = perf_counter() + seconds
    order = [case for case, op in enumerate(ops) for _ in range(op.repeat)]
    first = True
    while True:
        for case in order:
            op = ops[case]
            if not first and perf_counter() >= deadline:
                return stats
            start = perf_counter()
            try:
                result, exc = op.call(), None
            except Exception as err:  # a raise is an outcome the check judges
                result, exc = None, err
            elapsed = perf_counter() - start
            stats.add(case, op.kind, elapsed, op.check(result, exc))
        first = False
        if perf_counter() >= deadline:
            return stats
        if rng:
            rng.shuffle(order)


def worker(args, cfrac) -> int:
    """Time the cases pickled on standard input; print the stats as JSON."""
    import workloads

    cases = pickle.load(sys.stdin.buffer)
    ops = workloads.bind(cases, cfrac)
    freeze_heap()
    rng = random.Random(f"{args.workload}:{args.seed}:worker{args.worker}")
    stats = run_cycles(ops, args.seconds, Stats(reference_flags(cases)), rng)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(vars(stats) | {"peak_rss_mb": rss}))
    return 0


def run_workers(args, cases: list[dict], root: Path, between) -> tuple[Stats, float]:
    """Run WORKERS workers one after another, each for its share of --seconds.

    ``between(j)`` runs after worker j has ended.  Returns the merged stats
    and the largest peak resident set of a worker.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS)]
    payload = pickle.dumps(cases)
    stats, rss = Stats(reference_flags(cases)), 0.0
    for j in range(WORKERS):
        done = subprocess.run(cmd + ["--worker", str(j)], input=payload, cwd=root,
                              capture_output=True, timeout=150)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode(errors="replace"))
            raise SystemExit(f"error: worker {j} exited with {done.returncode}")
        result = json.loads(done.stdout.decode().strip().splitlines()[-1])
        stats.merge(result)
        rss = max(rss, result["peak_rss_mb"])
        between(j)
    return stats, rss


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def reference_flags(cases: list[dict]) -> list[bool]:
    import workloads

    return [case["kind"] == workloads.REFERENCE for case in cases]


def freeze_heap() -> None:
    """Move the benchmark's own objects (cases, oracle values) out of the
    collector's sight, so that cfrac's garbage collections cost what they
    would in a program without them."""
    gc.collect()
    gc.freeze()


def setup_once(workload: str, root: Path) -> float:
    """Import + spec construction + first call, in a fresh interpreter."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {str(root / 'src')!r})\n"
        "import cfrac\n"
        f"{SETUP_FIRST_CALL[workload]}\n"
        "print(time.perf_counter() - t0)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment(root: Path, seed: int, workload: str, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "cfrac").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cores": os.cpu_count(),
        "cfrac_commit": commit,
        "cfrac_src_sha256": digest.hexdigest()[:16],
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def load_cfrac(root: Path):
    src = root / "src"
    if not (src / "cfrac" / "__init__.py").is_file():
        raise SystemExit(f"error: no cfrac sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import cfrac
    import cfrac.cli  # noqa: F401  (the cli workload calls it)

    if Path(cfrac.__file__).resolve().parent != (src / "cfrac").resolve():
        raise SystemExit(f"error: imported cfrac from {cfrac.__file__}, not from {src}")
    return cfrac


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    root = Path.cwd()
    cfrac = load_cfrac(root)
    if args.worker is not None:
        return worker(args, cfrac)
    env = environment(root, args.seed, args.workload, args.trace)

    cases = workloads.build(args.workload, args.seed)
    metrics: dict[str, float] = {}
    extra: dict[str, float] = {}  # printed and recorded, not in BENCHMARK.json
    counts: dict[str, int] = {}

    if args.trace:
        import tracing

        half = args.seconds / 2
        plain_ops = workloads.bind(cases, cfrac)
        freeze_heap()
        plain = run_cycles(plain_ops, half, Stats(reference_flags(cases)),
                           random.Random(f"{args.workload}:{args.seed}:plain"))
        tracer = tracing.Tracer()
        tracer.install(cfrac)
        try:
            traced_ops = workloads.bind(cases, cfrac)
            for op in traced_ops:
                if op.kind != workloads.REFERENCE:  # no cfrac call in it
                    op.call = tracer.operation(f"op.{op.kind}", op.call)
            stats = run_cycles(traced_ops, half, Stats(reference_flags(cases)),
                               random.Random(f"{args.workload}:{args.seed}:traced"))
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer, stats.ops)
        ref_ms = REFERENCE_MS[args.workload]
        metrics["trace.overhead_share"] = 1.0 - stats.ops_per_s(ref_ms) / plain.ops_per_s(ref_ms)
        units = tracing.LAYER_UNITS
        out_dir = root / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        counts = {"cases": len(cases), "untraced_ops": plain.ops, "traced_ops": stats.ops,
                  "spans": len(tracer.spans)}
        segments = [plain, stats]
    else:
        # set-up is timed after each worker, so its samples spread over the run
        setup: list[float] = []

        def sample_setup(j: int) -> None:
            while len(setup) < SETUP_REPEATS * (j + 1) // WORKERS:
                setup.append(setup_once(args.workload, root))

        stats, rss = run_workers(args, cases, root, sample_setup)
        raw = stats.raw_best()
        scale = stats.scale(REFERENCE_MS[args.workload])
        best = [t * scale for t in raw]
        metrics = {
            "ops_per_s": len(best) / sum(best),
            "latency_p50_ms": percentile(best, 0.50) * 1e3,
            "peak_rss_mb": rss,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END_UNITS
        # printed, not bounded: the unscaled figures and the scale
        extra["raw_ops_per_s"] = len(raw) / sum(raw)
        extra["raw_latency_p50_ms"] = percentile(raw, 0.50) * 1e3
        extra["reference_scale"] = scale
        counts = {"cases": len(best), "reference_cases": len(stats.best) - len(best),
                  "workers": WORKERS, "cycles": min(stats.runs), "ops": stats.ops,
                  "setup_samples": len(setup)}
        # printed, not bounded, and only where ten cases lie beyond it
        p99 = percentile(best, 0.99)
        beyond = sum(b > p99 for b in best)
        if beyond >= P99_MIN_BEYOND:
            extra["latency_p99_ms"] = p99 * 1e3
            counts["cases_beyond_p99"] = beyond
        if stats.verify_all:
            # printed, not bounded (see README)
            extra["verify_all_s"] = min(stats.verify_all) * scale
            counts["verify_all_samples"] = len(stats.verify_all)
        segments = [stats]

    attempted = sum(s.ops for s in segments)
    failed = sum(s.failed for s in segments)
    wrong = sum(s.wrong for s in segments)
    known = sum(s.known for s in segments)
    unexpected = [u for s in segments for u in s.unexpected]
    extra.update({
        "failed_share": failed / attempted,
        "wrong_share": wrong / attempted,
        "known_defect_share": known / attempted,
    })

    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    for name, value in extra.items():
        unit = ("ms" if name.endswith("_ms") else "1/s" if name.endswith("_per_s")
                else "s" if name.endswith("_s") else "ratio")
        print(f"# {name} = {value:.6g} {unit}")
    print("# samples: " + " ".join(f"{k}={v}" for k, v in counts.items())
          + f" attempted={attempted} failed={failed} wrong={wrong} explained_by_known_defects={known}")
    for line in unexpected[:20]:
        print(f"unexpected failure: {line}", file=sys.stderr)

    record = {"env": env, "metrics": metrics, "extra": extra, "counts": counts,
              "attempted": attempted, "failed": failed, "wrong": wrong, "known_defects": known,
              "unexpected_failures": len(unexpected)}
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    # `failed` counts failures that no known defect explains; failed_share
    # above counts every failure.
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(unexpected),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
