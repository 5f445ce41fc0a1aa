#!/usr/bin/env python3
"""Best-of-N time per call, in microseconds, of float evaluators, exact layers and CLI requests.

cfrac is imported from the ``src`` directory given on the command line, so
the same script times any checkout.  Each layer gets one warm-up call,
which fills its term table, then ``--repeat`` runs of ``--number`` calls,
or of as many calls as one timed call says fit in about 0.2 s if that is
fewer; the fastest run's mean per call is reported.
The ``convergent_exact`` rows run from depth 2 and 4, where the per-call
overhead of the exact fold weighs most, to 60.  The ``series_from_ratfunc``
rows take depth 12 at the order exact-deep checks for it, where that
workload's median case lies, and sec-tan 60 and xcot 33 at orders 60 and
67; the ``exact-deep op`` row is one whole case, convergent and series.
The rows at x = 20 take the most steps per call, where a per-step cost
weighs most and an adaptive call's fixed cost least.  The ``fresh`` rows
time a first call instead, on a new copy of the spec: ``convergent_exact``,
which builds that copy's exact steps, and ``eval_lentz``, which builds its
float table and starts again on each longer one.  The ``dense`` rows run each float kernel on a stream with no
all-zero coefficient column, so on its generic loop, where a kernel's
per-call dispatch weighs most.
Each suite of ``exact.SUITES`` is timed at its default level, and each
suite also at the deepest level ``exact.check_level`` accepts
(``suite_caps``, read from the measured checkout and used on both sides).
The ``cli._parse`` rows time the argument parse alone: that of the
``cli.main(eval ...)`` row, so the two split a request into parse and
handler, and one with an abbreviated option, which the option table
leaves to argparse, so both parse paths are timed.  The other
``cli.main`` rows are whole requests: a csv record at a rational ``--x``,
a text table of convergents and one of terms, ``verify all``, ``series``,
and a usage error (``--x abc``).  The CLI requests print into discarded
buffers.

With ``--baseline OTHER_SRC`` the in-process rows are timed against that
checkout in the same interpreter: its ``cfrac`` is loaded a second time,
as ``cfrac_baseline``, and the two sides' calls alternate one by one, each
going first in every other pair.  The pairs of each row are split into
``4 * repeat`` runs, taken in rounds over all rows.  Each row then also
reports the baseline's time, as ``<row> [baseline]``, and the median of
the ratio of this checkout's call time to the baseline's over the fastest
tenth of the row's pairs, as ``<row> [ratio]``; a ratio below 1 is a gain.
Each call is timed on its own, so both sides' times include one clock
read.  Sharing one process lets the pairs resolve changes of a few percent
that separate runs of this script cannot.  Two things moved the ratio from
run to run, and are kept out of it: the host's slow phases, by the fastest
pairs (``paired_rows``), and the process's address layout, by running with
address-space randomisation off where Linux allows it (``fixed_layout``).

The ``one-shot`` rows (``ONE_SHOT``) start a new interpreter per sample,
which times itself from before it puts SRC on ``sys.path`` to after
``import cfrac``, or after ``import cfrac.cli`` and a first ``eval sec-tan
--x 1`` (what the benchmark's cli ``setup_s`` times) or ``verify all``; the
median of ``--repeat`` interpreters is reported.  With a baseline the
interpreters alternate between the two checkouts, each
going first in every other round, and the baseline's medians are reported
too, as ``<row> [baseline]``.  Prints one JSON object mapping each layer to
its time.

Usage:
    python scripts/bench_layers.py [SRC] [--repeat 5] [--number 2000] [--baseline OTHER_SRC]
"""

import argparse
import contextlib
import ctypes
import importlib
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import time
import timeit
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 0.2  # caps one run of a slow layer, such as `cfrac verify all`
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag: no address-space randomisation
_QUIET_MAIN = ("import contextlib, io, cfrac.cli\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n    cfrac.cli.main({})")
ONE_SHOT = {  # row -> what a new interpreter runs and times
    "one-shot import cfrac": "import cfrac",
    "one-shot cli.main(eval sec-tan --x 1)": _QUIET_MAIN.format(["eval", "sec-tan", "--x", "1"]),
    "one-shot cli.main(verify all)": _QUIET_MAIN.format(["verify", "all"]),
}


def dense_spec(cfrac):
    """A stream with all six coefficient columns nonzero, so the kernels run their generic loops."""
    term, third = cfrac.PolyTerm, Fraction(1, 3)
    return cfrac.CfSpec(name="dense", leading=term(1, third, third), termgen=lambda k: cfrac.TermPair(
        a=term(Fraction(1, k + 1), (-1) ** k * third, Fraction(-1, 2 * k + 1)),
        b=term(2 * k + 1, Fraction(1, 2), Fraction(1, 8))))


def suite_caps(exact) -> dict:
    """Suite name -> the deepest level m with ``depth(m) <= MAX_EXACT_DEPTH``."""
    caps = {}
    for name, suite in exact.SUITES.items():
        m = 0
        while suite.depth(m + 1) <= exact.MAX_EXACT_DEPTH:
            m += 1
        caps[name] = m
    return caps


def layers(cfrac, caps: dict) -> dict:
    """Layer name -> a call of that layer, on the shared spec of each stream; ``caps`` from ``suite_caps``."""
    xcot, flat, dense = cfrac.xcot_spec(), cfrac.sec_tan_spec(), dense_spec(cfrac)
    calls = {
        # one term pair built, as a first table fill or a `cfrac terms` row asks for each
        "termgen(xcot, 7)": lambda: xcot.termgen(7),
        "termgen(sec-tan, 7)": lambda: flat.termgen(7),
        # sec_tan at m = 0, where x is not reduced, and at m = 1 and m = -3
        "sec_tan(0.5)": lambda: cfrac.sec_tan(0.5),
        "sec_tan(1.0)": lambda: cfrac.sec_tan(1.0),
        "sec_tan(-5.0)": lambda: cfrac.sec_tan(-5.0),
        "eval_adaptive(sec-tan, 1.0)": lambda: cfrac.eval_adaptive(flat, 1.0, 1e-12),
        "eval_adaptive(xcot, 0.7)": lambda: cfrac.eval_adaptive(xcot, 0.7, 1e-12),
        # |x| in [2, 30], float-eval's costliest stratum, where the folds outweigh the doubling loop
        "sec_tan(20.0)": lambda: cfrac.sec_tan(20.0),
        "eval_adaptive(sec-tan, 20.0)": lambda: cfrac.eval_adaptive(flat, 20.0, 1e-12),
    }
    for depth in (16, 32, 64):
        calls[f"eval_backward(xcot, 0.7, {depth})"] = lambda d=depth: cfrac.eval_backward(xcot, 0.7, d)
    # a long driver call: its probes reach depth 128
    calls["eval_adaptive(xcot, 20.0)"] = lambda: cfrac.eval_adaptive(xcot, 20.0, 1e-12)
    calls["eval_forward(xcot, 0.7, 32)"] = lambda: cfrac.eval_forward(xcot, 0.7, 32)
    calls["eval_forward(xcot, 20.0, 64)"] = lambda: cfrac.eval_forward(xcot, 20.0, 64)
    calls["eval_forward(sec-tan, 1.0, 32)"] = lambda: cfrac.eval_forward(flat, 1.0, 32)
    calls["eval_lentz(sec-tan, 1.0)"] = lambda: cfrac.eval_lentz(flat, 1.0, 1e-12, 4096)
    calls["eval_lentz(xcot, 0.7)"] = lambda: cfrac.eval_lentz(xcot, 0.7, 1e-12, 4096)
    calls["eval_lentz(xcot, 20.0)"] = lambda: cfrac.eval_lentz(xcot, 20.0, 1e-12, 4096)
    for spec, x in ((flat, 1.0), (xcot, 0.7)):  # cold: Lentz starts again as the new table grows
        calls[f"eval_lentz(fresh {spec.name}, {x})"] = (
            lambda s=spec, x=x: cfrac.eval_lentz(type(s)(s.name, s.leading, s.termgen), x, 1e-12, 4096))
    # one row per kernel on a stream with no zero column
    calls["eval_backward(dense, 0.7, 32)"] = lambda: cfrac.eval_backward(dense, 0.7, 32)
    calls["eval_forward(dense, 0.7, 32)"] = lambda: cfrac.eval_forward(dense, 0.7, 32)
    calls["eval_lentz(dense, 0.7)"] = lambda: cfrac.eval_lentz(dense, 0.7, 1e-12, 4096)
    exact = cfrac.exact
    for spec, depth in ((flat, 2), (xcot, 4)):  # the shallowest, where per-call overhead shows first
        calls[f"convergent_exact({spec.name}, {depth})"] = (
            lambda s=spec, d=depth: exact.convergent_exact(s, d))
    for spec in (flat, xcot):  # shallow, like most exact-deep cases (depths 2-24)
        calls[f"convergent_exact({spec.name}, 12)"] = lambda s=spec: exact.convergent_exact(s, 12)
        # cold: a fresh copy of the spec, whose first call builds its exact steps
        calls[f"convergent_exact(fresh {spec.name}, 12)"] = (
            lambda s=spec: exact.convergent_exact(type(s)(s.name, s.leading, s.termgen), 12))
    for spec, order in ((flat, 12), (xcot, 25)):  # depth 12 at exact-deep's order for it
        f = exact.convergent_exact(spec, 12)
        calls[f"series_from_ratfunc({spec.name} 12, {order})"] = (
            lambda f=f, o=order: exact.series_from_ratfunc(f, o))
    # one whole exact-deep op: the convergent, then its series
    calls["exact-deep op(sec-tan 12, 12)"] = (
        lambda: exact.series_from_ratfunc(exact.convergent_exact(flat, 12), 12))
    for spec, depth, order in ((flat, 60, 60), (xcot, 33, 67)):
        f = exact.convergent_exact(spec, depth)  # built outside the timed series call
        calls[f"convergent_exact({spec.name}, {depth})"] = (
            lambda s=spec, d=depth: exact.convergent_exact(s, d))
        calls[f"series_from_ratfunc({spec.name} {depth}, {order})"] = (
            lambda f=f, o=order: exact.series_from_ratfunc(f, o))
    for name, suite in exact.SUITES.items():
        for level in (suite.default_level, caps[name]):
            calls[f"exact.SUITES[{name}].check({level})"] = lambda s=suite, m=level: s.check(m)
    cli = cfrac.cli
    plain = ["eval", "sec-tan", "--x", "1"]  # the option table parses it; an abbreviation it does not
    for argv in (plain, [*plain, "--meth", "adaptive"]):  # the parse alone
        calls[f"cli._parse({' '.join(argv)})"] = lambda argv=argv: cli._parse(argv)
    for argv in (
        ["eval", "sec-tan", "--x", "1"],
        ["eval", "xcot", "--x=-17/8", "--method", "forward", "--format", "csv"],
        ["convergents", "sec-tan", "--x=0.7", "--depth", "24"],
        ["terms", "xcot", "--count", "16"],
        ["eval", "sec-tan", "--x", "abc"],  # a usage error
        ["verify", "all"],
        ["series", "--order", "100"],
    ):
        calls[f"cli.main({' '.join(argv)})"] = lambda argv=argv: _quiet(cli.main, argv)
    return calls


def one_shot_seconds(src: Path, code: str) -> float:
    """Seconds a new interpreter takes to put ``src`` on ``sys.path`` and run ``code``."""
    script = f"import sys, time\nt0 = time.perf_counter()\nsys.path.insert(0, {str(src)!r})\n{code}\n"
    script += "print(time.perf_counter() - t0)\n"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def one_shot_rows(srcs: dict[str, Path], repeat: int) -> dict:
    """Row -> median microseconds of ``repeat`` new interpreters per checkout, taking turns."""
    times = {}
    for row, code in ONE_SHOT.items():
        samples = {label: [] for label in srcs}
        for i in range(repeat):
            for label in list(srcs)[:: 1 if i % 2 == 0 else -1]:
                samples[label].append(one_shot_seconds(srcs[label], code))
        for label, seconds in samples.items():
            times[f"{row}{label}"] = round(statistics.median(seconds) * 1e6, 1)
    return times


def load_baseline(src: Path):
    """The ``cfrac`` package under ``src``, imported as ``cfrac_baseline`` next to ``cfrac``."""
    name = "cfrac_baseline"
    spec = importlib.util.spec_from_file_location(
        name, src / "cfrac" / "__init__.py", submodule_search_locations=[str(src / "cfrac")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package  # its relative imports resolve through this entry
    spec.loader.exec_module(package)
    for module in ("cli", "exact"):
        importlib.import_module(f"{name}.{module}")
    return package


def _calls_per_run(call) -> int:
    """How many calls one timed call says fit in ``RUN_SECONDS``; at least one."""
    return max(1, int(RUN_SECONDS / timeit.timeit(call, number=1)))


def best_rows(calls: dict, repeat: int, number: int) -> dict:
    """Row -> the fastest of ``repeat`` runs' mean microseconds per call."""
    times = {}
    for name, call in calls.items():
        call()
        n = min(number, _calls_per_run(call))
        times[name] = round(min(timeit.repeat(call, repeat=repeat, number=n)) / n * 1e6, 3)
    return times


def paired_rows(calls: dict, base_calls: dict, repeat: int, number: int) -> dict:
    """Both sides' calls alternating: each side's fastest run's mean, and each row's ratio.

    A row's pairs are split into ``4 * repeat`` runs, taken in rounds over all
    rows, so that each row's pairs are spread over the whole session.  The host
    runs in phases, and in a slow one a call that allocates slows down more
    than one that only computes, so a row's ratio is the median over the
    fastest tenth of its pairs (by the time of both calls together).
    """
    clock, rows = time.perf_counter, {}
    for name, call in calls.items():
        sides = (call, base_calls[name])
        for side in sides:
            side()
        rows[name] = (sides, max(1, min(number, _calls_per_run(call)) // 4), [], [])
    for _ in range(4 * repeat):
        for sides, n, runs, pairs in rows.values():
            spent = [0.0, 0.0]
            for i in range(n):
                took = [0.0, 0.0]
                for s in (i % 2, 1 - i % 2):  # each side first in every other pair
                    t0 = clock()
                    sides[s]()
                    took[s] = clock() - t0
                spent = [a + b for a, b in zip(spent, took)]
                pairs.append((took[0] + took[1], took[0] / took[1]))
            runs.append(spent)
    times = {}
    for name, (_, n, runs, pairs) in rows.items():
        for s, label in enumerate(("", " [baseline]")):
            times[name + label] = round(min(run[s] for run in runs) / n * 1e6, 3)
        fastest = sorted(pairs)[: max(1, len(pairs) // 10)]
        times[f"{name} [ratio]"] = round(statistics.median(ratio for _, ratio in fastest), 4)
    return times


def fixed_layout() -> None:
    """Run this script again with address-space randomisation off, on Linux where allowed.

    Which addresses a process's objects get moves a pair's ratio: on a shared
    2-vCPU host, ``eval_forward`` against an older checkout read 0.52, 0.53 and
    0.60 in three processes, and 0.65-0.68 in each of seven with randomisation
    off.  A code change moves the layout too, so one row can still read a few
    percent off its mean over layouts.
    """
    if not sys.platform.startswith("linux"):
        return
    personality = ctypes.CDLL(None).personality
    personality.argtypes, personality.restype = [ctypes.c_ulong], ctypes.c_int
    persona = personality(0xFFFFFFFF)  # the current value, unchanged
    if persona == -1 or persona & ADDR_NO_RANDOMIZE or personality(persona | ADDR_NO_RANDOMIZE) == -1:
        return
    os.execv(sys.executable, sys.orig_argv)


def _quiet(main, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"), help="directory holding cfrac/")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--number", type=int, default=2000)
    parser.add_argument("--baseline", help="a second checkout's src directory to compare against")
    args = parser.parse_args()
    if args.baseline:
        fixed_layout()

    srcs = {"": Path(args.src).resolve()}
    if args.baseline:
        srcs[" [baseline]"] = Path(args.baseline).resolve()
    for src in srcs.values():
        if not (src / "cfrac" / "__init__.py").is_file():
            parser.error(f"no cfrac package under {src}")
    sys.path.insert(0, str(srcs[""]))
    import cfrac.cli
    import cfrac.exact  # noqa: F401  (import cfrac need not load it)

    caps = suite_caps(cfrac.exact)  # the same rows on both sides, whatever the baseline's caps
    if args.baseline:
        base_calls = layers(load_baseline(srcs[" [baseline]"]), caps)
        times = paired_rows(layers(cfrac, caps), base_calls, args.repeat, args.number)
    else:
        times = best_rows(layers(cfrac, caps), args.repeat, args.number)
    times.update(one_shot_rows(srcs, args.repeat))
    print(json.dumps(times, indent=2))


if __name__ == "__main__":
    main()
