"""Seeded inputs, oracle values and output checks for the three workloads.

``build(workload, seed)`` returns the cases of one cycle: plain data, made
from the seed alone, with the oracle values each check needs.  ``bind``
turns cases into operations against a loaded cfrac package; it looks every
public function up at bind time, so binding after the tracer has rebound
them gives traced operations.  The benchmark repeats whole cycles.

Costs are held steady across seeds by stratifying every input dimension:
the seed moves each point inside its stratum and shuffles the order, but
every cycle has the same mix.  Cycles are kept short (about 1-4 s), so
that every worker of a run times every case more than once: the run
reports each case's fastest time, and on a shared machine that needs
samples from many moments.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import mpmath

import oracle

WORKLOADS = ("float-eval", "exact-deep", "cli")

# verdict statuses
OK, WRONG, RAISED, NOT_REJECTED = "ok", "wrong", "raised", "not_rejected"

# Fixed-depth evaluations claim no error; they are held to this relative
# distance from the exact convergent at the same binary64 x.
FIXED_TOL = 1e-12

# The CLI's default --rel-err.
CLI_TARGET = 1e-12


@dataclass(frozen=True)
class Verdict:
    status: str
    # True when a known defect explains the failure: error estimates that
    # ignore rounding and non-finite input that is not rejected (ROADMAP 4),
    # or the sec-tan tail pole (see _raise_explained).
    known: bool = False
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status != OK


PASS = Verdict(OK)


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any, BaseException | None], Verdict]
    # times the case runs per cycle
    repeat: int = 1


def _rounding_explains(err: float, kappa: float) -> bool:
    return err <= oracle.ROUNDING_SLACK * oracle.EPS * max(1.0, kappa)


def _raise_explained(case: dict, exc, errors, target: float) -> bool:
    """A DivisionNearZero/NoConvergence that a known defect accounts for.

    Either rounding at condition number kappa can keep the target out of
    reach (ROADMAP 4a, 4b), or x sits on a pole of the sec-tan fraction's
    tail, x = 2*pi*m, where cfrac divides by a vanishing denominator although
    sec + tan = 1 there (found by this benchmark; not yet in ROADMAP).
    """
    if not isinstance(exc, (errors.DivisionNearZero, errors.NoConvergence)):
        return False
    return _rounding_explains(target, case["kappa"]) or (
        isinstance(exc, errors.DivisionNearZero) and case["tail_pole"])


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n values, one uniform draw inside each of n equal slices of [lo, hi]."""
    return [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]


def _near(rng: random.Random, k: int, family: str, max_n: int) -> float:
    """binary64 nearest to s +- 2^-k, s = pi/2 + n*pi ('half') or n*pi ('whole')."""
    n = rng.randint(-max_n, max_n)
    with mpmath.workprec(256):
        s = mpmath.pi * n + (mpmath.pi / 2 if family == "half" else 0)
        return float(s + rng.choice((-1, 1)) * mpmath.mpf(2) ** -k)


# --------------------------------------------------------------------------
# float-eval

FLOAT_KINDS = (
    ("sec_tan", "sec-tan"),
    ("eval_adaptive", "sec-tan"),
    ("eval_adaptive", "xcot"),
    ("eval_lentz", "sec-tan"),
    ("eval_lentz", "xcot"),
    ("eval_forward", "sec-tan"),
    ("eval_forward", "xcot"),
    ("eval_backward", "sec-tan"),
    ("eval_backward", "xcot"),
)
TARGETED = {"sec_tan", "eval_adaptive", "eval_lentz"}
FIXED_DEPTHS = (16, 32, 64)
LENTZ_MAX_TERMS = 4096

# Points per (function, stream) pair in one cycle, by stratum: 128 points,
# 9 x 128 = 1152 cases, so the p99 over cases has 11 cases beyond it.
FLOAT_MIX = {"smooth": 64, "large": 28, "near": 35, "nonfinite": 1}


def _float_points(rng: random.Random) -> list[tuple[str, float]]:
    pts = [("smooth", x) for x in _strata(rng, FLOAT_MIX["smooth"], -1.5, 1.5)]
    pts += [
        ("large", rng.choice((-1, 1)) * m)
        for m in _strata(rng, FLOAT_MIX["large"], 2.0, 30.0)
    ]
    ks = [1 + int(u) for u in _strata(rng, FLOAT_MIX["near"], 0, 52)]
    pts += [("near", _near(rng, k, ("half", "whole")[i % 2], 3)) for i, k in enumerate(ks)]
    pts += [("nonfinite", rng.choice((math.nan, math.inf, -math.inf)))]
    return pts


def _build_float(rng: random.Random) -> list[dict]:
    cases = []
    for fn, stream in FLOAT_KINDS:
        points = _float_points(rng)
        exps = _strata(rng, len(points), 6.0, 14.0)
        rng.shuffle(exps)
        depths = [FIXED_DEPTHS[i % len(FIXED_DEPTHS)] for i in range(len(points))]
        rng.shuffle(depths)
        for (stratum, x), e, depth in zip(points, exps, depths):
            case = {"workload": "float-eval", "kind": fn, "stream": stream,
                    "stratum": stratum, "x": x}
            finite = math.isfinite(x)
            if fn in TARGETED:
                case["target"] = 10.0**-e
                if finite:
                    case["ref"], case["kappa"] = oracle.f_ref(stream, x)
                    case["tail_pole"] = oracle.tail_pole(stream, x)
            else:
                case["depth"] = depth
                if finite:
                    case["conv"] = oracle.convergents(stream, x, depth)
            cases.append(case)
    return cases


def _check_value(value: float, ref, kappa: float, tol: float) -> Verdict:
    err = oracle.rel_err(value, ref)
    if err <= tol:
        return PASS
    return Verdict(WRONG, _rounding_explains(err, kappa), f"rel err {err:.3g} > {tol:.3g}")


def _check_convergents(values, conv) -> Verdict:
    if len(values) != len(conv):
        return Verdict(WRONG, False, f"{len(values)} convergents, expected {len(conv)}")
    worst = PASS
    for n, (value, ref) in enumerate(zip(values, conv), start=1):
        if ref is None:  # exact pole of h_n: rounding kept Q_n off zero
            verdict = Verdict(WRONG, True, f"h_{n} has a pole here")
        else:
            verdict = _check_value(value, ref[0], ref[1], FIXED_TOL)
        if verdict.failed and (worst is PASS or worst.known):
            worst = Verdict(verdict.status, verdict.known, f"h_{n}: {verdict.detail}")
    return worst


def _check_float(case: dict, errors) -> Callable:
    x = case["x"]
    if not math.isfinite(x):
        def check_nonfinite(result, exc):
            if isinstance(exc, ValueError):
                return PASS
            what = type(exc).__name__ if exc else "a value"
            return Verdict(NOT_REJECTED, True, f"x={x} gave {what}")
        return check_nonfinite

    numeric = (errors.DivisionNearZero, errors.NoConvergence)
    if case["kind"] in TARGETED:
        ref, kappa, target = case["ref"], case["kappa"], case["target"]

        def check_report(result, exc):
            if exc is not None:
                return Verdict(RAISED, _raise_explained(case, exc, errors, target), repr(exc)[:120])
            return _check_value(result.value, ref, kappa, max(target, result.est_rel_err))
        return check_report

    backward = case["kind"] == "eval_backward"
    conv = case["conv"][-1:] if backward else case["conv"]

    def check_fixed(result, exc):
        if exc is not None:
            if isinstance(exc, errors.DivisionNearZero) and _has_pole(conv):
                return PASS
            known = isinstance(exc, numeric) and _rounding_explains(FIXED_TOL, _kappa_max(case["conv"]))
            return Verdict(RAISED, known, repr(exc)[:120])
        return _check_convergents([result] if backward else result, conv)
    return check_fixed


def _has_pole(conv) -> bool:
    return any(c is None for c in conv)


def _kappa_max(conv) -> float:
    return max(math.inf if c is None else c[1] for c in conv)


def _bind_float(case: dict, api) -> Op:
    kind, x = case["kind"], case["x"]
    fn = getattr(api, kind)
    if kind == "sec_tan":
        call = lambda: fn(x, case["target"])  # noqa: E731
    else:
        spec = (api.sec_tan_spec if case["stream"] == "sec-tan" else api.xcot_spec)()
        if kind == "eval_adaptive":
            call = lambda: fn(spec, x, case["target"])  # noqa: E731
        elif kind == "eval_lentz":
            call = lambda: fn(spec, x, case["target"], LENTZ_MAX_TERMS)  # noqa: E731
        else:
            call = lambda: fn(spec, x, case["depth"])  # noqa: E731
    return Op(kind, call, _check_float(case, api))


# --------------------------------------------------------------------------
# exact-deep

# Literal depths, both parities: every depth from 2 to 24, so the median
# case sits among many of similar cost, then deep pairs.  Odd sec-tan depths
# cost 3-5x their even neighbours at the seed commit.  The deep cases are
# held to 0.4 s each and 1.8 s together at the seed commit, so that a run
# times each of them ten times or more and their fastest times settle:
# sec-tan costs 0.66 s at depth 45, 1.1 s at 49 and 5 s at 61, and xcot
# 0.57 s at 37, 0.8 s at 41 and 13-18 s in the 60s.  So the 60s have the
# even sec-tan depth 60 only, and xcot stops at 33.
EXACT_DEPTHS = {
    "sec-tan": tuple(range(2, 25)) + (32, 33, 40, 41, 60),
    "xcot": tuple(range(2, 25)) + (28, 29, 32, 33),
}
# The shallow cases run twice per cycle: the median case is among them, and
# its fastest time needs more samples than the deep cases' sum does.
SHALLOW_DEPTH, SHALLOW_REPEAT = 24, 2


def _build_exact(rng: random.Random) -> list[dict]:
    cases = []
    for stream, depths in EXACT_DEPTHS.items():
        for depth in depths:
            while True:
                t = Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 20))
                try:
                    value = oracle.fold(stream, t, depth)
                except ZeroDivisionError:
                    continue
                break
            order = oracle.series_agreement(stream, depth)
            cases.append({"workload": "exact-deep", "kind": "convergent_exact",
                          "stream": stream, "depth": depth, "t": t, "value": value,
                          "series": oracle.series(stream, order)})
    rng.shuffle(cases)
    return cases


def _bind_exact(case: dict, api) -> Op:
    spec = (api.sec_tan_spec if case["stream"] == "sec-tan" else api.xcot_spec)()
    depth, order = case["depth"], len(case["series"]) - 1

    def call():
        f = api.convergent_exact(spec, depth)
        return f, api.series_from_ratfunc(f, order)

    def check(result, exc):
        if exc is not None:
            return Verdict(RAISED, False, repr(exc)[:120])
        f, coeffs = result
        if f(case["t"]) != case["value"]:
            return Verdict(WRONG, False, f"convergent differs from the fold at t={case['t']}")
        if list(coeffs) != case["series"]:
            return Verdict(WRONG, False, "series coefficients differ from the oracle")
        return PASS

    return Op(f"convergent_exact.{case['stream']}", call, check,
              SHALLOW_REPEAT if depth <= SHALLOW_DEPTH else 1)


# --------------------------------------------------------------------------
# cli

FORMATS = ("text", "csv", "json")
METHODS = ("adaptive", "backward", "forward", "lentz")
CLI_FUNCTIONS = ("sec-tan", "xcot", "cot")
X_STYLES = ("decimal", "rational", "negative")
INVALID = (
    ["eval", "sec-tan", "--x", "{malformed}"],
    ["verify", "series", "--max-level", "31"],
    ["verify", "nosuch"],
)
MALFORMED_X = ("abc", "1/0", "nan", "1..5", "0x10")
# Requests per cycle: each function x method x format x spelling eval
# "eval" times, "near" evals next to poles and zeros, "tables" rounds of
# convergents/terms (per stream and format), series (per format) and the
# invalid requests, and one `verify all`: 385 requests.
CLI_MIX = {"eval": 3, "near": 24, "tables": 2}


def _x_text(rng: random.Random, style: str, mag: float) -> str:
    if style == "rational":
        q = rng.randint(2, 64)
        return f"{max(1, round(mag * q))}/{q}"
    text = f"{mag:.{rng.randint(1, 6)}f}".rstrip("0").rstrip(".")
    if style == "negative":
        return f"-{text}" if rng.random() < 0.5 else f"-{max(1, round(mag * 8))}/8"
    return text


def _build_cli(rng: random.Random) -> list[dict]:
    cases = []
    combos = [(f, m, fmt, s) for f in CLI_FUNCTIONS for m in METHODS
              for fmt in FORMATS for s in X_STYLES] * CLI_MIX["eval"]
    mags = {f: _strata(rng, len(combos) // 3, 0.05, 1.5 if f == "sec-tan" else 3.0)
            for f in CLI_FUNCTIONS}
    for f in CLI_FUNCTIONS:
        rng.shuffle(mags[f])
    for f, method, fmt, style in combos:
        cases.append(_eval_case(f, method, fmt, _x_text(rng, style, mags[f].pop()), "smooth"))
    # near-singular points, spelled as the binary64 decimal
    near = [("cot", "adaptive", "text", repr(math.pi / 2))]  # ROADMAP 4a, verbatim
    for i, k in enumerate(int(u) for u in _strata(rng, CLI_MIX["near"] - 1, 20, 53)):
        x = _near(rng, k, ("half", "whole")[i % 2], 1)
        near.append((CLI_FUNCTIONS[i % 3], METHODS[i % 4], FORMATS[i % 3], repr(x)))
    for f, method, fmt, text in near:
        cases.append(_eval_case(f, method, fmt, text, "near"))
    for _ in range(CLI_MIX["tables"]):
        for stream in ("sec-tan", "xcot"):
            for fmt in FORMATS:
                x_text = _x_text(rng, rng.choice(X_STYLES), rng.uniform(0.05, 1.5))
                depth = rng.randint(8, 24)
                cases.append({"workload": "cli", "kind": "convergents",
                              "argv": ["convergents", stream, f"--x={x_text}", "--depth", str(depth),
                                       "--format", fmt],
                              "conv": oracle.convergents(stream, float(Fraction(x_text)), depth)})
                count = rng.randint(0, 16)
                cases.append({"workload": "cli", "kind": "terms",
                              "argv": ["terms", stream, "--count", str(count), "--format", fmt],
                              "terms": [oracle.term(stream, k) for k in range(1, count + 1)]})
        for fmt in FORMATS:
            order = rng.randint(0, 24)
            cases.append({"workload": "cli", "kind": "series",
                          "argv": ["series", "--order", str(order), "--format", fmt],
                          "series": oracle.series("sec-tan", order)})
        for argv in INVALID:
            argv = [a.format(malformed=rng.choice(MALFORMED_X)) for a in argv]
            cases.append({"workload": "cli", "kind": "invalid", "argv": argv})
    cases.append({"workload": "cli", "kind": "verify", "argv": ["verify", "all"]})
    rng.shuffle(cases)
    return cases


def _eval_case(function, method, fmt, x_text, stratum) -> dict:
    argv = ["eval", function, f"--x={x_text}", "--method", method, "--format", fmt]
    x = float(Fraction(x_text))
    ref, kappa = oracle.f_ref(function, x)
    return {"workload": "cli", "kind": "eval", "stratum": stratum, "argv": argv,
            "x": x, "ref": ref, "kappa": kappa, "tail_pole": oracle.tail_pole(function, x)}


def _rows(out: str, fmt: str) -> list[dict]:
    """Parse a table or record printed by the CLI into string-valued dicts."""
    if fmt == "json":
        data = json.loads(out)
        rows = data if isinstance(data, list) else [data]
        return [{k: str(v) for k, v in row.items()} for row in rows]
    lines = out.splitlines()
    if fmt == "csv":
        return list(csv.DictReader(lines))
    split = [re.split(r"\s{2,}", line.strip()) for line in lines if line.strip()]
    if split and all(len(parts) == 2 for parts in split) and split[0][0] == "function":
        return [dict(split)]  # an eval record prints one "key  value" line per field
    if not split:
        return []
    header, body = split[0], split[1:]
    return [dict(zip(header, parts + [""] * (len(header) - len(parts)))) for parts in body]


def _parse_term(text: str) -> tuple:
    coeffs = [0, 0, 0]
    for sign, mono in re.findall(r"([+-]?)\s*([^+\s-][^+-]*)", text.replace(" ", "")):
        mono = mono.strip()
        if "x" in mono:
            base, _, power = mono.partition("^")
            c = base[:-1].rstrip("*") or "1"
            p = int(power or 1)
        else:
            c, p = mono, 0
        coeffs[p] += (-1 if sign == "-" else 1) * Fraction(c)
    return tuple(coeffs)


def _fmt_of(argv: list[str]) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "text"


def _check_cli(case: dict) -> Callable:
    kind, argv = case["kind"], case["argv"]
    fmt = _fmt_of(argv)

    def check(result, exc):
        if exc is not None:
            return Verdict(RAISED, False, repr(exc)[:120])
        code, out, err = result
        if kind == "invalid":
            return PASS if code == 1 else Verdict(NOT_REJECTED, False, f"exit {code}")
        if code == 2 and kind == "convergents" and _has_pole(case["conv"]):
            return PASS
        if code == 2 and kind == "eval":
            known = _rounding_explains(CLI_TARGET, case["kappa"]) or case["tail_pole"]
            return Verdict(RAISED, known, err.strip()[:120])
        if code == 2 and kind == "convergents":
            known = _rounding_explains(CLI_TARGET, _kappa_max(case["conv"]))
            return Verdict(RAISED, known, err.strip()[:120])
        if code != 0:
            return Verdict(RAISED, False, f"exit {code}: {err.strip()[:120]}")
        try:
            rows = _rows(out, fmt)
            return _check_rows(case, rows)
        except (ValueError, KeyError, IndexError, TypeError) as parse_error:
            return Verdict(WRONG, False, f"unparsable output: {parse_error!r}"[:120])
    return check


def _check_rows(case: dict, rows: list[dict]) -> Verdict:
    kind = case["kind"]
    if kind == "eval":
        (record,) = rows
        if float(record["x"]) != case["x"]:
            return Verdict(WRONG, False, f"x echoed as {record['x']}")
        tol = max(CLI_TARGET, float(record["est_rel_err"]))
        return _check_value(float(record["value"]), case["ref"], case["kappa"], tol)
    if kind == "convergents":
        return _check_convergents([float(r["value"]) for r in rows], case["conv"])
    if kind == "terms":
        got = [(_parse_term(r["a"]), _parse_term(r["b"])) for r in rows]
        return PASS if got == case["terms"] else Verdict(WRONG, False, "term stream differs")
    if kind == "series":
        ok = len(rows) == len(case["series"]) and all(
            int(r["n"]) == n and Fraction(r["coefficient"]) == c
            and Fraction(int(r["zigzag"]), math.factorial(n)) == c
            for n, (r, c) in enumerate(zip(rows, case["series"]))
        )
        return PASS if ok else Verdict(WRONG, False, "series differs from zigzag(n)/n!")
    if kind == "verify":
        ok = [r["suite"] for r in rows] == ["pairing", "offset", "halving", "flatten", "series"]
        ok = ok and all(r["passed"] in ("pass", "True") for r in rows)
        return PASS if ok else Verdict(WRONG, False, "verify all did not pass every suite")
    raise ValueError(f"unknown cli case kind {kind!r}")


def _run_cli(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _bind_cli(case: dict, api) -> Op:
    cli, argv = api.cli, case["argv"]
    return Op(f"cli.{case['kind']}", lambda: _run_cli(cli.main, argv), _check_cli(case))


# --------------------------------------------------------------------------
# reference

# Every cycle also runs REFERENCE_CASES cases that call no cfrac code, at
# seeded places among the workload's, timed the same way.  On a shared
# machine the speed of a whole run moves with other tenants' load for
# minutes at a time, and by different amounts for different kinds of code
# (argparse-heavy code slows down about twice as much as arithmetic), so
# each workload's reference does the same kind of work as the workload:
#   float-eval: a float backward fold whose terms are Fraction-coefficient
#     quadratics evaluated at a float x, as cfrac's float evaluators do;
#   exact-deep: the oracle's exact Fraction fold and integer convergent
#     recurrence at a rational point, at depths 96-152, so that a reference
#     case takes several milliseconds like the workload's median case (the
#     fastest time of a short call finds brief quiet moments that a long
#     one cannot);
#   cli: an argparse request, the oracle's convergents and fold, rendered
#     to text.
# run.py reports timings scaled by how fast the reference ran (run.Stats).
REFERENCE = "reference"
REFERENCE_CASES = 40


def _reference_float(stream: str, x: float, depth: int) -> float:
    terms = [tuple(tuple(Fraction(c) for c in poly) for poly in oracle.term(stream, n))
             for n in range(1, depth + 1)]

    def at(c):
        return (c[2] * x + c[1]) * x + c[0]

    r = float(at(terms[-1][1]))
    for n in range(depth, 1, -1):
        r = float(at(terms[n - 2][1])) + float(at(terms[n - 1][0])) / r
    return 1 + float(at(terms[0][0])) / r


def _reference_exact(stream: str, t: Fraction, depth: int) -> tuple:
    return oracle.fold(stream, t, depth), oracle.convergents(stream, t, depth)


def _reference_cli(stream: str, x_text: str, depth: int) -> str:
    parser = argparse.ArgumentParser(prog="reference")
    parser.add_argument("stream")
    parser.add_argument("--x", type=Fraction)
    parser.add_argument("--depth", type=int)
    args = parser.parse_args([stream, f"--x={x_text}", "--depth", str(depth)])
    out = io.StringIO()
    for conv in oracle.convergents(args.stream, args.x, args.depth):
        print("pole" if conv is None else f"{conv[0][0]:.17g} {conv[1]:.6g}", file=out)
    print(oracle.fold(args.stream, args.x, args.depth), file=out)
    return out.getvalue()


_REFERENCES = {"float-eval": _reference_float, "exact-deep": _reference_exact,
               "cli": _reference_cli}


def _reference_args(workload: str, k: int, rng: random.Random) -> tuple:
    stream = ("sec-tan", "xcot")[k % 2]
    if workload == "float-eval":
        return stream, rng.uniform(-1.5, 1.5), FIXED_DEPTHS[k % len(FIXED_DEPTHS)]
    q = rng.randint(2, 64) if workload == "cli" else rng.randint(41, 97)
    p = rng.choice((-1, 1)) * rng.randint(1, 3 * q if workload == "cli" else 40)
    if workload == "cli":
        return stream, f"{p}/{q}", 8 + k % 5
    return stream, Fraction(p, q), 96 + 8 * (k % 8)


def _reference_cases(workload: str, rng: random.Random) -> list[dict]:
    cases = []
    for k in range(REFERENCE_CASES):
        while True:
            args = _reference_args(workload, k, rng)
            try:
                out = _REFERENCES[workload](*args)
            except ZeroDivisionError:  # a pole of the convergent
                continue
            break
        cases.append({"workload": REFERENCE, "kind": REFERENCE, "of": workload,
                      "args": args, "out": out})
    return cases


def _bind_reference(case: dict, api) -> Op:
    fn, args = _REFERENCES[case["of"]], case["args"]

    def check(result, exc):
        return PASS if exc is None and result == case["out"] else Verdict(WRONG)

    return Op(REFERENCE, lambda: fn(*args), check)


# --------------------------------------------------------------------------

_BUILDERS = {"float-eval": _build_float, "exact-deep": _build_exact, "cli": _build_cli}
_BINDERS = {"float-eval": _bind_float, "exact-deep": _bind_exact, "cli": _bind_cli,
            REFERENCE: _bind_reference}


def build(workload: str, seed: int) -> list[dict]:
    """The cases of one cycle of ``workload``, made from ``seed`` alone,
    with the reference cases at seeded places among them."""
    rng = random.Random(f"{workload}:{seed}")
    cases = _BUILDERS[workload](rng)
    for case in _reference_cases(workload, rng):
        cases.insert(rng.randrange(len(cases) + 1), case)
    return cases


def bind(cases: list[dict], api) -> list[Op]:
    """Operations calling the public functions ``api`` (the cfrac package) has now."""
    return [_BINDERS[case["workload"]](case, api) for case in cases]
