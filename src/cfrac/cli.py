"""Command-line front end.

Subcommands: eval (single value), convergents (table of successive
convergents), series (exact Taylor coefficients), verify (exact identity
suites, each decided rather than sampled), terms (term-stream inspection),
study (error vs depth).  Output in text, CSV, or JSON.  The stream names
come from ``_SPECS``; the verify suites, their order, default levels and
checks from ``exact.SUITES``.  The argparse parser is built once per set of
stream names and suite levels and reused by every later ``main`` call in
the same process; only a process that calls ``main`` more than once (a
program or benchmark driving the CLI in a loop) gains from this, while a
one-shot ``cfrac`` run still builds its one parser.  Handlers are looked up
by name on every call, so a patched ``_cmd_*`` function runs.

Exit codes: 0 success, 1 usage error, 2 numeric failure (no convergence or
a denominator underflow), 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from fractions import Fraction
from math import factorial

from . import exact
from .core import (
    POLE_THRESHOLD,
    CfSpec,
    DivisionNearZero,
    EvalReport,
    NoConvergence,
    _fold,
    eval_adaptive,
    eval_backward,
    eval_forward,
    eval_lentz,
    relative_difference,
)
from .expansions import sec_tan_spec, xcot_spec

DEFAULT_REL_ERR = 1e-12
DEFAULT_FIXED_DEPTH = 32
DEFAULT_MAX_TERMS = 4096

_SPECS = {"sec-tan": sec_tan_spec, "xcot": xcot_spec}


class UsageError(Exception):
    """Raised in place of argparse's sys.exit so main() can return 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _fraction_arg(text: str) -> Fraction:
    try:
        value = Fraction(text)
        float(value)  # every command evaluates at float(x)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"not a p/q or decimal in float range: {text!r}") from exc
    return value


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_positive_int, _nonneg_int = _int_at_least(1), _int_at_least(0)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _render_cell(value) -> str:
    if isinstance(value, bool):
        return "pass" if value else "fail"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_record(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(record))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(list(record))
        writer.writerow([_render_cell(v) for v in record.values()])
    else:
        width = max(len(key) for key in record)
        for key, value in record.items():
            print(f"{key.ljust(width)}  {_render_cell(value)}")


def _emit_table(rows: list[dict], fields: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(rows, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_render_cell(row[f]) for f in fields])
    else:
        cells = [[_render_cell(row[f]) for f in fields] for row in rows]
        widths = [
            max([len(f)] + [len(row[i]) for row in cells]) for i, f in enumerate(fields)
        ]
        print("  ".join(f.ljust(w) for f, w in zip(fields, widths)).rstrip())
        for row in cells:
            print("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())


def _evaluate(spec: CfSpec, x: float, args) -> EvalReport:
    if args.method == "adaptive":
        return eval_adaptive(spec, x, args.rel_err)
    if args.method == "lentz":
        return eval_lentz(spec, x, args.rel_err, args.depth or DEFAULT_MAX_TERMS)
    # fixed-depth methods still estimate the error against depth - 1
    depth = args.depth or DEFAULT_FIXED_DEPTH
    if args.method == "backward":
        value = eval_backward(spec, x, depth)
        previous = _fold(spec, x, 0, depth - 1)  # the depth-0 fold is b0(x)
    else:
        convergents = eval_forward(spec, x, depth)
        value = convergents[-1]
        previous = convergents[-2] if depth > 1 else _fold(spec, x, 0, 0)
    return EvalReport(
        value=value,
        depth=depth,
        est_rel_err=relative_difference(value, previous),
        method=args.method,
    )


def _cmd_eval(args) -> int:
    x = float(args.x)
    cot = args.function == "cot"
    if cot and abs(x) < POLE_THRESHOLD:
        raise DivisionNearZero(f"cot(x) is xcot(x)/x and needs x != 0; got x = {args.x}")
    report = _evaluate(_SPECS["xcot" if cot else args.function](), x, args)
    record = {
        "function": args.function,
        "x": x,
        "value": report.value / x if cot else report.value,
        "depth": report.depth,
        "est_rel_err": report.est_rel_err,
        "method": report.method,
    }
    _emit_record(record, args.format)
    return 0


def _cmd_convergents(args) -> int:
    x = float(args.x)
    spec = _SPECS[args.function]()
    previous = _fold(spec, x, 0, 0)  # b0(x)
    rows = []
    for n, value in enumerate(eval_forward(spec, x, args.depth), start=1):
        rows.append({"n": n, "value": value, "delta": abs(value - previous)})
        previous = value
    _emit_table(rows, ["n", "value", "delta"], args.format)
    return 0


def _cmd_series(args) -> int:
    rows = []
    for n in range(args.order + 1):
        z = exact.zigzag(n)
        rows.append({"n": n, "zigzag": z, "coefficient": str(Fraction(z, factorial(n)))})
    _emit_table(rows, ["n", "zigzag", "coefficient"], args.format)
    return 0


def _cmd_verify(args) -> int:
    suites = exact.SUITES
    names = list(suites) if args.suite == "all" else [args.suite]
    top = args.max_level
    levels = {name: suites[name].default_level if top is None else top for name in names}
    for name, level in levels.items():  # reject a level before any suite runs
        exact.check_level(name, level)
    rows = [{"suite": name, "passed": suites[name].check(level)} for name, level in levels.items()]
    _emit_table(rows, ["suite", "passed"], args.format)
    return 0 if all(row["passed"] for row in rows) else 3


def _cmd_terms(args) -> int:
    spec = _SPECS[args.function]()
    rows = []
    for k in range(1, args.count + 1):
        pair = spec.termgen(k)
        rows.append({"k": k, "a": str(pair.a), "b": str(pair.b)})
    _emit_table(rows, ["k", "a", "b"], args.format)
    return 0


def _cmd_study(args) -> int:
    x = float(args.x)
    spec = _SPECS[args.function]()
    reference = eval_adaptive(spec, x, 1e-14).value
    rows = []
    depth = 1
    while depth <= args.max_depth:
        value = eval_backward(spec, x, depth)
        rows.append({"depth": depth, "value": value, "abs_err": abs(value - reference)})
        depth *= 2
    _emit_table(rows, ["depth", "value", "abs_err"], args.format)
    return 0


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=["text", "csv", "json"],
        default="text",
        help="output format (default: text)",
    )


def _add_x_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--x",
        type=_fraction_arg,
        required=True,
        help="evaluation point, decimal or rational p/q",
    )


def _build_parser() -> _Parser:
    """The parser for the current stream names and suite levels, built once per set of them."""
    levels = tuple((name, suite.default_level) for name, suite in exact.SUITES.items())
    return _parser_for(tuple(_SPECS), levels)


@functools.lru_cache(maxsize=4)  # a new key only when _SPECS or a suite level changes
def _parser_for(streams: tuple[str, ...], levels: tuple[tuple[str, int], ...]) -> _Parser:
    parser = _Parser(
        prog="cfrac",
        description=(
            "Continued-fraction evaluation of sec(x)+tan(x) and x*cot(x), "
            "with an exact rational layer that verifies the identities "
            "behind the expansions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a function at a point")
    p.add_argument("function", choices=[*streams, "cot"])
    _add_x_flag(p)
    p.add_argument(
        "--method",
        choices=["backward", "forward", "lentz", "adaptive"],
        default="adaptive",
        help="evaluation strategy (default: adaptive backward deepening)",
    )
    p.add_argument(
        "--depth",
        type=_positive_int,
        help=f"truncation depth for backward/forward (default {DEFAULT_FIXED_DEPTH}); "
        f"iteration cap for lentz (default {DEFAULT_MAX_TERMS})",
    )
    p.add_argument(
        "--rel-err",
        dest="rel_err",
        type=_positive_float,
        default=DEFAULT_REL_ERR,
        help="target relative error for adaptive/lentz (default 1e-12)",
    )
    _add_format_flag(p)

    p = sub.add_parser("convergents", help="table of successive convergents")
    p.add_argument("function", choices=streams)
    _add_x_flag(p)
    p.add_argument("--depth", type=_positive_int, default=16, help="number of convergents (default 16)")
    _add_format_flag(p)

    p = sub.add_parser("series", help="exact Taylor coefficients of sec(x)+tan(x)")
    p.add_argument("--order", type=_nonneg_int, default=12, help="highest order to print (default 12)")
    _add_format_flag(p)

    p = sub.add_parser("verify", help="run the exact identity-verification suites")
    p.add_argument("suite", choices=[*dict(levels), "all"])
    defaults = ", ".join(f"{name} {level}" for name, level in levels)
    p.add_argument(
        "--max-level",
        dest="max_level",
        type=_nonneg_int,
        help=f"highest recursion index / series order to check (defaults: {defaults})",
    )
    _add_format_flag(p)

    p = sub.add_parser("terms", help="inspect a term stream")
    p.add_argument("function", choices=streams)
    p.add_argument("--count", type=_nonneg_int, default=8, help="how many terms (default 8)")
    _add_format_flag(p)

    p = sub.add_parser("study", help="error vs depth at doubling depths")
    p.add_argument("function", choices=streams)
    _add_x_flag(p)
    p.add_argument(
        "--max-depth",
        dest="max_depth",
        type=_positive_int,
        default=64,
        help="largest truncation depth (default 64)",
    )
    _add_format_flag(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as err:
        print(err, file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse exits directly for --help
        return int(exc.code or 0)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except (DivisionNearZero, NoConvergence) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
