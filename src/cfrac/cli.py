"""Command-line front end.

Subcommands: eval (single value), convergents (table of successive
convergents), series (exact Taylor coefficients), verify (exact identity
suites, each decided rather than sampled), terms (term-stream inspection),
study (error vs depth).  Output in text, CSV, or JSON.  Each subcommand's
options are written once, in its function of ``_COMMANDS``.  A request
builds the argparse parser and option table of the subcommand it names
alone, at that subcommand's first request, from the stream names of
``_SPECS`` and the suites of ``exact.SUITES`` (order, default levels, checks
and units) as they are then; later ``main`` calls reuse them (``_command``).
The exact layer, ``json`` and ``csv`` are imported by the requests that use
them, so a one-shot ``cfrac eval`` in text loads none of them.

A request that names a subcommand first is parsed by that subcommand's
option table in one pass (``_parse``): exact ``--opt value`` and
``--opt=value`` options and in-order positionals, each value through its
action's type and choices, the defaults filled as argparse fills them.
The table declines anything else to argparse, which stays the reference:
help, an abbreviated option, ``--``, a separate value starting with
``-`` (so ``--x=-1/8``, not ``--x -1/8``, is a plain request), an extra or
missing positional or required option, and any invalid value, the empty
one included.  A declined request is parsed by the subcommand's parser
alone, so help and every error message are argparse's.  The top-level
parser, which holds the same subcommand parsers, is built only to handle
an empty argv, ``-h``, an unknown command, an option before the command,
and to word the "unrecognized arguments" error.  Handlers are looked up by name on every
call, so a patched ``_cmd_*`` function runs.

``--x`` is read to the float every handler evaluates at,
``float(Fraction(text))``: a plain ASCII decimal by ``float(text)`` and a
plain ASCII ``p/q`` by ``int(p) / int(q)``, each correctly rounded as
``Fraction`` is, and any other text, or a quick result of zero or inf,
through ``Fraction``, which refuses a value that overflows or underflows and,
before it builds the power of ten, a decimal exponent beyond 5000.  Depth
flags (``eval --depth``, ``convergents --depth``, ``study --max-depth``)
and ``terms --count`` stop at ``DEFAULT_MAX_DEPTH``.  Each response is
written at once: one ``print``, or one ``writerows`` in csv.  An eval value
or error estimate, or a convergent, that is nan or infinite is a numeric
failure.

Exit codes: 0 success, 1 usage error or a stdout closed early, 2 numeric
failure (no convergence or a denominator underflow), 3 verification failure.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import sys
from fractions import Fraction
from functools import cache
from gettext import gettext as _
from math import factorial, inf, isfinite

from .core import (
    DEFAULT_MAX_DEPTH,
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
MAX_SERIES_ORDER = 1000  # 4.5 MB of text; at order 1600 a coefficient passes int's 4300-digit str limit

_SPECS = {"sec-tan": sec_tan_spec, "xcot": xcot_spec}
_PACKAGE = sys.modules[__package__]  # its exact attribute imports cfrac.exact at first use
# No finite nonzero float needs a larger decimal exponent: int() caps the
# mantissa at 4300 digits, so beyond this the text over- or underflows, and
# Fraction would first build 10**exponent.
_MAX_EXPONENT = 5000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
# the shapes Fraction reads alike on every Python: ASCII digits, no space or _, q > 0
_PLAIN_X = re.compile(r"[-+]?(?:\d+/\d*[1-9]\d*|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)", re.ASCII)


class UsageError(Exception):
    """Raised in place of argparse's sys.exit so main() can return 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        usages = self.__dict__.setdefault("_usages", {})  # the usage line per terminal width,
        width = shutil.get_terminal_size().columns  # which argparse reads to wrap it
        if width not in usages:
            usages[width] = self.format_usage()
        raise UsageError(f"{usages[width]}{self.prog}: error: {message}")


def _fraction_arg(text: str) -> float:
    if len(text) < 50 and _PLAIN_X.fullmatch(text):  # short: no int digit limit, int / int in range
        p, slash, q = text.partition("/")
        value = int(p) / int(q) if slash else float(text)
        if 0 < abs(value) < inf:  # Fraction reads a zero, and refuses an overflow or underflow
            return value
    try:
        exponent = _EXPONENT.search(text)
        if exponent and abs(int(exponent[1])) > _MAX_EXPONENT:
            raise ValueError(f"decimal exponent beyond {_MAX_EXPONENT}")
        fraction = Fraction(text)
        value = float(fraction)
        if value == 0 != fraction:  # every command evaluates at float(x): no overflow or underflow
            raise ValueError("underflows to 0.0")
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"not a p/q or decimal in float range: {text!r}") from exc
    return value


def _int_at_least(low: int, high: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return parse


# depth flags and --count stop at eval_adaptive's depth cap; --order before any triangle
_depth_arg, _nonneg_int = _int_at_least(1, DEFAULT_MAX_DEPTH), _int_at_least(0)
_order_arg, _count_arg = _int_at_least(0, MAX_SERIES_ORDER), _int_at_least(0, DEFAULT_MAX_DEPTH)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


_CELLS = {bool: lambda value: "pass" if value else "fail", float: float.__repr__}


def _render_cell(value) -> str:
    return _CELLS.get(type(value), str)(value)


def _emit_record(record: dict, fmt: str) -> None:
    if fmt == "json":
        import json
        print(json.dumps(record))
    elif fmt == "csv":
        _emit_table([record], list(record), fmt)
    else:
        width = max(map(len, record))
        print("\n".join(f"{key.ljust(width)}  {_render_cell(value)}" for key, value in record.items()))


def _emit_table(rows: list[dict], fields: list[str], fmt: str) -> None:
    if fmt == "json":
        import json
        print(json.dumps(rows, indent=2))
        return
    lines = [fields, *([_render_cell(row[f]) for f in fields] for row in rows)]
    if fmt == "csv":
        import csv
        csv.writer(sys.stdout, lineterminator="\n").writerows(lines)
    else:
        widths = [max(map(len, column)) for column in zip(*lines)]
        print("\n".join("  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip() for line in lines))


def _evaluate(spec: CfSpec, x: float, args) -> EvalReport:
    if args.method == "adaptive":
        return eval_adaptive(spec, x, args.rel_err)
    if args.method == "lentz":
        return eval_lentz(spec, x, args.rel_err, args.depth or DEFAULT_MAX_DEPTH)
    # fixed-depth methods still estimate the error against depth - 1
    depth = args.depth or DEFAULT_FIXED_DEPTH
    if args.method == "backward":
        value = eval_backward(spec, x, depth)
        previous = _fold(spec, x, 0, depth - 1)  # the depth-0 fold is b0(x)
    else:
        convergents = eval_forward(spec, x, depth)
        value = convergents[-1]
        previous = convergents[-2] if depth > 1 else _fold(spec, x, 0, 0)
    return EvalReport(value, depth, relative_difference(value, previous), args.method)


def _cmd_eval(args) -> int:
    x = args.x
    cot = args.function == "cot"
    if cot and abs(x) < POLE_THRESHOLD:
        raise DivisionNearZero(f"cot(x) is xcot(x)/x and needs |x| >= {POLE_THRESHOLD!r}; got x = {x!r}")
    report = _evaluate(_SPECS["xcot" if cot else args.function](), x, args)
    value, est_rel_err = report.value / x if cot else report.value, report.est_rel_err
    if not (isfinite(value) and isfinite(est_rel_err)):
        raise NoConvergence(f"{report.method} at depth {report.depth} gave value {value!r}, "
                            f"est_rel_err {est_rel_err!r} (x={x!r})")
    record = {
        "function": args.function,
        "x": x,
        "value": value,
        "depth": report.depth,
        "est_rel_err": est_rel_err,
        "method": report.method,
    }
    _emit_record(record, args.format)
    return 0


def _cmd_convergents(args) -> int:
    x = args.x
    spec = _SPECS[args.function]()
    previous = _fold(spec, x, 0, 0)  # b0(x)
    rows = []
    for n, value in enumerate(eval_forward(spec, x, args.depth), start=1):
        if not isfinite(value):
            raise NoConvergence(f"convergent {n} is {value!r} (x={x!r})")
        rows.append({"n": n, "value": value, "delta": abs(value - previous)})
        previous = value
    _emit_table(rows, ["n", "value", "delta"], args.format)
    return 0


def _cmd_series(args) -> int:
    rows = [
        {"n": n, "zigzag": z, "coefficient": str(Fraction(z, factorial(n)))}
        for n, z in enumerate(_PACKAGE.exact._zigzags(args.order))  # one triangle for every row
    ]
    _emit_table(rows, ["n", "zigzag", "coefficient"], args.format)
    return 0


def _cmd_verify(args) -> int:
    exact = _PACKAGE.exact
    suites = exact.SUITES
    names = list(suites) if args.suite == "all" else [args.suite]
    top = args.max_level
    levels = {name: suites[name].default_level if top is None else top for name in names}
    for name, level in levels.items():  # reject a level before any suite runs
        exact.check_level(name, level)
    rows = [{"suite": name, "passed": suites[name].check(level),
             "checked": f"{suites[name].unit} 0..{level}"} for name, level in levels.items()]
    _emit_table(rows, ["suite", "passed", "checked"], args.format)
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
    x = args.x
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
    p.add_argument("--format", choices=["text", "csv", "json"], default="text",
                   help="output format (default: text)")


def _add_x_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x", type=_fraction_arg, required=True,
                   help="evaluation point, decimal or rational p/q")


def _eval_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("function", choices=[*_SPECS, "cot"])
    _add_x_flag(p)
    p.add_argument(
        "--method",
        choices=["backward", "forward", "lentz", "adaptive"],
        default="adaptive",
        help="evaluation strategy (default: adaptive backward deepening)",
    )
    p.add_argument(
        "--depth",
        type=_depth_arg,
        help=f"truncation depth for backward/forward (default {DEFAULT_FIXED_DEPTH}); "
        f"iteration cap for lentz (default {DEFAULT_MAX_DEPTH}); at most {DEFAULT_MAX_DEPTH}",
    )
    p.add_argument(
        "--rel-err",
        dest="rel_err",
        type=_positive_float,
        default=DEFAULT_REL_ERR,
        help=f"target relative error for adaptive/lentz (default {DEFAULT_REL_ERR})",
    )
    _add_format_flag(p)


def _convergents_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("function", choices=tuple(_SPECS))
    _add_x_flag(p)
    p.add_argument(
        "--depth",
        type=_depth_arg,
        default=16,
        help=f"number of convergents (default 16, at most {DEFAULT_MAX_DEPTH})",
    )
    _add_format_flag(p)


def _series_options(p: argparse.ArgumentParser) -> None:
    order_help = f"highest order to print (default 12, at most {MAX_SERIES_ORDER})"
    p.add_argument("--order", type=_order_arg, default=12, help=order_help)
    _add_format_flag(p)


def _verify_options(p: argparse.ArgumentParser) -> None:
    suites = _PACKAGE.exact.SUITES
    p.add_argument("suite", choices=[*suites, "all"])
    defaults = ", ".join(f"{name} {suite.default_level}" for name, suite in suites.items())
    p.add_argument(
        "--max-level",
        dest="max_level",
        type=_nonneg_int,
        help=f"highest recursion index / series order to check (defaults: {defaults})",
    )
    _add_format_flag(p)


def _terms_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("function", choices=tuple(_SPECS))
    p.add_argument("--count", type=_count_arg, default=8,
                   help=f"how many terms (default 8, at most {DEFAULT_MAX_DEPTH})")
    _add_format_flag(p)


def _study_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("function", choices=tuple(_SPECS))
    _add_x_flag(p)
    p.add_argument(
        "--max-depth",
        dest="max_depth",
        type=_depth_arg,
        default=64,
        help=f"largest truncation depth (default 64, at most {DEFAULT_MAX_DEPTH})",
    )
    _add_format_flag(p)


# subcommand -> (its line in the top-level help, the function adding its options)
_COMMANDS = {
    "eval": ("evaluate a function at a point", _eval_options),
    "convergents": ("table of successive convergents", _convergents_options),
    "series": ("exact Taylor coefficients of sec(x)+tan(x)", _series_options),
    "verify": ("run the exact identity-verification suites", _verify_options),
    "terms": ("inspect a term stream", _terms_options),
    "study": ("error vs depth at doubling depths", _study_options),
}


@cache
def _command(name: str) -> _Parser:
    """The parser of subcommand ``name``, with its option table, built at its first request."""
    _, options = _COMMANDS[name]
    parser = _Parser(prog=f"cfrac {name}")  # the prog argparse gives the top-level parser's one
    options(parser)
    parser.table = _OptionTable(parser)
    return parser


@cache
def _build_parser() -> _Parser:
    """The top-level parser, over the subcommands' own parsers, built only for help and errors."""
    parser = _Parser(
        prog="cfrac",
        description=(
            "Continued-fraction evaluation of sec(x)+tan(x) and x*cot(x), "
            "with an exact rational layer that verifies the identities "
            "behind the expansions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _) in _COMMANDS.items():
        sub.add_parser(name, help=summary)  # lists the subcommand in the help
        sub.choices[name] = _command(name)  # and parses with the parser a request would use
    return parser


class _OptionTable:
    """A subcommand's single-value actions, enough to parse a plain request without argparse.

    ``options`` maps the option strings of each single-value store action
    to it, ``positionals`` lists the positional actions in order,
    ``defaults`` maps the dest of each action with a default to it, as
    argparse fills them, and ``required`` holds the dests a request must
    give.  Any other option (here only ``-h``) is unknown to the table.
    """

    def __init__(self, parser: argparse.ArgumentParser):
        """The table of ``parser``, whose positionals each take one value."""
        actions, suppress = parser._actions, argparse.SUPPRESS
        single = [a for a in actions if type(a) is argparse._StoreAction and a.nargs is None]
        self.options = {option: action for action in single for option in action.option_strings}
        self.positionals = tuple(a for a in actions if not a.option_strings)
        self.defaults = {a.dest: a.default for a in actions
                         if a.dest is not suppress and a.default is not suppress}
        self.required = frozenset(a.dest for a in actions if a.required)

    def parse(self, tokens: list[str]) -> argparse.Namespace | None:
        """``tokens`` parsed as the subcommand's parser would, or None to leave them to it.

        Takes exact ``--opt value`` and ``--opt=value`` options and the
        positionals in order, runs each value through its action's type
        and choices, and fills the defaults of unseen actions.  Anything
        else (help, an abbreviation, ``--``, a separate value starting with
        ``-``, an extra or missing positional, a missing required option, a
        type or choices failure, which is also how an empty value fails
        here) gives None, so argparse prints the help or the error.
        """
        seen = {}
        positionals = iter(self.positionals)
        tokens = iter(tokens)
        try:
            for token in tokens:
                if token[:1] == "-":
                    option, equals, text = token.partition("=")
                    action = self.options[option]
                    if not equals:
                        text = next(tokens)
                        if text[:1] == "-":  # argparse decides whether it is an option
                            return None
                else:
                    action, text = next(positionals), token
                value = text if action.type is None else action.type(text)
                if action.choices is not None and value not in action.choices:
                    return None
                seen[action.dest] = value
        except (KeyError, StopIteration, argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if not seen.keys() >= self.required:
            return None
        args = argparse.Namespace()
        vars(args).update(self.defaults, **seen)  # filled directly: Namespace(**values) costs a setattr each
        return args


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """``argv`` (``sys.argv[1:]`` if None) parsed as the top-level parser would parse it.

    When ``argv[0]`` names a subcommand, its option table parses
    ``argv[1:]`` in one pass (``_OptionTable.parse``); a request the table
    declines goes to that subcommand's parser, whose leftovers are refused
    in ``parse_args``'s own words.  Any other argv, which can only print
    help or fail, goes to the top level.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in _COMMANDS:
        return _build_parser().parse_args(argv)
    command = _command(argv[0])
    args = command.table.parse(argv[1:])
    if args is None:
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            _build_parser().error(_("unrecognized arguments: %s") % " ".join(extras))
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(argv)
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
    except BrokenPipeError:  # stdout closed early, as by `| head`: exit 1 without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit's flush goes nowhere
        return 1


if __name__ == "__main__":
    sys.exit(main())
