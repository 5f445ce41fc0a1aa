"""The two concrete continued fractions this package is about.

``xcot_spec`` is the classical fraction for x*cot(x),

    x*cot(x) = 1 - x^2/(3 - x^2/(5 - x^2/(7 - ...))),

and ``sec_tan_spec`` is a single-stream fraction for sec(x) + tan(x),

    sec(x) + tan(x) = 1 + x/(1 - x/(2 - x/(3 + x/(2 + x/(5 - x/(2 - ...)))))),

whose terms repeat in blocks of four: numerators +x, -x, -x, +x and
denominators (odd index) 1, 3, 5, ..., (even index) 2.

The fraction for sec + tan arises by grouping the x*cot(x) fraction two
terms at a time into a recursion over values here called "paired" values,
shifting those by -x ("offset" values), and halving the argument ("halved"
values):

    paired_k(x) = 4k+1 - x^2/(4k+3 - x^2/paired_{k+1}(x)),   x*cot(x) = paired_0(x)
    offset_k(x) = paired_k(x) - x
                = 4k+1 - x/(1 - x/(4k+3 + x/(1 + x/offset_{k+1}(x))))
    halved_k(x) = offset_k(x/2)
                = 4k+1 - x/(2 - x/(4k+3 + x/(2 + x/halved_{k+1}(x))))

    sec(x) + tan(x) = 1 + x/halved_0(x)

This module provides direct nested evaluators for all three recursions
(each step of the chain is verified in exact arithmetic by the ``exact``
module) and the headline adaptive evaluator ``sec_tan``.
"""

from __future__ import annotations

from .core import (
    POLE_THRESHOLD,
    DEFAULT_MAX_DEPTH,
    CfSpec,
    DivisionNearZero,
    EvalReport,
    NoConvergence,
    TermPair,
    finite_float,
    poly,
    relative_difference,
)

_MINUS_X_SQ = poly(c2=-1)
_PLUS_X = poly(c1=1)
_MINUS_X = poly(c1=-1)
_TWO = poly(2)


def xcot_spec() -> CfSpec:
    """The fraction 1 - x^2/(3 - x^2/(5 - ...)) whose value is x*cot(x)."""

    def gen(k: int) -> TermPair:
        return TermPair(a=_MINUS_X_SQ, b=poly(2 * k + 1))

    return CfSpec(name="xcot", leading=poly(1), termgen=gen)


def sec_tan_spec() -> CfSpec:
    """The flattened single-stream fraction whose value is sec(x) + tan(x).

    b0 = 1 and, for k >= 1: b_k = k when k is odd, b_k = 2 when k is even;
    a_k = +x when k mod 4 is 0 or 1, and -x when k mod 4 is 2 or 3.
    """

    def gen(k: int) -> TermPair:
        a = _PLUS_X if k % 4 in (0, 1) else _MINUS_X
        return TermPair(a=a, b=poly(k) if k % 2 else _TWO)

    return CfSpec(name="sec-tan", leading=poly(1), termgen=gen)


def _div(num: float, den: float, what: str) -> float:
    if abs(den) < POLE_THRESHOLD:
        raise DivisionNearZero(f"denominator underflow in {what}")
    return num / den


def paired_value(k: int, x: float, pairs: int, tail: float | None = None) -> float:
    """Nested evaluation of paired_k(x), approximating x*cot(x) at k = 0.

    Unrolls paired_j = 4j+1 - x^2/(4j+3 - x^2/paired_{j+1}) from j = k
    through k + pairs.  The innermost paired_{k+pairs+1} is replaced by
    ``tail`` when one is supplied; otherwise the whole x^2/paired term is
    dropped (plain truncation).

    Raises DivisionNearZero if an intermediate denominator underflows.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if pairs < 0:
        raise ValueError(f"pairs must be >= 0, got {pairs}")
    x = finite_float(x)
    xx = x * x
    bottom = k + pairs
    where = f"paired_value(k={k}, x={x!r})"
    if tail is None:
        value = (4 * bottom + 1) - _div(xx, 4 * bottom + 3, where)
    else:
        value = (4 * bottom + 1) - _div(xx, (4 * bottom + 3) - _div(xx, tail, where), where)
    for j in range(bottom - 1, k - 1, -1):
        value = (4 * j + 1) - _div(xx, (4 * j + 3) - _div(xx, value, where), where)
    return value


def _offset_step(j: int, x: float, inner: float, where: str) -> float:
    # one level of: 4j+1 - x/(1 - x/(4j+3 + x/inner)), inner = 1 + x/offset_{j+1}
    mid = (4 * j + 3) + _div(x, inner, where)
    return (4 * j + 1) - _div(x, 1.0 - _div(x, mid, where), where)


def offset_value(k: int, x: float, levels: int, tail: float | None = None) -> float:
    """Nested evaluation of offset_k(x) = paired_k(x) - x.

    Unrolls offset_j = 4j+1 - x/(1 - x/(4j+3 + x/(1 + x/offset_{j+1})))
    from j = k through k + levels.  The innermost offset_{k+levels+1} is
    replaced by ``tail`` when one is supplied; otherwise the innermost
    x/offset term is dropped.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    x = finite_float(x)
    bottom = k + levels
    where = f"offset_value(k={k}, x={x!r})"
    inner = 1.0 if tail is None else 1.0 + _div(x, tail, where)
    value = _offset_step(bottom, x, inner, where)
    for j in range(bottom - 1, k - 1, -1):
        value = _offset_step(j, x, 1.0 + _div(x, value, where), where)
    return value


def _halved_step(j: int, x: float, inner: float, where: str) -> float:
    # one level of: 4j+1 - x/(2 - x/(4j+3 + x/inner)), inner = 2 + x/halved_{j+1}
    mid = (4 * j + 3) + _div(x, inner, where)
    return (4 * j + 1) - _div(x, 2.0 - _div(x, mid, where), where)


def halved_value(k: int, x: float, levels: int, tail: float | None = None) -> float:
    """Nested evaluation of halved_k(x) = offset_k(x/2).

    Unrolls halved_j = 4j+1 - x/(2 - x/(4j+3 + x/(2 + x/halved_{j+1})))
    from j = k through j = k + levels.  The innermost halved_{k+levels+1}
    is replaced by ``tail``; when no tail is supplied the default estimate
    4*(k+levels+1)+1 - x/2 (the leading behavior of the recursion at large
    index) is used instead of plain truncation.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    x = finite_float(x)
    bottom = k + levels
    where = f"halved_value(k={k}, x={x!r})"
    if tail is None:
        tail = (4 * (bottom + 1) + 1) - 0.5 * x
    value = _halved_step(bottom, x, 2.0 + _div(x, tail, where), where)
    for j in range(bottom - 1, k - 1, -1):
        value = _halved_step(j, x, 2.0 + _div(x, value, where), where)
    return value


def sec_tan(
    x: float,
    target_rel_err: float = 1e-12,
    max_levels: int = DEFAULT_MAX_DEPTH,
) -> EvalReport:
    """Evaluate sec(x) + tan(x) = 1 + x/halved_0(x) with adaptive depth.

    Deepens halved_value(0, x, levels) over doubling level counts 8, 16,
    32, ... (each compared against the previous count, the first against
    levels=4) until two successive evaluations agree within
    ``target_rel_err`` relatively.  The report's depth field is the level
    count of the accepted evaluation.

    Raises NoConvergence when ``max_levels`` is passed without agreement
    (e.g. near the poles x = pi/2 + 2*pi*n) and DivisionNearZero when
    halved_0(x) underflows (the true value diverges there).
    """
    if target_rel_err <= 0:
        raise ValueError(f"target_rel_err must be > 0, got {target_rel_err}")
    x = finite_float(x)
    previous = _headline(x, 4)
    levels = 8
    while levels <= max_levels:
        value = _headline(x, levels)
        est = relative_difference(value, previous)
        if est <= target_rel_err:
            return EvalReport(value=value, depth=levels, est_rel_err=est, method="backward")
        previous = value
        levels *= 2
    raise NoConvergence(
        f"no agreement within {target_rel_err} up to {max_levels} levels (x={x!r})"
    )


def _headline(x: float, levels: int) -> float:
    u0 = halved_value(0, x, levels)
    if abs(u0) < POLE_THRESHOLD:
        raise DivisionNearZero(f"sec(x) + tan(x) diverges at x={x!r} (denominator underflow)")
    return 1.0 + x / u0
