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

Each recursion is one flat term stream folded backward by ``core`` from some
index: paired_k is the x*cot(x) stream from 2k, halved_k the sec-tan stream
from 4k + 1 and offset_k the offset stream ``_OFFSET`` from 4k.  Each stream
is one shared instance, so its float table is built once.  The ``exact``
module verifies each step of the chain on these same three streams.
"""

from __future__ import annotations

from functools import cache

from .core import (
    DEFAULT_MAX_DEPTH,
    CfSpec,
    EvalReport,
    PolyTerm,
    TermPair,
    _deepen,
    _fold,
    eval_backward,
    finite_float,
)

_MINUS_X_SQ = PolyTerm(c2=-1)
_PLUS_X = PolyTerm(c1=1)
_MINUS_X = PolyTerm(c1=-1)
_ONE = PolyTerm(1)
_TWO = PolyTerm(2)


@cache
def xcot_spec() -> CfSpec:
    """The fraction 1 - x^2/(3 - x^2/(5 - ...)) whose value is x*cot(x)."""

    def gen(k: int) -> TermPair:
        return TermPair(a=_MINUS_X_SQ, b=PolyTerm(2 * k + 1))

    return CfSpec(name="xcot", leading=PolyTerm(1), termgen=gen)


@cache
def sec_tan_spec() -> CfSpec:
    """The flattened single-stream fraction whose value is sec(x) + tan(x).

    b0 = 1 and, for k >= 1: b_k = k when k is odd, b_k = 2 when k is even;
    a_k = +x when k mod 4 is 0 or 1, and -x when k mod 4 is 2 or 3.
    """

    def gen(k: int) -> TermPair:
        a = _PLUS_X if k % 4 in (0, 1) else _MINUS_X
        return TermPair(a=a, b=PolyTerm(k) if k % 2 else _TWO)

    return CfSpec(name="sec-tan", leading=PolyTerm(1), termgen=gen)


def _offset_terms(k: int) -> TermPair:
    """b_k = 1 for odd k and k + 1 for even k; a_k = -x when k mod 4 is 1 or 2, else +x."""
    return TermPair(a=_MINUS_X if k % 4 in (1, 2) else _PLUS_X, b=_ONE if k % 2 else PolyTerm(k + 1))


_OFFSET = CfSpec(name="offset", leading=_ONE, termgen=_offset_terms)


def paired_value(k: int, x: float, pairs: int, tail: float | None = None) -> float:
    """paired_k(x) through level k + pairs: the x*cot(x) stream folded from index 2k.

    The innermost paired_{k+pairs+1} is replaced by ``tail`` when one is
    supplied, else the x^2/paired term is dropped; at k = 0 it approximates x*cot(x).
    """
    if k < 0 or pairs < 0:
        raise ValueError(f"k and pairs must be >= 0, got k={k}, pairs={pairs}")
    return _fold(xcot_spec(), finite_float(x), 2 * k, 2 * pairs + 1, tail)


def offset_value(k: int, x: float, levels: int, tail: float | None = None) -> float:
    """offset_k(x) = paired_k(x) - x through level k + levels, folded from index 4k.

    The innermost offset_{k+levels+1} is replaced by ``tail`` when one is
    supplied; otherwise the innermost x/offset term is dropped.  ``verify
    offset`` and ``verify halving`` decide this stream, rows 4k..4k+3 a level.
    """
    if k < 0 or levels < 0:
        raise ValueError(f"k and levels must be >= 0, got k={k}, levels={levels}")
    return _fold(_OFFSET, finite_float(x), 4 * k, 4 * levels + 3, tail)


def halved_value(k: int, x: float, levels: int, tail: float | None = None) -> float:
    """halved_k(x) = offset_k(x/2) through level k + levels: sec-tan folded from 4k + 1.

    The innermost halved_{k+levels+1} is replaced by ``tail``, by default by
    4*(k+levels+1)+1 - x/2, the recursion's leading behavior at large index.
    """
    if k < 0 or levels < 0:
        raise ValueError(f"k and levels must be >= 0, got k={k}, levels={levels}")
    x = finite_float(x)
    if tail is None:
        tail = 4 * (k + levels) + 5 - x / 2
    return _fold(sec_tan_spec(), x, 4 * k + 1, 4 * levels + 3, tail)


def _levels(spec: CfSpec, x: float, n: int) -> float:
    """``sec_tan``'s probe: n levels, the sec-tan stream to depth 4n + 4 closed by 4n + 5 - x/2."""
    return eval_backward(spec, x, 4 * n + 4, 4 * n + 5 - x / 2)


def sec_tan(
    x: float,
    target_rel_err: float = 1e-12,
    max_levels: int = DEFAULT_MAX_DEPTH,
) -> EvalReport:
    """Evaluate sec(x) + tan(x) = 1 + x/halved_0(x) with adaptive depth.

    Deepens halved_0(x) over doubling level counts L = 8, 16, 32, ... (each
    compared against the previous count, the first against L = 4) until two
    successive evaluations agree within ``target_rel_err`` relatively.  Level
    count L is the sec-tan stream to depth 4L + 4 closed by ``halved_value``'s
    tail 4L + 5 - x/2.  The report's depth field is the level count.

    Raises NoConvergence when ``max_levels`` is passed without agreement
    (e.g. near the poles x = pi/2 + 2*pi*n) and DivisionNearZero when
    halved_0(x) underflows (the true value diverges there).
    """
    return _deepen(_levels, sec_tan_spec(), finite_float(x), target_rel_err, max_levels)
