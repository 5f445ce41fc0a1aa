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

``sec_tan`` evaluates sec(x) + tan(x) = tan(pi/4 + x/2) without a deep fold:
it reduces x = m*pi/2 + r, |r| <= pi/4, folds the x*cot(x) stream once, at
h = r/2 and depth 7, and maps h*cot(h) to the value by one of four Moebius
maps picked by m mod 4.  Its depth and cost do not grow with |x|, and its
error estimate is a proved bound.
"""

from __future__ import annotations

from functools import cache
from math import fsum

from .core import (
    CfSpec,
    EvalReport,
    NoConvergence,
    PolyTerm,
    TermPair,
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


# Cody & Waite's split of pi/2 (Muller, *Elementary Functions*, 3rd ed. 2016, ch. 11): P1 and P2
# are its first two 33-bit pieces, its next 53 bits, P3, are kept as Dekker's two halves P3H + P3L
# of 25 bits each, and P4 is the rest, rounded.  For |m| < 2**20 every product m*P but m*P4 is
# exact, so ``fsum`` rounds x - m*(P1 + P2 + P3 + P4) once, and that differs from x - m*pi/2
# by at most |m|*_PI_ERR: |pi/2 - P1 - P2 - P3 - P4| < 4.3e-54, plus m*P4's rounding.
_P1, _P2, _P3H, _P3L, _P4 = (
    1.5707963267341256, 6.077100506303966e-11, 2.022266261332941e-21, -1.253699030779104e-29, 1.0085854035872483e-37)
_PI_ERR, _M_CAP = 1.6e-53, 2**20
_SEC_TAN_DEPTH = 7
# Relative error of the x*cot fold at depth 7 and the quadrant map, over |h| <= 0.3927, which is
# pi/8 plus the slack of a rounded m; derived in exact rationals from the value set of the
# x*cot(x) tails, t_n in [2n+1 - h^2/(n+2), 2n+1], by tests/test_sec_tan_reduction.py.
_SEC_TAN_ERR = 4.63e-16
_U = 1.2e-16  # the unit roundoff 2**-53, rounded up


def sec_tan(x: float, target_rel_err: float = 1e-12) -> EvalReport:
    """sec(x) + tan(x) = tan(pi/4 + x/2) from one x*cot fold at a fixed depth.

    Reduces x = m*pi/2 + r, |r| <= pi/4, with Cody & Waite's split of pi/2, and folds
    c = h*cot(h) at h = r/2 as ``eval_backward(xcot_spec(), h, 7)``.  With j = (m + 1) mod 4
    the value is h/c, (c + h)/(c - h), -c/h or (h - c)/(h + c) for j = 0, 1, 2, 3.

    The report's depth is 7, and its ``est_rel_err`` is a proved bound on the relative error:
    a constant for the fold's truncation and the rounding of the fold and the map, plus the
    error of r (one rounding and |m| times the split's error) times |sec x|, bounded by
    1/(0.89 |r|) for odd m and by sqrt(2), rounded up, for even m.  Raises NoConvergence when
    the bound exceeds ``target_rel_err``, and when |m| >= 2**20 (|x| past about 1.6e6), where
    the split is no longer exact: reducing larger x needs more bits of pi (ROADMAP.md, item 12).
    """
    x = finite_float(x)
    if not target_rel_err > 0:  # also rejects nan
        raise ValueError(f"target_rel_err must be > 0, got {target_rel_err}")
    m = round(x * 0.6366197723675814)  # x * 2/pi
    r, err = x, _SEC_TAN_ERR
    if m:
        if not -_M_CAP < m < _M_CAP:
            raise NoConvergence(f"sec_tan reduces only |x * 2/pi| < 2**20, got x={x!r} (ROADMAP.md, item 12)")
        r = fsum((x, -m * _P1, -m * _P2, -m * _P3H, -m * _P3L, -m * _P4))
        err += (_U + abs(m) * _PI_ERR / abs(r)) / 0.89 if m & 1 else (_U * abs(r) + abs(m) * _PI_ERR) * 1.415
    if err > target_rel_err:
        raise NoConvergence(f"error bound {err!r} exceeds target {target_rel_err!r} (x={x!r})")
    h = 0.5 * r
    c = eval_backward(xcot_spec(), h, _SEC_TAN_DEPTH)
    j = (m + 1) % 4
    value = (c + h) / (c - h) if j == 1 else -c / h if j == 2 else (h - c) / (h + c) if j == 3 else h / c
    return EvalReport(value, _SEC_TAN_DEPTH, err, "backward")
