"""Generalized continued fractions and the standard evaluation strategies.

A generalized continued fraction is

    b0 + a1/(b1 + a2/(b2 + a3/(b3 + ...)))

with partial numerators a_k and partial denominators b_k.  Here every a_k
and b_k is a polynomial of degree <= 2 in the evaluation point x, with
exact rational coefficients, so the same term stream can feed both the
floating-point evaluators in this module and the exact rational layer.

Three evaluation strategies are provided: backward recurrence from a finite
truncation (optionally with a caller-supplied tail estimate), the forward
three-term recurrence producing every intermediate convergent, and the
modified Lentz iteration with the usual tiny-value guard.  ``eval_adaptive``
wraps the backward recurrence in a depth-doubling loop with an a posteriori
relative-error estimate.

Every float evaluator reads the terms from one table per ``CfSpec``: six
columns a0, a1, a2, b0, b1, b2 of binary64 coefficients indexed by k,
filled from ``termgen`` up to the deepest index used so far.  An evaluator
unpacks the columns once per call and evaluates each polynomial inline by
float Horner, as ``PolyTerm.__call__`` does for a float x.  That shared
state is safe under concurrent callers because it is never changed in
place: a longer table is built from fresh lists and replaces it in one
assignment, and a published column is never appended to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Literal, Union

Rational = Union[int, Fraction]

# Magnitude below which an intermediate denominator is treated as a pole
# of the approximant (binary64 underflows around 5e-324).
POLE_THRESHOLD = 1e-300

# Replacement magnitude for vanishing intermediates in the Lentz iteration.
TINY_GUARD = 1e-30

# Depth ceiling for the adaptive doubling schedule.
DEFAULT_MAX_DEPTH = 4096

Method = Literal["backward", "forward", "lentz"]


class DivisionNearZero(ArithmeticError):
    """An intermediate denominator fell below ``POLE_THRESHOLD``.

    Signals a pole of the approximant at this evaluation point and depth.
    """


class NoConvergence(RuntimeError):
    """An iteration budget was exhausted before the stopping test passed."""


def _exact(c) -> Rational:
    """c as an exact scalar: an int when it is integral, else a Fraction."""
    if type(c) is int:  # the common case; bool and int subclasses are normalised below
        return c
    if not isinstance(c, (int, Fraction)):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


@dataclass(frozen=True)
class PolyTerm:
    """Polynomial c0 + c1*x + c2*x**2; each coefficient an int if integral, else a Fraction."""

    c0: Rational = 0
    c1: Rational = 0
    c2: Rational = 0

    def __post_init__(self):
        for name in ("c0", "c1", "c2"):
            object.__setattr__(self, name, _exact(getattr(self, name)))

    def __call__(self, x):
        """Evaluate at x.  Exact for int/Fraction x, binary64 for float x."""
        return (self.c2 * x + self.c1) * x + self.c0

    @property
    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0 and self.c2 == 0

    def coefficients(self) -> tuple[Rational, Rational, Rational]:
        return (self.c0, self.c1, self.c2)

    def __str__(self) -> str:
        parts = []
        for coeff, power in ((self.c2, 2), (self.c1, 1), (self.c0, 0)):
            if coeff == 0:
                continue
            if power == 0:
                mono = str(abs(coeff))
            else:
                var = "x" if power == 1 else f"x^{power}"
                mono = var if abs(coeff) == 1 else f"{abs(coeff)}*{var}"
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, mono))
        if not parts:
            return "0"
        first_sign, first_mono = parts[0]
        out = (first_sign if first_sign == "-" else "") + first_mono
        for sign, mono in parts[1:]:
            out += f" {sign} {mono}"
        return out


def poly(c0: Rational = 0, c1: Rational = 0, c2: Rational = 0) -> PolyTerm:
    """Shorthand constructor accepting ints or Fractions."""
    return PolyTerm(c0, c1, c2)


@dataclass(frozen=True)
class TermPair:
    """One (a_k, b_k) pair.  a_k must be nonzero or the fraction terminates."""

    a: PolyTerm
    b: PolyTerm

    def __post_init__(self):
        if self.a.is_zero:
            raise ValueError("partial numerator a_k must not be the zero polynomial")


@dataclass(frozen=True)
class CfSpec:
    """A named continued fraction: leading term b0 plus a pure generator k -> (a_k, b_k).

    ``termgen`` must be total for all k >= 1 and return the same pair on
    every call.
    """

    name: str
    leading: PolyTerm
    termgen: Callable[[int], TermPair]
    # columns (a0, a1, a2, b0, b1, b2) indexed by k = 0, 1, ..., index 0 holding ``leading`` as b
    _table: tuple = field(
        default_factory=lambda: ([], [], [], [], [], []), init=False, repr=False, compare=False)


@dataclass(frozen=True)
class EvalReport:
    """Numeric evaluation result with an a posteriori error estimate.

    ``est_rel_err`` is the relative difference between the last two
    approximants that were compared; it is never left unmeasured.
    """

    value: float
    depth: int
    est_rel_err: float
    method: Method


def finite_float(x) -> float:
    """``x`` as a float; ValueError if it is NaN or infinite."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    return x


def _rows(cf: CfSpec, last: int) -> tuple[list[float], ...]:
    """``cf``'s columns through index ``last`` at least; a short table at least doubles."""
    table = cf._table
    rows = len(table[0])
    if rows > last:
        return table
    leading = ([float(c)] for c in cf.leading.coefficients())
    grown = tuple(map(list, table)) if rows else ([0.0], [0.0], [0.0], *leading)
    memo = {}  # one float object per value; exact coefficients never give -0.0 or nan
    for k in range(len(grown[0]), max(last, 2 * rows) + 1):
        pair = cf.termgen(k)
        for column, c in zip(grown, pair.a.coefficients() + pair.b.coefficients()):
            c = float(c)
            column.append(memo.setdefault(c, c))
    object.__setattr__(cf, "_table", grown)
    return grown


def term_at(cf: CfSpec, k: int, x: float) -> tuple[float, float]:
    """Return (a_k(x), b_k(x)) as doubles for k >= 1."""
    if k < 1:
        raise ValueError(f"term index must be >= 1, got {k}")
    a0, a1, a2, b0, b1, b2 = _rows(cf, k)
    return (a2[k] * x + a1[k]) * x + a0[k], (b2[k] * x + b1[k]) * x + b0[k]


def continuation_spec(cf: CfSpec, start: int) -> CfSpec:
    """The sub-fraction starting at index ``start``: b_start + a_{start+1}/(b_{start+1} + ...).

    Evaluating it approximates the continuation value that ``eval_backward``
    accepts through its ``tail`` parameter (with ``start = depth + 1``).
    """
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    return CfSpec(
        name=f"{cf.name}[{start}:]",
        leading=cf.termgen(start).b,
        termgen=lambda j: cf.termgen(start + j),
    )


def _fold(cf: CfSpec, x: float, start: int, depth: int, tail: float | None = None) -> float:
    """``eval_backward``'s fold started at index ``start``: b_start + a_{start+1}/(...)."""
    if tail is not None and abs(tail) < POLE_THRESHOLD:
        raise DivisionNearZero(f"tail estimate {tail!r} is below {POLE_THRESHOLD}")
    end = start + depth
    a0, a1, a2, b0, b1, b2 = _rows(cf, end if tail is None else end + 1)
    r = (b2[end] * x + b1[end]) * x + b0[end]
    if tail is not None:
        r += ((a2[end + 1] * x + a1[end + 1]) * x + a0[end + 1]) / tail
    for k in range(end, start, -1):
        if abs(r) < POLE_THRESHOLD:
            raise DivisionNearZero(f"denominator underflow at index {k} (x={x!r})")
        j = k - 1  # b_j + a_k / r
        r = ((b2[j] * x + b1[j]) * x + b0[j]) + ((a2[k] * x + a1[k]) * x + a0[k]) / r
    return r


def eval_backward(cf: CfSpec, x: float, depth: int, tail: float | None = None) -> float:
    """Backward recurrence on the depth-``depth`` truncation.

    Computes b0 + a1/(b1 + a2/(... + a_depth/(b_depth + r))) where
    r = a_{depth+1}(x)/tail when a tail estimate is supplied and r = 0
    otherwise (the plain convergent).  ``tail`` is the caller's estimate of
    the continuation value, i.e. of the infinite sub-fraction starting at
    index depth + 1.

    Raises DivisionNearZero if any intermediate denominator (including the
    supplied tail) has magnitude below POLE_THRESHOLD.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return _fold(cf, finite_float(x), 0, depth, tail)


# Joint rescale factor for the forward recurrence.  An exact power of two,
# so P_n/Q_n is bit-for-bit unchanged by rescaling.
_RESCALE = 2.0**-500

DEFAULT_RESCALE_THRESHOLD = 1e150


def eval_forward(
    cf: CfSpec,
    x: float,
    depth: int,
    rescale_threshold: float = DEFAULT_RESCALE_THRESHOLD,
) -> list[float]:
    """All convergents h_1..h_depth by the forward three-term recurrence.

    P_n = b_n*P_{n-1} + a_n*P_{n-2} and likewise for Q_n, with P_{-1} = 1,
    P_0 = b0, Q_{-1} = 0, Q_0 = 1 and h_n = P_n/Q_n.  Whenever
    max(|P_n|, |Q_n|) exceeds ``rescale_threshold`` both sequences are
    jointly rescaled by an exact power of two, which leaves every reported
    convergent unchanged.

    Raises DivisionNearZero if |Q_n| underflows below POLE_THRESHOLD after
    rescaling.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    x = finite_float(x)
    a0, a1, a2, b0, b1, b2 = _rows(cf, depth)
    p_prev, p_cur = 1.0, (b2[0] * x + b1[0]) * x + b0[0]
    q_prev, q_cur = 0.0, 1.0
    convergents = []
    for n in range(1, depth + 1):
        a_n = (a2[n] * x + a1[n]) * x + a0[n]
        b_n = (b2[n] * x + b1[n]) * x + b0[n]
        p_next = b_n * p_cur + a_n * p_prev
        q_next = b_n * q_cur + a_n * q_prev
        if max(abs(p_next), abs(q_next)) > rescale_threshold:
            p_next *= _RESCALE
            q_next *= _RESCALE
            p_cur *= _RESCALE
            q_cur *= _RESCALE
        if abs(q_next) < POLE_THRESHOLD:
            raise DivisionNearZero(f"Q_{n} underflow (x={x!r})")
        convergents.append(p_next / q_next)
        p_prev, p_cur = p_cur, p_next
        q_prev, q_cur = q_cur, q_next
    return convergents


def eval_lentz(cf: CfSpec, x: float, eps: float, max_terms: int) -> EvalReport:
    """Evaluate by the modified Lentz iteration.

    Runs the running-ratio recurrences

        C_n = b_n + a_n/C_{n-1},   D_n = 1/(b_n + a_n*D_{n-1})

    replacing any intermediate of magnitude below TINY_GUARD by TINY_GUARD,
    and accumulates f_n = f_{n-1} * Delta_n with Delta_n = C_n*D_n.  Stops
    as soon as |Delta_n - 1| < eps; the report carries that quantity as the
    error estimate.

    Parameters
    ----------
    eps : float
        Stopping tolerance on the per-step multiplier, > 0.
    max_terms : int
        Iteration budget, >= 2.  NoConvergence is raised when it is
        exhausted before the stopping test passes.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if max_terms < 2:
        raise ValueError(f"max_terms must be >= 2, got {max_terms}")
    x = finite_float(x)
    a0, a1, a2, b0, b1, b2 = _rows(cf, 0)
    f = (b2[0] * x + b1[0]) * x + b0[0]
    if abs(f) < TINY_GUARD:
        f = TINY_GUARD
    c_prev = f
    d_prev = 0.0
    for j in range(1, max_terms + 1):
        if j == len(a0):  # read the columns again, at least twice as long
            a0, a1, a2, b0, b1, b2 = _rows(cf, j)
        a_j = (a2[j] * x + a1[j]) * x + a0[j]
        b_j = (b2[j] * x + b1[j]) * x + b0[j]
        d_cur = b_j + a_j * d_prev
        if abs(d_cur) < TINY_GUARD:
            d_cur = TINY_GUARD
        c_cur = b_j + a_j / c_prev
        if abs(c_cur) < TINY_GUARD:
            c_cur = TINY_GUARD
        d_cur = 1.0 / d_cur
        delta = c_cur * d_cur
        f *= delta
        c_prev, d_prev = c_cur, d_cur
        if abs(delta - 1.0) < eps:
            return EvalReport(value=f, depth=j, est_rel_err=abs(delta - 1.0), method="lentz")
    raise NoConvergence(f"Lentz did not converge within {max_terms} terms (x={x!r}, eps={eps})")


def relative_difference(v_new: float, v_old: float) -> float:
    """|v_new - v_old| / max(|v_new|, POLE_THRESHOLD)."""
    return abs(v_new - v_old) / max(abs(v_new), POLE_THRESHOLD)


def _deepen(probe, x: float, target_rel_err: float, limit: int) -> EvalReport:
    """``probe(n)`` at n = 4, 8, 16, ... <= ``limit`` until one agrees with the last."""
    if target_rel_err <= 0:
        raise ValueError(f"target_rel_err must be > 0, got {target_rel_err}")
    previous = probe(4)
    n = 8
    while n <= limit:
        value = probe(n)
        est = relative_difference(value, previous)
        if est <= target_rel_err:
            return EvalReport(value=value, depth=n, est_rel_err=est, method="backward")
        previous = value
        n *= 2
    raise NoConvergence(f"no agreement within {target_rel_err} up to depth {limit} (x={x!r})")


def eval_adaptive(
    cf: CfSpec,
    x: float,
    target_rel_err: float,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> EvalReport:
    """Backward evaluation at doubling depths 8, 16, 32, ... until stable.

    Each candidate depth D is compared against the depth-D/2 value (the
    first probe at depth 8 compares against depth 4); the loop stops when
    the relative difference is within ``target_rel_err``.  The report
    carries the final depth and the achieved difference.

    Raises NoConvergence when ``max_depth`` is passed without agreement;
    DivisionNearZero propagates from the backward recurrence.
    """
    return _deepen(lambda depth: eval_backward(cf, x, depth), x, target_rel_err, max_depth)
