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

All functions are pure: no shared mutable state, safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class PolyTerm:
    """Polynomial c0 + c1*x + c2*x**2 with exact rational coefficients."""

    c0: Fraction = Fraction(0)
    c1: Fraction = Fraction(0)
    c2: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "c0", Fraction(self.c0))
        object.__setattr__(self, "c1", Fraction(self.c1))
        object.__setattr__(self, "c2", Fraction(self.c2))

    def __call__(self, x):
        """Evaluate at x.  Exact for int/Fraction x, binary64 for float x."""
        return (self.c2 * x + self.c1) * x + self.c0

    @property
    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0 and self.c2 == 0

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction]:
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
    return PolyTerm(Fraction(c0), Fraction(c1), Fraction(c2))


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


def term_at(cf: CfSpec, k: int, x: float) -> tuple[float, float]:
    """Return (a_k(x), b_k(x)) as doubles for k >= 1."""
    if k < 1:
        raise ValueError(f"term index must be >= 1, got {k}")
    pair = cf.termgen(k)
    return float(pair.a(x)), float(pair.b(x))


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
    x = finite_float(x)
    if tail is None:
        r = float(cf.termgen(depth).b(x))
    else:
        if abs(tail) < POLE_THRESHOLD:
            raise DivisionNearZero(f"tail estimate {tail!r} is below {POLE_THRESHOLD}")
        a_next = float(cf.termgen(depth + 1).a(x))
        r = float(cf.termgen(depth).b(x)) + a_next / tail
    for k in range(depth, 1, -1):
        if abs(r) < POLE_THRESHOLD:
            raise DivisionNearZero(f"denominator underflow at index {k} (x={x!r})")
        a_k, b_prev = float(cf.termgen(k).a(x)), float(cf.termgen(k - 1).b(x))
        r = b_prev + a_k / r
    if abs(r) < POLE_THRESHOLD:
        raise DivisionNearZero(f"denominator underflow at index 1 (x={x!r})")
    return float(cf.leading(x)) + float(cf.termgen(1).a(x)) / r


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
    p_prev, p_cur = 1.0, float(cf.leading(x))
    q_prev, q_cur = 0.0, 1.0
    convergents = []
    for n in range(1, depth + 1):
        a_n, b_n = term_at(cf, n, x)
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
    f = float(cf.leading(x))
    if abs(f) < TINY_GUARD:
        f = TINY_GUARD
    c_prev = f
    d_prev = 0.0
    for j in range(1, max_terms + 1):
        a_j, b_j = term_at(cf, j, x)
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
    if target_rel_err <= 0:
        raise ValueError(f"target_rel_err must be > 0, got {target_rel_err}")
    previous = eval_backward(cf, x, 4)
    depth = 8
    while depth <= max_depth:
        value = eval_backward(cf, x, depth)
        est = relative_difference(value, previous)
        if est <= target_rel_err:
            return EvalReport(value=value, depth=depth, est_rel_err=est, method="backward")
        previous = value
        depth *= 2
    raise NoConvergence(
        f"no agreement within {target_rel_err} up to depth {max_depth} (x={x!r})"
    )
