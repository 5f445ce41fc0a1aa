"""Reference values computed without calling cfrac.

Three independent oracles:

- ``f_ref``: sec(x)+tan(x), x*cot(x) and cot(x) at the exact binary64 x,
  by mpmath at 256 bits, with the condition number kappa = |x f'(x) / f(x)|.
- ``convergents``: every convergent h_1..h_d of either fraction at the
  exact binary64 x, by an integer three-term recurrence written here from
  the paper's term definitions (not from cfrac's term streams), with the
  condition number of each convergent.
- ``series``: Taylor coefficients of sec(x)+tan(x) (zigzag numbers) and of
  x*cot(x) (Bernoulli numbers), from recurrences written here.

Values are handed to the checks as a double-double (hi, lo) so a relative
error can be taken in plain float arithmetic below binary64 resolution.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

EPS = 2.0**-52

# A result counts as explained by rounding when its true relative error is
# within ROUNDING_SLACK * EPS * max(1, kappa): a backward-stable evaluation
# of a function with condition number kappa can be held to no better.
ROUNDING_SLACK = 1024.0

def _split(value) -> tuple[float, float]:
    hi = float(value)
    if not math.isfinite(hi):
        return hi, 0.0
    return hi, float(value - hi)


def rel_err(value: float, ref: tuple[float, float]) -> float:
    """|value - ref| / |ref| for a double-double reference."""
    hi, lo = ref
    if not math.isfinite(value):
        return math.inf
    if hi == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return abs((value - hi) - lo) / abs(hi)


def f_ref(function: str, x: float) -> tuple[tuple[float, float], float]:
    """(reference value, condition number) of ``function`` at binary64 x."""
    with mpmath.workprec(256):
        X = mpmath.mpf(x)
        if function == "sec-tan":
            value = (1 + mpmath.sin(X)) / mpmath.cos(X)
            kappa = abs(X * mpmath.sec(X))
        elif function == "xcot":
            if X == 0:
                return (1.0, 0.0), 0.0
            value = X * mpmath.cot(X)
            kappa = abs(1 - 2 * X / mpmath.sin(2 * X))
        elif function == "cot":
            value = mpmath.cot(X)
            kappa = abs(2 * X / mpmath.sin(2 * X))
        else:
            raise ValueError(f"unknown function {function!r}")
        return _split(value), float(kappa)


def tail_pole(function: str, x: float) -> bool:
    """True when x is within 2^-40 (relative) of 2*pi*m, m != 0, for sec+tan.

    sec(x) + tan(x) = 1 + x / halved_0(x) with halved_0(x) = (x/2)cot(x/2) - x/2,
    which has poles there although sec + tan is smooth (it equals 1).
    """
    if function != "sec-tan" or not math.isfinite(x) or x == 0.0:
        return False
    with mpmath.workprec(256):
        X = mpmath.mpf(x)
        m = mpmath.nint(X / (2 * mpmath.pi))
        return m != 0 and abs(X - 2 * mpmath.pi * m) <= abs(X) * mpmath.mpf(2) ** -40


# --- the two fractions, from the paper's definitions -----------------------
#
# sec-tan: b0 = 1; b_k = k for odd k, 2 for even k; a_k = +x when k mod 4 is
# 0 or 1 and -x when it is 2 or 3.
# xcot:    b0 = 1; a_k = -x^2, b_k = 2k + 1.
# Each term is a polynomial c0 + c1 x + c2 x^2, given as (c0, c1, c2).


def term(stream: str, k: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """(a_k, b_k) coefficient triples for k >= 1."""
    if stream == "sec-tan":
        a = (0, 1, 0) if k % 4 in (0, 1) else (0, -1, 0)
        b = (k, 0, 0) if k % 2 else (2, 0, 0)
        return a, b
    if stream == "xcot":
        return (0, 0, -1), (2 * k + 1, 0, 0)
    raise ValueError(f"unknown stream {stream!r}")


def _eval_scaled(c: tuple[int, int, int], p: int, q: int) -> tuple[int, int]:
    # q^2 * c(p/q) and q^2 * c'(p/q), both integers
    c0, c1, c2 = c
    return c0 * q * q + c1 * p * q + c2 * p * p, c1 * q * q + 2 * c2 * p * q


def convergents(stream: str, x, depth: int) -> list[tuple[tuple[float, float], float] | None]:
    """Exact h_1..h_depth at rational x, each as (value, kappa); None at a pole.

    Integer forward recurrence after the equivalence transformation that
    multiplies every b_k (k >= 1) by q^2 and every a_k by q^4 (a_1 by q^2),
    where x = p/q; the convergents are unchanged and every term is an
    integer.  Derivatives with respect to x ride along for kappa.
    """
    p, q = Fraction(x).as_integer_ratio()
    # P, Q and their x-derivatives, scaled by constants that cancel in h and h'
    p_prev, p_cur, dp_prev, dp_cur = 1, 1, 0, 0
    q_prev, q_cur, dq_prev, dq_cur = 0, 1, 0, 0
    out = []
    for n in range(1, depth + 1):
        (a, da), (b, db) = (_eval_scaled(c, p, q) for c in term(stream, n))
        if n > 1:
            a, da = a * q * q, da * q * q
        p_next = b * p_cur + a * p_prev
        q_next = b * q_cur + a * q_prev
        dp_next = db * p_cur + b * dp_cur + da * p_prev + a * dp_prev
        dq_next = db * q_cur + b * dq_cur + da * q_prev + a * dq_prev
        p_prev, p_cur, dp_prev, dp_cur = p_cur, p_next, dp_cur, dp_next
        q_prev, q_cur, dq_prev, dq_cur = q_cur, q_next, dq_cur, dq_next
        if q_cur == 0:
            out.append(None)
            continue
        # h = P/Q as a double-double, and kappa = |x h'/h| with
        # h' = (P'Q - PQ')/Q^2, by correctly rounded integer division
        hi = p_cur / q_cur
        m, d = hi.as_integer_ratio()
        lo = (p_cur * d - m * q_cur) / (q_cur * d)
        if p_cur == 0:
            kappa = math.inf
        else:
            kappa = abs(p * (dp_cur * q_cur - p_cur * dq_cur) / (q * p_cur * q_cur))
        out.append(((hi, lo), kappa))
    return out


def fold(stream: str, t: Fraction, depth: int) -> Fraction:
    """The depth-``depth`` convergent at rational t by an exact backward fold.

    Raises ZeroDivisionError when t is a pole of the convergent.
    """
    def at(c):
        return c[0] + c[1] * t + c[2] * t * t

    r = Fraction(at(term(stream, depth)[1]))
    for k in range(depth, 1, -1):
        a_k, b_prev = at(term(stream, k)[0]), at(term(stream, k - 1)[1])
        r = b_prev + a_k / r
    return 1 + at(term(stream, 1)[0]) / r


@lru_cache(maxsize=None)
def zigzag(n: int) -> int:
    """Alternating-permutation numbers by the Entringer recurrence E(n, k)."""
    row = [1]  # E(0, 0)
    for m in range(1, n + 1):
        new = [0]
        for k in range(1, m + 1):
            new.append(new[k - 1] + row[m - k])
        row = new
    return row[-1]


def bernoulli(count: int) -> list[Fraction]:
    """B_0..B_{count-1}, from sum_{k<=m} C(m+1, k) B_k = 0 (so B_1 = -1/2)."""
    out: list[Fraction] = []
    for m in range(count):
        out.append(Fraction(1) if m == 0 else
                   -sum(math.comb(m + 1, k) * b for k, b in enumerate(out)) / (m + 1))
    return out


def series(stream: str, order: int) -> list[Fraction]:
    """Taylor coefficients c_0..c_order of the function the stream converges to."""
    if stream == "sec-tan":
        return [Fraction(zigzag(n), math.factorial(n)) for n in range(order + 1)]
    if stream == "xcot":
        # x cot x = sum_m (-1)^m 2^(2m) B_2m x^(2m) / (2m)!
        b = bernoulli(order + 1)
        return [Fraction(0) if n % 2 else (-1) ** (n // 2) * 2**n * b[n] / math.factorial(n)
                for n in range(order + 1)]
    raise ValueError(f"unknown stream {stream!r}")


def series_agreement(stream: str, depth: int) -> int:
    """Highest order through which the depth-``depth`` convergent matches f."""
    return depth if stream == "sec-tan" else 2 * depth + 1
