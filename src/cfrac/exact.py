"""Exact rational-function arithmetic and machine verification of identities.

This layer re-derives, in exact arithmetic, every algebraic step that turns
the x*cot(x) fraction into the sec(x)+tan(x) fraction (see ``expansions``):

- ``verify_pairing``: steps 2m and 2m+1 of the x*cot(x) stream are the
  paired level m, for every tail value t.
- ``verify_offset_rewrite``: shifting paired level m by -x equals rows
  4m..4m+3 of the offset stream, for every tail value t.
- ``verify_halving_rewrite``: substituting x -> x/2 into the offset form
  equals the halved form, for every tail value t (decided at 2x, on ints).
- ``verify_flattening``: steps 4m+1..4m+4 of the sec-tan stream are the
  halved level m, for every tail value t (level 0 after the leading step).
- ``verify_series``: Taylor coefficients of deep sec-tan convergents equal
  zigzag(n)/n!, from one boustrophedon triangle (``_zigzags``); the tests
  cross-check ``zigzag`` for n <= 8 by counting alternating permutations.

Each recursion level is written once, as a list of continued-fraction
steps t -> b + a/t (Jones & Thron 1980; a shift t -> t + c is the two steps
c + 1/(0 + 1/t)), and the next link reuses it (``_paired``, ``_halving_rhs``
with literal coefficients, the latter at 2x by substitution, ``_at``;
``_offset_rhs``, rows 4k..4k+3 of the stream ``offset_value`` folds), so the
five checks form one chain over the three streams the float layer folds.
The four algebraic suites decide one level each with ``_agree_for_every_tail``,
whose sides are step lists: a level or a slice of a stream's step table,
generated once per ``CfSpec`` (``_steps``).  By associativity, a stream that
agrees with the levels 0..m for every tail has, at t = infinity, their
convergents.  ``SUITES`` lists the suites in derivation order with the
deepest stream row each reads or rewrites, their default levels and units.

The layer has one exact fold of steps (``_cleared``, ``_packed``), shared
by ``convergent_exact`` and every suite.  It holds a polynomial p as the
int p(2^w) (Kronecker substitution), so a step is a few big-int
operations.  The width is safe: the same fold on the |coefficients| at
x = 1 bounds the sum of the result's |coefficients| by M, and with
M < 2^(w-1) each coefficient is one balanced w-bit digit, so distinct
polynomials have distinct values.  Fraction coefficients are cleared by
one common denominator, which is divided out once.

Every check is a decision with zero tolerance, never a sample.  A coefficient
is an ``int`` when integral and a ``Fraction`` otherwise, never a float.
``Poly`` and ``RatFunc`` (univariate, dense, never reduced) are the results of
``convergent_exact`` and the input of ``series_from_ratfunc``, long division on
ints that builds each coefficient once; the four algebraic suites build none.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .core import CfSpec, _exact
from .expansions import _OFFSET, sec_tan_spec, xcot_spec

# Depth ceiling for exact convergents; coefficient growth is the cost driver.
MAX_EXACT_DEPTH = 64


class DivisionByZeroFunction(ZeroDivisionError):
    """Division by the zero rational function."""


class PoleAtOrigin(ZeroDivisionError):
    """Series extraction requested for a function with den(0) = 0."""


class DegenerateConvergent(ArithmeticError):
    """A convergent's denominator Q_n is the zero polynomial."""


class Poly:
    """Dense univariate polynomial with exact coefficients; coeffs[i] is the x^i one.

    Each coefficient is an int when it is integral and a Fraction only
    otherwise.  Trailing zeros are trimmed on construction, so the zero
    polynomial has an empty coefficient tuple and every nonzero polynomial
    has a nonzero leading coefficient.  Instances are immutable and, like
    ``RatFunc``, unhashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if type(c) is int else _exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)  # so the value is a Fraction even at an int x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return Poly(out)

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean remainder sequence."""
    a, b = list(a.coeffs), list(b.coeffs)
    while b:
        while len(a) >= len(b):  # a mod b in place: cancel a's top with (a_top/b_top) x^shift b
            factor, shift = Fraction(a[-1]) / b[-1], len(a) - len(b)
            for j, c in enumerate(b):
                a[shift + j] -= factor * c
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return Poly([c / Fraction(a[-1]) for c in a] if a else ())


_ZERO = Fraction(0)
_P_ONE = Poly([1])


def _coprime(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime n and d > 0, built without the constructor's gcd."""
    c = object.__new__(Fraction)  # what Fraction._from_coprime_ints (3.12+) does
    c._numerator, c._denominator = n, d
    return c


class RatFunc:
    """Quotient num/den of two Polys with a nonzero denominator, kept as built.

    A value with no arithmetic of its own (the suites fold steps on
    (num, den) pairs instead).  Nothing is reduced, so one function has
    many representations: ``==`` decides equality with another RatFunc by
    cross-multiplication, num * other.den == other.num * den.  Unhashable,
    since equal functions need not have equal parts.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _P_ONE):
        if den.is_zero:
            raise DivisionByZeroFunction("denominator is the zero polynomial")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    def __call__(self, x: Fraction) -> Fraction:
        return self.num(x) / self.den(x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"


def convergent_exact(cf: CfSpec, depth: int) -> RatFunc:
    """The depth-``depth`` convergent P_n/Q_n of ``cf`` as an exact rational function.

    Folds the steps t -> b_k + a_(k+1)/t, k = 0..n, of the spec's table
    (``_steps``, so no term is generated twice) onto t = infinity, reducing
    nothing; a continuant folded inside-out is the one of the forward
    three-term recurrence, so these are its P_n and Q_n.  Coefficients are
    ints wherever the terms' are integral (both built-in streams).  By the
    determinant formula P_k*Q_{k-1} - P_{k-1}*Q_k = (-1)^(k-1) * a_1*...*a_k
    (Jones & Thron 1980), gcd(P_n, Q_n) divides a_1*...*a_n, a power of x
    for both built-in streams.  Depth is capped at MAX_EXACT_DEPTH.

    Raises DegenerateConvergent exactly when Q_n is the zero polynomial.
    """
    if not 1 <= depth <= MAX_EXACT_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_EXACT_DEPTH}, got {depth}")
    num, den = _fold(_steps(cf, depth)[: depth + 1])
    if den.is_zero:
        raise DegenerateConvergent(f"convergent of {cf.name!r} has Q_{depth} = 0")
    return RatFunc(num, den)


def series_from_ratfunc(f: RatFunc, order: int) -> list[Fraction]:
    """Taylor coefficients c_0..c_order of f at x = 0, by long division.

    Exact: f(x) = sum(c_i x^i) + O(x^(order+1)).  The power of x that
    divides both numerator and denominator is cancelled first; PoleAtOrigin
    is raised when the denominator still vanishes at 0.  The division runs on
    ints (Fraction inputs times the lcm of their denominators), in y = x^2 for
    an even function (den nonconstant, no odd power of x in num or den, as
    for x*cot(x)), whose odd orders are then 0.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    num, den = f.num.coeffs, f.den.coeffs
    while den[0] == 0 and (not num or num[0] == 0):  # den is nonzero, so this stops
        num, den = num[1:], den[1:]
    if den[0] == 0:
        raise PoleAtOrigin("denominator vanishes at x = 0")
    step = 2 if len(den) > 1 and not any(num[1::2]) and not any(den[1::2]) else 1
    num, den = num[::step], den[::step]  # for an even function, coefficients in y = x^2
    s = 1 if den[0] > 0 else -1
    if Fraction in map(type, num + den):
        s *= math.lcm(*(c.denominator for c in num + den))
    if s != 1:  # the same f as num*s / den*s: int coefficients and den_0 > 0
        num, den = [int(c * s) for c in num], [int(c * s) for c in den]
    # c_i = (num_i - sum_j den_j * c_(i-j)) / d0 over the nonzero taps den_j.  With m the lcm of
    # c_0..c_(i-1)'s denominators and w[k] = c_k * m, acc = c_i * m * d0 is an int, the new m is
    # m * d0/g for g = gcd(acc, d0), and w_i = acc/g; a new factor of m rescales the last deg(den) w.
    d0, deg, taps = den[0], len(den) - 1, [(j, dj) for j, dj in enumerate(den) if j and dj]
    m, w, out = 1, [], []
    for i in range(order // step + 1):
        acc = (num[i] if i < len(num) else 0) * m
        for j, dj in taps:
            if j > i:
                break
            acc -= dj * w[i - j]
        g = math.gcd(acc, d0)
        if g != d0:
            t = d0 // g
            m *= t
            for k in range(max(i - deg + 1, 0), i):
                w[k] *= t
        w.append(acc // g)
        r = math.gcd(w[i], m)
        out.append(_coprime(w[i] // r, m // r))
    return out if step == 1 else [c for c_y in out for c in (c_y, _ZERO)][: order + 1]


def zigzag(n: int) -> int:
    """The n-th zigzag number, by the boustrophedon (Seidel–Entringer) triangle.

    zigzag(n) counts the alternating permutations of n elements; the
    sequence starts 1, 1, 1, 2, 5, 16, 61, 272, 1385, ...
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _zigzags(n)[-1]


def _zigzags(n: int) -> list[int]:
    """[zigzag(0), ..., zigzag(n)] from one pass of the triangle; row m ends in zigzag(m)."""
    row, out = [1], [1]
    for _ in range(n):  # row m: 0, then running sums of row m-1 read right to left
        row = list(itertools.accumulate(reversed(row), initial=0))
        out.append(row[-1])
    return out


# A step (b, a) maps a tail value t to b + a/t; b and a are kept as the
# (power, coefficient) pairs of their nonzero monomials.
_Step = tuple[list, list]

# x, -x and -x^2 as (power, coefficient) lists: the levels' partial numerators.  The
# levels share these lists, and nothing changes a step list in place.
_PLUS_X, _MINUS_X, _MINUS_XX = [(1, 1)], [(1, -1)], [(2, -1)]


def _step(b: tuple, a: tuple) -> _Step:
    """The step t -> b + a/t; b and a are coefficient tuples, x^0 first."""
    return [(i, c) for i, c in enumerate(b) if c], [(i, c) for i, c in enumerate(a) if c]


def _steps(cf: CfSpec, depth: int) -> list[_Step]:
    """``cf``'s steps (b_k, a_(k+1)), k = 0..depth at least, generated once per spec.

    A short table grows to row ``depth`` only, whose a is [] (a_(depth+1) is
    not generated; folded onto t = infinity, (1, 0), a meets den = 0).  It grows
    into a new list that replaces it whole, so concurrent callers need no lock.
    """
    rows = cf._steps
    if len(rows) > depth:
        return rows
    grown = rows[:-1]
    b, _ = rows[-1] if rows else _step(cf.leading.coefficients(), ())
    for k in range(max(len(rows), 1), depth + 1):
        pair = cf.termgen(k)
        b_k, a = _step(pair.b.coefficients(), pair.a.coefficients())
        grown.append((b, a))
        b = b_k
    grown.append((b, []))
    object.__setattr__(cf, "_steps", grown)
    return grown


def _shift(c: tuple) -> list[_Step]:
    """The map t -> t + c, c a coefficient tuple, as the two steps c + 1/(0 + 1/t)."""
    return [_step(c, (1,)), _step((), (1,))]


_SHIFT_MINUS_X, _SHIFT_PLUS_X = _shift((0, -1)), _shift((0, 1))  # t -> t - x and t -> t + x


def _at(steps: list[_Step], s) -> list[_Step]:
    """``steps`` with x -> s*x: each coefficient at x^i times s^i."""
    return [([(i, c * s**i) for i, c in b], [(i, c * s**i) for i, c in a]) for b, a in steps]


def _fold(steps: list[_Step]) -> tuple[Poly, Poly]:
    """Apply ``steps`` to t = infinity, the pair (1, 0), innermost (last) first; a (num, den)
    pair.  A step (b, a) maps (num, den) to (b*num + a*den, num); nothing is divided."""
    lcm, steps, bound = _cleared(steps, 1, 0)
    w = (bound.bit_length() + 8) // 8 * 8  # whole bytes, each coefficient below 2^(w-1)
    n, d = _packed(steps, lcm, 1, 0, w)
    scale = lcm ** (len(steps) + 1)
    return _unpack(n, w, scale), _unpack(d, w, scale)


def _cleared(steps: list[_Step], n: int, d: int) -> tuple[int, list[_Step], int]:
    """(L, the steps (L*b, L^2*a), M): L clears every denominator, and M, the fold of the
    |coefficients| at x = 1 onto (n, d) times L^(s+1) for s steps, bounds each coefficient
    of the ``_packed`` fold onto a tail whose coefficient sums are (n, d)."""
    for b, a in reversed(steps):
        m = 0 * d  # d's type: a Fraction anywhere stays in the pair
        for _, c in b:
            m += abs(c) * n
        for _, c in a:
            m += abs(c) * d
        n, d = m, n
    if type(n) is int and type(d) is int:
        return 1, steps, max(n, d)
    lcm = math.lcm(*(c.denominator for b, a in steps for _, c in b + a))
    steps = [([(i, int(c * lcm)) for i, c in b], [(i, int(c * lcm * lcm)) for i, c in a]) for b, a in steps]
    return lcm, steps, int(max(n, d) * lcm ** (len(steps) + 1))


def _packed(steps: list[_Step], lcm: int, n: int, d: int, shift: int) -> tuple[int, int]:
    """L^(s+1) times the fold onto (n, d) of the s steps whose ``_cleared`` form, diag(L, 1)
    (b, a) diag(1, L) as matrices, is given; a polynomial p is held as p(2^shift)."""
    n *= lcm
    for b, a in reversed(steps):
        m = 0
        for i, c in b:
            m += c * n << i * shift
        for i, c in a:
            m += c * d << i * shift
        n, d = m, n
    return n, d * lcm


def _unpack(v: int, w: int, scale: int) -> Poly:
    """p/scale, where p(2^w) = v and each coefficient of p is below 2^(w-1) in size; 8 | w."""
    half, mask, cs = 1 << w - 1, (1 << w) - 1, []
    if abs(v).bit_length() < 4096:  # one balanced digit at a time; quadratic, so a long v is bytes
        while v:
            cs.append((v + half & mask) - half)
            v = v - cs[-1] >> w
        if scale == 1:  # ints whose last is nonzero: nothing for Poly() to normalise or trim
            p = object.__new__(Poly)
            object.__setattr__(p, "coeffs", tuple(cs))
            return p
    else:
        size, count = w // 8, abs(v).bit_length() // w + 1  # deg*w <= bits < (deg+1)*w
        v += int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")  # 2^(w-1) on every digit
        data = v.to_bytes(size * count, "little")
        cs = [int.from_bytes(data[i : i + size], "little") - half for i in range(0, size * count, size)]
    return Poly(cs if scale == 1 else [Fraction(c, scale) for c in cs])


def _agree_for_every_tail(
    lhs: Callable[[int], list[_Step]],
    rhs: Callable[[int], list[_Step]],
    k: int,
) -> bool:
    """Decide lhs(k) == rhs(k) as rational functions of x and the tail t.

    Each side is a step list, so a Moebius map in t: folded onto the
    pair (t, 1), lhs gives (a*t + b, c*t + d) and rhs (p*t + q, r*t + s).
    They agree for every t exactly when (a*t + b)*(r*t + s) equals
    (p*t + q)*(c*t + d) in x and t.  At t = 2^w and x = 2^(3w) each x^i*t^j,
    j <= 2, of a product has its own w-bit digit, and each coefficient is at
    most M^2 < 2^(w-1), M the larger ``_cleared`` bound, so the products are
    equal exactly when their values are.  A zero denominator fails.
    """
    if k < 0:
        raise ValueError(f"level must be >= 0, got {k}")
    sides = [_cleared(side(k), 1, 1) for side in (lhs, rhs)]
    w = 2 * max(bound for *_, bound in sides).bit_length() + 1
    (a, c), (p, r) = (_packed(steps, lcm, 1 << w, 1, 3 * w) for lcm, steps, _ in sides)
    return c != 0 and r != 0 and a * r == p * c


def _paired(k: int) -> list[_Step]:
    # paired level: 4k+1 - x^2/(4k+3 - x^2/t), with t = paired_{k+1}
    return [([(0, 4 * k + 1)], _MINUS_XX), ([(0, 4 * k + 3)], _MINUS_XX)]


def _offset_lhs(k: int) -> list[_Step]:
    # paired level with its tail set to t + x, shifted by -x
    return [*_SHIFT_MINUS_X, *_paired(k), *_SHIFT_PLUS_X]


def _offset_rhs(k: int) -> list[_Step]:
    # offset level: 4k+1 - x/(1 - x/(4k+3 + x/(1 + x/t))), with t = offset_{k+1}, as rows
    # 4k..4k+3 of the stream offset_value folds
    return _stream_steps(_OFFSET, 4 * k, 4 * k + 3)


def verify_offset_rewrite(k: int = 0) -> bool:
    """Decide that shifting the paired recursion by -x equals its rewritten form.

    Both sides are one level at index k with an indeterminate tail value t
    (the tail of the shifted side is t + x so that both sides cut the
    recursion at the same place).  Returns True iff they are the same
    rational function of x and t.
    """
    return _agree_for_every_tail(_offset_lhs, _offset_rhs, k)


def _halving_lhs(k: int) -> list[_Step]:
    # halved_k(2x), with tail t: equals offset_k(x) when halved_k(x) = offset_k(x/2)
    return _at(_halving_rhs(k), 2)


def _halving_rhs(k: int) -> list[_Step]:
    # halved level: 4k+1 - x/(2 - x/(4k+3 + x/(2 + x/t))), with t = halved_{k+1}
    return [([(0, 4 * k + 1)], _MINUS_X), ([(0, 2)], _MINUS_X),
            ([(0, 4 * k + 3)], _PLUS_X), ([(0, 2)], _PLUS_X)]


def verify_halving_rewrite(k: int = 0) -> bool:
    """Decide that substituting x -> x/2 into the offset form gives the halved form.

    Decided like ``verify_offset_rewrite`` (one level at index k, shared
    indeterminate tail t) at 2x, halved_k(2x) == offset_k(x), on ints.
    """
    return _agree_for_every_tail(_halving_lhs, _offset_rhs, k)


def _stream_steps(cf: CfSpec, first: int, last: int) -> list[_Step]:
    """Rows first..last of ``cf``'s step table, the last one with its a_(last+1)."""
    return _steps(cf, last + 1)[first : last + 1]


def verify_pairing(m: int) -> bool:
    """Decide that steps 2m and 2m+1 of the x*cot(x) stream are the paired level m.

    The stream's steps (b_2m, a_(2m+1)) and (b_(2m+1), a_(2m+2)) must be the
    map of ``_paired(m)``, t -> 4m+1 - x^2/(4m+3 - x^2/t), for every
    tail t.  With levels 0..m checked, the stream's depth-(2m+1) convergent
    is the paired recursion through level m at t = infinity.
    """
    return _agree_for_every_tail(lambda k: _stream_steps(xcot_spec(), 2 * k, 2 * k + 1), _paired, m)


def _flat_level(k: int) -> list[_Step]:
    # halved level k as the sec-tan stream holds it: level 0 after the leading step (1, x)
    return ([([(0, 1)], _PLUS_X)] if k == 0 else []) + _halving_rhs(k)


def verify_flattening(m: int) -> bool:
    """Decide that steps 4m+1..4m+4 of the sec-tan stream are the halved level m.

    The stream's steps must be the map of ``_halving_rhs(m)``,
    t -> 4m+1 - x/(2 - x/(4m+3 + x/(2 + x/t))), for every tail t; at m = 0
    both sides also start with the leading step (1, x), so that
    sec(x) + tan(x) = 1 + x/halved_0(x).  With levels 0..m checked, the
    stream's depth-(4m+4) convergent is the halved recursion through level
    m at t = infinity.
    """
    return _agree_for_every_tail(
        lambda k: _stream_steps(sec_tan_spec(), 4 * k + 1 if k else 0, 4 * k + 4), _flat_level, m)


def verify_series(order: int) -> bool:
    """Check sec-tan convergent Taylor coefficients against the zigzag oracle.

    Extracts the series of the depth-(2*order+3) flattened convergent and
    compares each coefficient exactly to zigzag(n)/n!, reading zigzag(0..order)
    from one pass of the boustrophedon triangle.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    conv = convergent_exact(sec_tan_spec(), SUITES["series"].depth(order))
    coeffs = series_from_ratfunc(conv, order)
    return coeffs == [Fraction(z, math.factorial(n)) for n, z in enumerate(_zigzags(order))]


class Suite(NamedTuple):
    check: Callable[[int], bool]  # decides levels 0..m (the series: orders 0..m)
    depth: Callable[[int], int]  # deepest stream row (b_k, a_(k+1)) that level m reads or rewrites
    default_level: int
    unit: str = "levels"  # what m counts: ``cfrac verify`` reports "<unit> 0..m" as checked


# The suites in derivation order.  Each check calls its verify_* function
# through the module-global name, so a replaced one takes effect.  Offset
# level m rewrites paired level m (x*cot(x) rows 2m, 2m+1), and halving level
# m gives halved level m (sec-tan rows 4m+1..4m+4), so each takes that depth.
# Both also read offset-stream rows 4m..4m+3, past MAX_EXACT_DEPTH from offset level 16
# on; a 4-row slice of degree-1 terms has no coefficient growth, so they add no depth.
SUITES = {
    "pairing": Suite(lambda m: all(verify_pairing(j) for j in range(m + 1)), lambda m: 2 * m + 1, 8),
    "offset": Suite(lambda m: all(verify_offset_rewrite(k) for k in range(m + 1)), lambda m: 2 * m + 1, 5),
    "halving": Suite(lambda m: all(verify_halving_rewrite(k) for k in range(m + 1)), lambda m: 4 * m + 4, 5),
    "flatten": Suite(lambda m: all(verify_flattening(j) for j in range(m + 1)), lambda m: 4 * m + 4, 3),
    "series": Suite(lambda order: verify_series(order), lambda order: 2 * order + 3, 12, "orders"),
}


def check_level(suite: str, level: int) -> None:
    """Raise ValueError, folding nothing, if checking ``suite`` at ``level``
    reads or rewrites a stream row deeper than MAX_EXACT_DEPTH."""
    depth = SUITES[suite].depth(level)
    if depth > MAX_EXACT_DEPTH:
        raise ValueError(f"{suite} level {level} needs exact depth {depth}, past {MAX_EXACT_DEPTH}")
