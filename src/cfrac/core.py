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
filled from ``termgen`` up to the deepest index used so far.  The table
also holds its shape: which of the six columns are all zero over the rows
built so far (the sec-tan stream's a_k = +-x and b_k = k or 2 leave only a1
and b0, x*cot(x)'s a_k = -x^2 and b_k = 2k+1 only a2 and b0), and whether
a_k is the same polynomial on every term row (x*cot(x)'s is).  Each
evaluator's loop is written once, as a template, and compiled once per
shape (``_kernels``) with the two term expressions written for that shape,
and a constant a_k computed once, before the loop; an evaluator runs the
loop compiled for the shape of the table it reads.
A term is evaluated by float Horner, as ``PolyTerm.__call__`` does for a
float x, and gives the bits of the generic form (c2*x + c1)*x + c0 however
its zero columns are written: a leading zero column is dropped, since
0.0*x + c == c for finite x, and a later one stays as ``+ 0.0``, which
turns a -0.0 into 0.0 as adding the column's 0.0 does.  So the sec-tan
step is ``b0[j] + (a1[k] * x + 0.0) / r``, x*cot(x)'s ``b0[j] + a / r``
with ``a = (a2[1] * x + 0.0) * x + 0.0`` bound before the loop, and a
stream with no zero column and a varying a_k runs the generic loop.  The
loops test their per-step guards by comparisons with constants bound to
locals: ``-c < v < c`` for ``abs(v) < c``, false for a nan v as that is.
The shared state is safe under concurrent callers because it is never
changed in place: a longer table is built from fresh lists, with its shape
in row 0 of column a0, where no term lives, and replaces the old one in one
assignment, so a reader never sees columns with another table's shape; a
published column is never appended to.  A kernel reads the one table it is
given, and only the entry functions grow tables: ``eval_lentz`` runs Lentz
again from step 1 on a longer table when the rows run out before the
stopping test passes.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

# Magnitude below which an intermediate denominator is treated as a pole
# of the approximant (binary64 underflows around 5e-324).
POLE_THRESHOLD = 1e-300

# Replacement magnitude for vanishing intermediates in the Lentz iteration.
TINY_GUARD = 1e-30

# Cap of the adaptive doubling schedule: eval_adaptive's deepest depth, and
# sec_tan's most levels of four rows each, so depth 4*4096 + 4 = 16388 there.
DEFAULT_MAX_DEPTH = 4096


class DivisionNearZero(ArithmeticError):
    """An intermediate denominator fell below ``POLE_THRESHOLD``.

    Signals a pole of the approximant at this evaluation point and depth.
    """


class NoConvergence(RuntimeError):
    """An iteration budget was exhausted before the stopping test passed."""


def _exact(c) -> int | Fraction:
    """c as an exact scalar: an int when it is integral, else a Fraction."""
    if type(c) is int:  # the common case; bool and int subclasses are normalised below
        return c
    if not isinstance(c, (int, Fraction)):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


@dataclass(frozen=True)
class PolyTerm:
    """Polynomial c0 + c1*x + c2*x**2; each coefficient an int if integral, else a Fraction."""

    c0: int | Fraction = 0
    c1: int | Fraction = 0
    c2: int | Fraction = 0

    def __post_init__(self):
        for name in ("c0", "c1", "c2"):
            object.__setattr__(self, name, _exact(getattr(self, name)))

    def __call__(self, x):
        """Evaluate at x.  Exact for int/Fraction x, binary64 for float x."""
        return (self.c2 * x + self.c1) * x + self.c0

    @property
    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0 and self.c2 == 0

    def coefficients(self) -> tuple[int | Fraction, int | Fraction, int | Fraction]:
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
    # term tables, each replaced whole when it grows: float columns (a0, a1, a2, b0, b1,
    # b2) by k, row 0 holding ``leading`` as b and the shape (``_rows``); exact steps
    # (``exact._steps``)
    _table: tuple = field(
        default_factory=lambda: ([], [], [], [], [], []), init=False, repr=False, compare=False)
    _steps: list = field(default_factory=list, init=False, repr=False, compare=False)


class EvalReport(namedtuple("EvalReport", "value depth est_rel_err method")):
    """Numeric evaluation result with an a posteriori error estimate.

    ``method`` is "backward", "forward" or "lentz".  ``est_rel_err`` is the
    relative difference between the last two approximants compared: for
    ``eval_adaptive`` and ``sec_tan`` the last two probes, for a fixed-depth
    CLI method depth against depth - 1, and for ``eval_lentz`` |Delta_n - 1|
    at the step that stopped it.  It is always measured, and it is not a
    proved bound: two probes can agree bit for bit (an estimate of 0.0) while
    both are wrong.  A report is an immutable 4-tuple (value, depth,
    est_rel_err, method) with those field names.
    """

    __slots__ = ()


def finite_float(x) -> float:
    """``x`` as a float; ValueError if it is NaN or infinite."""
    x = float(x)
    if x - x == 0.0:  # false for an infinite or nan x
        return x
    raise ValueError(f"x must be finite, got {x!r}")


_COLUMNS = ("a0", "a1", "a2", "b0", "b1", "b2")
_SAME_A = 1 << 6  # shape bit: a_k is one polynomial on every term row, two rows at least


def _rows(cf: CfSpec, last: int) -> tuple[list, ...]:
    """``cf``'s columns through index ``last`` at least; a short table at least doubles.

    Row 0 holds ``leading`` as b and, in column a0, where no term lives, the
    table's shape: bit i set when column i of ``_COLUMNS`` is all zero over the
    rows of its terms (from 1 for a, from 0 for b), and ``_SAME_A`` when the
    table has two term rows or more and each a column holds one value over them.
    Once a row differs every longer table differs too, so growth compares only
    the new rows with row 1, and only while the bit holds.  So the shape is published
    with the columns in one assignment, and the table stays a plain tuple,
    which a kernel unpacks faster than any subclass of it.
    """
    table = cf._table
    rows = len(table[0])
    if rows > last:
        return table
    leading = ([float(c)] for c in cf.leading.coefficients())
    grown = tuple(map(list, table)) if rows else ([0], [0.0], [0.0], *leading)
    memo = {}  # one float object per value; exact coefficients never give -0.0 or nan
    for k in range(len(grown[0]), max(last, 2 * rows) + 1):
        pair = cf.termgen(k)
        for column, c in zip(grown, pair.a.coefficients() + pair.b.coefficients()):
            c = float(c)
            column.append(memo.setdefault(c, c))
    n, new = len(grown[0]), max(rows, 2)  # the rows not yet compared with row 1
    same = n > 2 and (rows < 3 or grown[0][0] & _SAME_A) and all(
        column[new:] == column[1:2] * (n - new) for column in grown[:3])
    grown[0][0] = sum(1 << i for i, column in enumerate(grown)
                      if not any(column[1:] if i < 3 else column)) | _SAME_A * same
    object.__setattr__(cf, "_table", grown)
    return grown


def _term(c: str, i: str, shape: int) -> str:
    """Source of c_i(x) by float Horner, (c2[i] * x + c1[i]) * x + c0[i] for c "a" or "b",
    with each column that ``shape`` marks all zero written as 0.0, and a leading one
    dropped.  Both keep the generic form's bits for a finite x: 0.0*x + v == v, and
    a later ``+ 0.0`` turns a -0.0 into 0.0 as adding the column's 0.0 does.  For a
    shape with ``_SAME_A``, a_i is the name ``a``, which its kernel binds before its loop."""
    if c == "a" and shape & _SAME_A:
        return "a"
    expr = ""
    for power in (2, 1, 0):
        column = f"{c}{power}"
        value = "0.0" if shape >> _COLUMNS.index(column) & 1 else f"{column}[{i}]"
        if expr:
            expr = f"({expr}) * x + {value}" if " + " in expr else f"{expr} * x + {value}"
        elif value != "0.0":
            expr = value
    return expr or "0.0"


def _kernels(name: str, template: str) -> list:
    """One kernel per table shape, each ``template`` compiled for its shape at its first call.

    In the template, ``$a_i`` and ``$b_i`` (i one of j, k, n) stand for the terms
    a_i(x) and b_i(x) as ``_term`` writes them for the shape, so the source
    depends on the shape alone.  For a shape with ``_SAME_A`` one line before the
    template's loop binds ``a`` to a_1(x), written as ``_term`` writes it for the
    shape's zero columns, so the loop reads no a column: x*cot(x)'s fold step is
    ``b0[j] + a / r`` with ``a = (a2[1] * x + 0.0) * x + 0.0``, the same bits as
    before, computed once per call.  A kernel is a leaf: it reads the table its
    entry function sized and calls nothing that grows it.  It runs in this
    module's namespace, its guard constants bound once as default arguments.
    Until a shape's first call its index holds the one stub of the list, which
    compiles the shape in row 0 of its table and installs the kernel there.
    """
    def compiled(shape: int):
        source = template
        for term in ("a_j", "a_k", "a_n", "b_j", "b_k", "b_n"):
            source = source.replace(f"${term}", _term(term[0], term[2], shape))
        if shape & _SAME_A:
            source = source.replace("    for ", f"    a = {_term('a', '1', shape ^ _SAME_A)}\n    for ", 1)
        zero = " ".join(column for bit, column in enumerate(_COLUMNS) if shape >> bit & 1)
        same = ", a_k the same on every row" if shape & _SAME_A else ""
        code = compile(source, f"<cfrac.core {name} kernel, zero columns: {zero or 'none'}{same}>", "exec")
        namespace: dict = {}
        exec(code, globals(), namespace)
        return namespace[name]

    def call(table, *args):
        shape = table[0][0]
        kernels[shape] = kernel = compiled(shape)
        return kernel(table, *args)

    kernels = [call] * (2 * _SAME_A)
    return kernels


def _fold(cf: CfSpec, x: float, start: int, depth: int, tail: float | None = None) -> float:
    """``eval_backward``'s fold started at index ``start``: b_start + a_{start+1}/(...)."""
    if tail is not None and not abs(tail) >= POLE_THRESHOLD:  # nan fails >= too
        if math.isnan(tail):
            raise ValueError(f"tail estimate must not be nan, got {tail!r}")
        raise DivisionNearZero(f"tail estimate {tail!r} is below {POLE_THRESHOLD}")
    end = start + depth
    last = end if tail is None else end + 1
    table = cf._table
    if len(table[0]) <= last:
        table = _rows(cf, last)
    return _FOLD[table[0][0]](table, x, start, end, tail)


_FOLD = _kernels("fold", """
def fold(table, x, start, end, tail, pole=POLE_THRESHOLD, neg_pole=-POLE_THRESHOLD):
    a0, a1, a2, b0, b1, b2 = table
    r = (b2[end] * x + b1[end]) * x + b0[end]
    if tail is not None:
        r += ((a2[end + 1] * x + a1[end + 1]) * x + a0[end + 1]) / tail
    for k in range(end, start, -1):
        if neg_pole < r < pole:
            raise DivisionNearZero(f"denominator underflow at index {k} (x={x!r})")
        j = k - 1  # b_j + a_k / r
        r = ($b_j) + ($a_k) / r
    return r
""")


def eval_backward(cf: CfSpec, x: float, depth: int, tail: float | None = None) -> float:
    """Backward recurrence on the depth-``depth`` truncation.

    Computes b0 + a1/(b1 + a2/(... + a_depth/(b_depth + r))) where
    r = a_{depth+1}(x)/tail when a tail estimate is supplied and r = 0
    otherwise (the plain convergent).  ``tail`` is the caller's estimate of
    the continuation value, i.e. of the infinite sub-fraction starting at
    index depth + 1.

    Raises DivisionNearZero if any intermediate denominator (including the
    supplied tail) has magnitude below POLE_THRESHOLD, and ValueError,
    before any term is generated, for a nan tail.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return _fold(cf, finite_float(x), 0, depth, tail)


# Joint rescale of the forward recurrence: once max(|P_n|, |Q_n|) passes
# _RESCALE_AT (as max() orders nan: never at a nan P_n), both are scaled by
# _RESCALE, an exact power of two, so P_n/Q_n is bit-for-bit unchanged.
_RESCALE_AT = 1e150
_RESCALE = 2.0**-500


def eval_forward(cf: CfSpec, x: float, depth: int) -> list[float]:
    """All convergents h_1..h_depth by the forward three-term recurrence.

    P_n = b_n*P_{n-1} + a_n*P_{n-2} and likewise for Q_n, with P_{-1} = 1,
    P_0 = b0, Q_{-1} = 0, Q_0 = 1 and h_n = P_n/Q_n.  Whenever
    max(|P_n|, |Q_n|) exceeds 1e150 both sequences are jointly rescaled by
    an exact power of two, which leaves every reported convergent unchanged.

    Raises DivisionNearZero if |Q_n| underflows below POLE_THRESHOLD after
    rescaling.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    x = finite_float(x)
    table = cf._table
    if len(table[0]) <= depth:
        table = _rows(cf, depth)
    return _FORWARD[table[0][0]](table, x, depth)


_FORWARD = _kernels("forward", """
def forward(table, x, depth,
            big=_RESCALE_AT, neg_big=-_RESCALE_AT, pole=POLE_THRESHOLD, neg_pole=-POLE_THRESHOLD):
    a0, a1, a2, b0, b1, b2 = table
    p_prev, p_cur = 1.0, (b2[0] * x + b1[0]) * x + b0[0]
    q_prev, q_cur = 0.0, 1.0
    convergents = []
    for n in range(1, depth + 1):
        a_n = $a_n
        b_n = $b_n
        p_next = b_n * p_cur + a_n * p_prev
        q_next = b_n * q_cur + a_n * q_prev
        if (p_next > big or p_next < neg_big or q_next > big or q_next < neg_big) and p_next == p_next:
            p_next *= _RESCALE
            q_next *= _RESCALE
            p_cur *= _RESCALE
            q_cur *= _RESCALE
        if neg_pole < q_next < pole:
            raise DivisionNearZero(f"Q_{n} underflow (x={x!r})")
        convergents.append(p_next / q_next)
        p_prev, p_cur = p_cur, p_next
        q_prev, q_cur = q_cur, q_next
    return convergents
""")


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
    if not eps > 0:  # also rejects nan
        raise ValueError(f"eps must be > 0, got {eps}")
    if max_terms < 2:
        raise ValueError(f"max_terms must be >= 2, got {max_terms}")
    x = finite_float(x)
    table = cf._table
    if len(table[0]) < 4:  # rows 1-3 too: a term of each column, and both signs of a +-x
        table = _rows(cf, 3)  # stream's a_k, so that its shape has no _SAME_A
    while True:
        report = _LENTZ[table[0][0]](table, x, eps, max_terms)
        if report is not None:
            return report
        table = _rows(cf, len(table[0]))  # at least twice as long; start again from step 1


# Lentz on one table: its report, or None when the rows run out before step ``max_terms``
_LENTZ = _kernels("lentz", """
def lentz(table, x, eps, max_terms, tiny=TINY_GUARD, neg_tiny=-TINY_GUARD):
    a0, a1, a2, b0, b1, b2 = table
    f = (b2[0] * x + b1[0]) * x + b0[0]
    if neg_tiny < f < tiny:
        f = tiny
    c_prev, d_prev, neg_eps, rows = f, 0.0, -eps, len(a0)
    for j in range(1, min(max_terms + 1, rows)):
        a_j = $a_j
        b_j = $b_j
        d_cur = b_j + a_j * d_prev
        if neg_tiny < d_cur < tiny:
            d_cur = tiny
        c_cur = b_j + a_j / c_prev
        if neg_tiny < c_cur < tiny:
            c_cur = tiny
        d_cur = 1.0 / d_cur
        delta = c_cur * d_cur
        f *= delta
        c_prev, d_prev = c_cur, d_cur
        if neg_eps < delta - 1.0 < eps:
            return EvalReport(f, j, abs(delta - 1.0), "lentz")
    if rows <= max_terms:
        return None
    raise NoConvergence(f"Lentz did not converge within {max_terms} terms (x={x!r}, eps={eps})")
""")


def relative_difference(v_new: float, v_old: float) -> float:
    """|v_new - v_old| / max(|v_new|, POLE_THRESHOLD)."""
    return abs(v_new - v_old) / max(abs(v_new), POLE_THRESHOLD)


def _deepen(probe, cf: CfSpec, x: float, target_rel_err: float, limit: int) -> EvalReport:
    """``probe(cf, x, n)`` at n = 4, 8, 16, ... <= ``limit`` until one agrees with the last."""
    if not target_rel_err > 0:  # also rejects nan
        raise ValueError(f"target_rel_err must be > 0, got {target_rel_err}")
    previous = probe(cf, x, 4)
    n = 8
    while n <= limit:
        value = probe(cf, x, n)
        est = relative_difference(value, previous)
        if est <= target_rel_err:
            return EvalReport(value, n, est, "backward")
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
    return _deepen(eval_backward, cf, x, target_rel_err, max_depth)
