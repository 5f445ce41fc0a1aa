"""``sec_tan`` after reducing x mod pi/2: its values and its error bound against mpmath.

sec(x) + tan(x) = tan(pi/4 + x/2) is computed by mpmath at 300 bits at the binary64 x.
At every point the true relative error must be at most the report's ``est_rel_err``
and at most 2 ulps of the true value.  The bound's constant is derived here again in
exact rationals, and two planted defects, one ulp off in P3 and a wrong quadrant map,
must fail at pinned points.
"""

import inspect
import math
import random
from fractions import Fraction

import pytest

mpmath = pytest.importorskip("mpmath")

from cfrac import NoConvergence, expansions, sec_tan  # noqa: E402

PREC = 300
M_CAP = expansions._M_CAP


def _true(x: float):
    with mpmath.workprec(PREC):
        return mpmath.tan(mpmath.pi / 4 + mpmath.mpf(x) / 2)


def _pi_over_2() -> Fraction:
    with mpmath.workprec(PREC):
        mantissa, exponent = (mpmath.pi / 2).man_exp
    return mantissa * Fraction(2) ** exponent


def _near(offset: float, n: int, k: int, s: int) -> float:
    """The binary64 nearest to (n + offset)*pi + s*2^-k."""
    with mpmath.workprec(PREC):
        return float((n + offset) * mpmath.pi + s * mpmath.mpf(2) ** -k)


def _misses(fn, xs) -> list:
    """(x, relative error, est_rel_err, ulps) wherever ``fn(x)``'s error exceeds its
    ``est_rel_err`` or 2 ulps of the true value."""
    out = []
    with mpmath.workprec(PREC):
        for x in xs:
            report = fn(x)
            true = _true(x)
            err = abs(mpmath.mpf(report.value) - true)
            rel = err / abs(true)
            ulps = err / mpmath.ldexp(1, mpmath.frexp(true)[1] - 53)
            if not (rel <= report.est_rel_err and ulps <= 2):
                out.append((x, float(rel), report.est_rel_err, float(ulps)))
    return out


_rng = random.Random(20261022)
SMOOTH = [_rng.uniform(-1.5, 1.5) for _ in range(200)]
LARGE = [s * _rng.uniform(2.0, 30.0) for s in (-1, 1) for _ in range(100)]
HUGE = [s * _rng.uniform(1e3, 1.6e6) for s in (-1, 1) for _ in range(100)]
POLES = [_near(0.5, n, k, s) for n in range(-20, 21) for k in range(1, 53) for s in (-1, 1)]
ZEROS = [_near(0, n, k, s) for n in range(-20, 21) for k in range(1, 53) for s in (-1, 1)]
# the binary64 x nearest to a multiple m*pi/2 relative to m, by an exhaustive search over
# 0 < m < 2**20 for m = 3 and m = 1 mod 4: |r| = 4.43e-17 at m = 204551 (a pole of sec x and
# tan x, where their sum vanishes) and 2.28e-16 at m = 263205 (a pole of the sum); there one
# ulp of P3 moves r by 15.7 and 3.9 units of roundoff relative to r
PINNED = [321307.9594422229, 413441.44719405076]
SPECIAL = [-2 * math.pi, -4 * math.pi, math.pi, math.pi / 2, 0.0, -0.0, 5e-324, -5e-324,
           math.pi / 4, -math.pi / 4, *PINNED]
LAST_M = float((M_CAP - 1) * _pi_over_2())  # reduces to m = 2**20 - 1


@pytest.mark.parametrize("name, xs", [
    ("smooth", SMOOTH), ("large", LARGE), ("huge", HUGE), ("poles", POLES), ("zeros", ZEROS),
    ("special", SPECIAL + [LAST_M, -LAST_M])])
def test_error_is_within_the_bound_and_two_ulps(name, xs):
    assert _misses(sec_tan, xs) == []


def test_special_values():
    assert sec_tan(0.0).value == sec_tan(-0.0).value == 1.0
    assert sec_tan(5e-324).value == sec_tan(-5e-324).value == 1.0
    for x in (-2 * math.pi, -4 * math.pi):  # sec + tan = 1 at these multiples of 2*pi
        assert sec_tan(x).value == pytest.approx(1.0, rel=1e-15)
    assert sec_tan(math.pi / 2).value == pytest.approx(3.266247870639074e16, rel=1e-15)


def test_reduction_cap():
    assert round(LAST_M * 2 / math.pi) == M_CAP - 1
    assert sec_tan(LAST_M).depth == expansions._SEC_TAN_DEPTH
    beyond = float(M_CAP * _pi_over_2())
    for x in (beyond, -beyond, 1e7, 1e300):
        with pytest.raises(NoConvergence, match="item 12"):
            sec_tan(x)


def test_a_target_below_the_bound_raises():
    report = sec_tan(1.0)
    assert report.est_rel_err < 1e-15
    assert sec_tan(1.0, report.est_rel_err) == report
    with pytest.raises(NoConvergence, match="bound"):
        sec_tan(1.0, report.est_rel_err / 2)
    with pytest.raises(NoConvergence, match="bound"):
        sec_tan(0.25, 1e-17)


def test_the_split_of_pi_over_2():
    """P1 and P2 carry at most 33 bits and P3H and P3L at most 26, so each m*P is exact for
    |m| < 2**20; P3H + P3L is pi/2 - P1 - P2 rounded to 53 bits, and ``_PI_ERR`` bounds,
    per unit of |m|, what P1 + P2 + P3 + P4 misses of pi/2 plus the rounding of m*P4."""
    pieces = (expansions._P1, expansions._P2, expansions._P3H, expansions._P3L)
    for piece, bits in zip(pieces, (33, 33, 26, 26)):
        mantissa = abs(Fraction(piece).numerator)
        assert mantissa.bit_length() <= bits and (M_CAP - 1) * mantissa < 2**53
    p3 = expansions._P3H + expansions._P3L
    assert Fraction(p3) == Fraction(expansions._P3H) + Fraction(expansions._P3L)
    assert p3 == float(_pi_over_2() - Fraction(expansions._P1) - Fraction(expansions._P2))
    missed = _pi_over_2() - sum(map(Fraction, (*pieces, expansions._P4)))
    assert abs(missed) + Fraction(expansions._P4) / 2**53 <= Fraction(expansions._PI_ERR)


def test_the_reduced_argument_is_rounded_once(monkeypatch):
    """The fold runs at h = r/2, r = x - m*(P1 + P2 + P3 + P4), with m*P4 rounded, rounded
    to the nearest double."""
    folds, fold = [], expansions.eval_backward
    monkeypatch.setattr(expansions, "eval_backward", lambda spec, h, depth: folds.append(h) or fold(spec, h, depth))
    xs = LARGE[:50] + HUGE[:50] + POLES[::97] + PINNED + [LAST_M, -LAST_M]
    for x in xs:
        sec_tan(x)
    pieces = sum(map(Fraction, (expansions._P1, expansions._P2, expansions._P3H, expansions._P3L)))
    rounded = [round(x * 0.6366197723675814) for x in xs]
    assert folds == [float(Fraction(x) - m * pieces - Fraction(m * expansions._P4)) / 2 for x, m in zip(xs, rounded)]


def _fold_and_map_bound(depth: int, h_max: Fraction) -> Fraction:
    """The relative error of the depth-``depth`` x*cot fold and the quadrant map, for |h| <= h_max.

    The tails t_n = (2n+1) - y/t_{n+1}, y = h^2, lie in [2n+1 - y/(n+2), 2n+1] while
    y <= n(n+2).  The fold starts from the set's upper end 2N+1 (the truncation), and a
    step r' = fl(b + fl(a/r)), a = fl(-h*h), maps a relative error e of r to
    (1 + y/(t_k t_{k-1}) * ((1+u)^2/(1-e) - 1)) * (1+u) - 1 (Wilkinson's running error
    analysis).  Every end of the sets, and so every term here, grows with y, so y = h_max^2
    is the worst case.  Then c = c_exact*(1 + e0): h/c and -c/h add one rounding; the maps
    (c +- h)/(c -+ h) scale e0 by at most 2|h|c/(c^2 - h^2) and add three roundings.
    """
    u, y = Fraction(1, 2**53), h_max * h_max
    low = [1 - y / (3 - y / 3)] + [2 * n + 1 - y / (n + 2) for n in range(1, depth + 1)]
    assert y <= 3 and all(t > 0 for t in low)
    e = (y / (depth + 2)) / low[depth]
    for k in range(depth, 0, -1):
        e = (1 + y / (low[k] * low[k - 1]) * ((1 + u) ** 2 / (1 - e) - 1)) * (1 + u) - 1
    c_low = low[0]
    scale = 2 * h_max * c_low / (c_low**2 - y)
    shift = 1 / (1 - h_max / c_low)
    plus_minus = (1 + e * scale / (1 - e * shift)) * (1 + u) ** 2 / (1 - u) - 1
    return max(plus_minus, (1 + u) / (1 - e) - 1)


def test_the_bound_constant_follows_from_the_value_set():
    h_max = Fraction(3927, 10000)
    # |x*2/pi - m| <= 1/2 + 2**21 * 2.01u for a rounded m with |m| < 2**20, so
    # |h| <= pi/8 + pi * 2**-33, plus the reduction's error in r
    assert _pi_over_2() / 4 + Fraction(1, 2**30) < h_max
    derived = _fold_and_map_bound(expansions._SEC_TAN_DEPTH, h_max)
    # an underflow in h = r/2, h*h or the map adds at most 2**-1074 to a magnitude >= 0.4
    assert derived + Fraction(1, 2**1000) <= Fraction(expansions._SEC_TAN_ERR) <= derived * Fraction(101, 100)
    assert _fold_and_map_bound(expansions._SEC_TAN_DEPTH - 2, h_max) > Fraction(expansions._SEC_TAN_ERR)
    assert Fraction(expansions._U) >= Fraction(1, 2**53) * Fraction(107, 100)


@pytest.mark.parametrize("ulps", [1, -1])
def test_one_ulp_off_in_p3_fails_next_to_a_pole(ulps, monkeypatch):
    """One ulp of P3 is one ulp of its low half; it moves r by |m| * 2**-121."""
    assert _misses(sec_tan, PINNED) == []
    p3 = expansions._P3H + expansions._P3L
    monkeypatch.setattr(expansions, "_P3L", expansions._P3L + ulps * math.ulp(p3))
    assert [x for x, *_ in _misses(sec_tan, PINNED)] == PINNED


@pytest.mark.parametrize("planted", ["j = (m + 3) % 4", "j = m % 4", "j = (m + 2) % 4"])
def test_a_wrong_quadrant_map_fails(planted):
    source = inspect.getsource(expansions.sec_tan)
    assert source.count("j = (m + 1) % 4") == 1
    namespace = dict(vars(expansions))
    exec(source.replace("j = (m + 1) % 4", planted), namespace)
    assert _misses(namespace["sec_tan"], [0.5, 2.0, -1.0, 4.0]) != []
