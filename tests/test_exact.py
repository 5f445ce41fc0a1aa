import copy
import dataclasses
import gc
import math
import random
import sys
import threading
import types
from fractions import Fraction
from math import comb, factorial, gcd

import pytest

from cfrac import (
    CfSpec,
    DegenerateConvergent,
    DivisionByZeroFunction,
    Poly,
    PoleAtOrigin,
    PolyTerm,
    RatFunc,
    TermPair,
    convergent_exact,
    poly_gcd,
    series_from_ratfunc,
    verify_flattening,
    verify_halving_rewrite,
    verify_offset_rewrite,
    verify_pairing,
    verify_series,
    zigzag,
)
from cfrac import exact, expansions
from cfrac.expansions import sec_tan_spec, xcot_spec
from series_reference import alternating_count, poly_add, poly_rem, reference_series

# Zigzag numbers: hand-checkable for small n (1, 1, 1, 2, 5, 16, ...), larger
# entries frozen from the brute-force permutation count in this suite.
ZIGZAG = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792, 2702765]

X = Poly((0, 1))
ONE = Poly((1,))


def test_poly_trims_trailing_zeros():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly(()).is_zero
    assert Poly((0, 0)).is_zero
    assert Poly((0, 0, 3)).coeffs == (0, 0, 3)


def test_poly_arithmetic():
    a = Poly((1, 2, 3))
    b = Poly((0, 1))
    assert poly_add(a, b) == Poly((1, 3, 3))
    assert poly_add(a, Poly((-1, -2, -3))) == Poly(())
    assert a * b == Poly((0, 1, 2, 3))
    assert a(Fraction(2)) == 1 + 4 + 12


def test_poly_keeps_integral_coefficients_as_ints():
    assert [type(c) for c in Poly((Fraction(4, 2), Fraction(1, 3), 5)).coeffs] == [int, Fraction, int]
    assert [type(c) for c in (X * Poly((0, Fraction(1, 2))) * Poly((2,))).coeffs] == [int, int, int]
    # equal whichever exact type a coefficient arrived as
    assert Poly((Fraction(3), 1)) == Poly((3, 1))
    with pytest.raises(TypeError):
        hash(Poly((3, 1)))


def test_divisions_stay_exact_at_int_coefficients():
    # int / int would be a float; every division site must give a Fraction
    monic = poly_gcd(Poly((2, 4)), Poly((0,)))
    assert monic.coeffs == (Fraction(1, 2), 1)
    assert [type(c) for c in monic.coeffs] == [Fraction, int]
    value = RatFunc(Poly((1,)), Poly((3,)))(2)
    assert value == Fraction(1, 3) and type(value) is Fraction
    assert type(Poly((1, 1))(2)) is Fraction
    coeffs = series_from_ratfunc(RatFunc(Poly((1,)), Poly((3, 2))), 6)
    assert coeffs[:2] == [Fraction(1, 3), Fraction(-2, 9)]
    assert all(type(c) is Fraction for c in coeffs)


def test_poly_gcd_of_common_multiples():
    # gcd(g*p, g*q) is monic, divides both products and is divisible by g
    rng = random.Random("gcd")
    for trial in range(400):
        g, p, q = (random_poly(rng, fractions=trial % 2) for _ in range(3))
        if g.is_zero or (p.is_zero and q.is_zero):
            continue
        d = poly_gcd(g * p, g * q)
        assert d.coeffs[-1] == 1 and poly_rem(d, g).is_zero, trial
        assert poly_rem(g * p, d).is_zero and poly_rem(g * q, d).is_zero, trial


def test_poly_gcd_is_monic():
    a = Poly((1, 1)) * Poly((-1, 1))  # x^2 - 1
    b = Poly((-3, 3))
    assert poly_gcd(a, b) == Poly((-1, 1))
    assert poly_gcd(Poly(()), b) == Poly((-1, 1))
    assert poly_gcd(Poly((7, 0, -7)), Poly(())) == a


def test_ratfunc_unreduced_forms_compare_equal():
    # common factors are kept, and equality cross-multiplies past them
    assert RatFunc(X * X, X).den == X
    assert RatFunc(X * X, X) == RatFunc(X)
    assert RatFunc(X * X, X) != RatFunc(X * X)
    assert RatFunc(Poly(()), X) == RatFunc(Poly(()))
    f = RatFunc(ONE, Poly((1, -1)))  # 1/(1-x)
    assert f == RatFunc(Poly((-1,)), Poly((-1, 1)))
    # series extraction cancels the shared power of x first
    assert series_from_ratfunc(RatFunc(X, Poly((0, 1, 1))), 3) == [1, -1, 1, -1]
    assert series_from_ratfunc(RatFunc(Poly(()), X), 2) == [0, 0, 0]


def test_ratfunc_arithmetic():
    # a value type: exact evaluation, no operators, no zero denominator
    f = RatFunc(ONE, Poly((1, -1)))  # 1/(1-x)
    assert f(Fraction(1, 2)) == 2
    with pytest.raises(ZeroDivisionError):
        f(Fraction(1))
    with pytest.raises(DivisionByZeroFunction):
        RatFunc(ONE, Poly(()))
    with pytest.raises(TypeError):
        hash(f)
    with pytest.raises(AttributeError):
        f.num = X
    with pytest.raises(AttributeError):
        X.coeffs = (1,)
    assert RatFunc(Poly((3,))) != 3  # only another RatFunc compares by value


def test_convergent_exact_lowest_depths():
    flat = sec_tan_spec()
    assert convergent_exact(flat, 1) == RatFunc(Poly((1, 1)))
    # depth 3: 1 + x/(1 - x/(2 - x/3)) == (6 + 2x - x^2)/(6 - 4x)
    assert convergent_exact(flat, 3) == RatFunc(Poly((6, 2, -1)), Poly((6, -4)))

    cot = xcot_spec()
    # depth 1: 1 - x^2/3
    assert convergent_exact(cot, 1) == RatFunc(Poly((1, 0, Fraction(-1, 3))))


def test_convergent_exact_matches_float_ladder():
    expected = [
        Fraction(2),
        Fraction(3),
        Fraction(7, 2),
        Fraction(17, 5),
        Fraction(92, 27),
        Fraction(167, 49),
        Fraction(1077, 316),
        Fraction(2321, 681),
    ]
    flat = sec_tan_spec()
    for depth, value in enumerate(expected, start=1):
        assert convergent_exact(flat, depth)(Fraction(1)) == value


def integer_convergent(stream, depth):
    """P_depth, Q_depth as int coefficient lists, from the paper's term definitions.

    x*cot(x) = 1 - x^2/(3 - x^2/(5 - ...)); sec(x)+tan(x) = 1 + x/(1 -
    x/(2 - x/(3 + x/(2 + ...)))), numerators +x, -x, -x, +x repeating and
    denominators k (odd k) or 2 (even k).
    """
    if stream == "xcot":
        power, a, b = 2, (lambda k: -1), (lambda k: 2 * k + 1)
    else:
        power, a, b = 1, (lambda k: 1 if k % 4 in (0, 1) else -1), (lambda k: k if k % 2 else 2)

    def step(k, cur, prev):  # b_k * cur + a_k * x^power * prev
        out = [0] * max(len(cur), len(prev) + power)
        for i, c in enumerate(cur):
            out[i] += b(k) * c
        for i, c in enumerate(prev):
            out[i + power] += a(k) * c
        while out and out[-1] == 0:
            out.pop()
        return out

    p_prev, p, q_prev, q = [1], [1], [], [1]
    for k in range(1, depth + 1):
        p_prev, p = p, step(k, p, p_prev)
        q_prev, q = q, step(k, q, q_prev)
    return p, q


def xcot_from_non_int_scalars():
    """The x*cot(x) stream with its integral coefficients given as Fraction and float."""
    return CfSpec(
        name="xcot",
        leading=PolyTerm(Fraction(1)),
        termgen=lambda k: TermPair(a=PolyTerm(c2=-1.0), b=PolyTerm(Fraction(4 * k + 2, 2))),
    )


@pytest.mark.parametrize(
    "spec",
    [sec_tan_spec(), xcot_spec(), xcot_from_non_int_scalars()],
    ids=["sec-tan", "xcot", "xcot-non-int"],
)
def test_convergent_exact_is_the_integer_recurrence(spec):
    for depth in range(1, exact.MAX_EXACT_DEPTH + 1):
        f = convergent_exact(spec, depth)
        assert all(type(c) is int for c in f.num.coeffs + f.den.coeffs), depth
        assert (list(f.num.coeffs), list(f.den.coeffs)) == integer_convergent(spec.name, depth)


def test_exact_layer_does_not_grow_memory():
    # guards against allocations that survive a call, such as the block that
    # CPython 3.11's math.gcd/math.lcm leak on a starred generator argument
    spec = sec_tan_spec()
    for _ in range(20):
        series_from_ratfunc(convergent_exact(spec, 24), 24)
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(500):
        series_from_ratfunc(convergent_exact(spec, 24), 24)
    gc.collect()
    assert sys.getallocatedblocks() - before < 50


def test_convergent_exact_depth_bounds():
    with pytest.raises(ValueError):
        convergent_exact(sec_tan_spec(), 0)
    with pytest.raises(ValueError):
        convergent_exact(sec_tan_spec(), 65)


def forward_convergent(spec, depth):
    """P_depth, Q_depth as Polys, from the forward three-term recurrence."""
    p_prev, p, q_prev, q = ONE, Poly(spec.leading.coefficients()), Poly(()), ONE
    for k in range(1, depth + 1):
        pair = spec.termgen(k)
        a, b = Poly(pair.a.coefficients()), Poly(pair.b.coefficients())
        p_prev, p = p, poly_add(b * p, a * p_prev)
        q_prev, q = q, poly_add(b * q, a * q_prev)
    return p, q


def test_convergent_exact_degenerate():
    # 1 + 1/(0 + 1/(0 + ...)): Q_n is 0 at odd depths, so only those collapse
    bad = CfSpec(
        name="degenerate",
        leading=PolyTerm(1),
        termgen=lambda k: TermPair(a=PolyTerm(1), b=PolyTerm(0)),
    )
    with pytest.raises(DegenerateConvergent):
        convergent_exact(bad, 1)
    assert convergent_exact(bad, 2) == RatFunc(ONE)
    with pytest.raises(DegenerateConvergent):
        convergent_exact(bad, 3)

    # 1 + x/(1 + x/(0 + x/(x - x^2/x))): b_2 = 0 is inner at depth 4, where the
    # innermost two steps fold to 0 and the next to the pair (x^2, 0), yet Q_4 = x^2
    terms = {1: TermPair(a=PolyTerm(c1=1), b=PolyTerm(1)), 2: TermPair(a=PolyTerm(c1=1), b=PolyTerm(0)),
             3: TermPair(a=PolyTerm(c1=1), b=PolyTerm(c1=1)),
             4: TermPair(a=PolyTerm(c2=-1), b=PolyTerm(c1=1))}
    inner_zero = CfSpec(name="inner-zero", leading=PolyTerm(1), termgen=terms.__getitem__)
    for depth in range(1, 5):
        f = convergent_exact(inner_zero, depth)
        assert (f.num, f.den) == forward_convergent(inner_zero, depth), depth
    assert convergent_exact(inner_zero, 4).den == Poly((0, 0, 1))
    assert convergent_exact(inner_zero, 4) == RatFunc(Poly((1, 1)))


def test_exact_table_generates_each_term_once():
    calls = []

    def counting(k):
        calls.append(k)
        return sec_tan_spec().termgen(k)

    spec = CfSpec(name="counting", leading=sec_tan_spec().leading, termgen=counting)
    first = convergent_exact(spec, 20)
    assert calls == list(range(1, 21))
    calls.clear()
    again, shallower = convergent_exact(spec, 20), convergent_exact(spec, 7)
    assert calls == []
    assert (again.num, again.den) == (first.num, first.den)
    assert (shallower.num, shallower.den) == forward_convergent(spec, 7)
    calls.clear()
    convergent_exact(spec, 30)
    assert calls == list(range(21, 31))  # only the new indices, and none past the depth
    with pytest.raises(ValueError):
        convergent_exact(spec, exact.MAX_EXACT_DEPTH + 1)
    assert len(spec._steps) == 31


@pytest.mark.parametrize("spec", [sec_tan_spec(), xcot_spec()], ids=lambda s: s.name)
def test_exact_table_order_of_depths_does_not_matter(spec):
    depths = range(1, exact.MAX_EXACT_DEPTH + 1)
    ascending, descending = dataclasses.replace(spec), dataclasses.replace(spec)
    up = {d: convergent_exact(ascending, d) for d in depths}
    down = {d: convergent_exact(descending, d) for d in reversed(depths)}
    assert all((up[d].num, up[d].den) == (down[d].num, down[d].den) for d in depths)
    assert ascending._steps == descending._steps
    assert len(descending._steps) == exact.MAX_EXACT_DEPTH + 1


def test_shared_exact_table_under_concurrent_growth():
    """Eight threads grow one fresh spec's exact table, each through depths
    1..64 in its own order, and get exactly the convergents of a serial run;
    the stored steps are those of a serial fill."""
    spec, serial = dataclasses.replace(sec_tan_spec()), dataclasses.replace(sec_tan_spec())
    depths = range(1, exact.MAX_EXACT_DEPTH + 1)
    expected = {d: (f.num, f.den) for d in depths for f in [convergent_exact(serial, d)]}
    results, errors = [], []
    start = threading.Barrier(8)

    def worker(seed):
        order = list(depths)
        random.Random(seed).shuffle(order)
        try:
            start.wait(timeout=60)
            results.append({d: (f.num, f.den) for d in order for f in [convergent_exact(spec, d)]})
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 8
    assert all(result == expected for result in results)
    rows = spec._steps  # the last thread to publish may have grown a shorter copy
    assert 2 <= len(rows) <= exact.MAX_EXACT_DEPTH + 1
    assert rows == exact._steps(dataclasses.replace(sec_tan_spec()), len(rows) - 1)


def test_exact_table_growth_leaves_published_rows_untouched():
    """A reader holding the published steps keeps them whole while the table
    grows: growth copies into a new list and never appends in place."""
    spec = dataclasses.replace(xcot_spec())
    published = exact._steps(spec, 8)
    snapshot = copy.deepcopy(published)
    grown = exact._steps(spec, 20)
    assert grown is spec._steps and len(grown) == 21 and len(published) == 9
    assert published == snapshot
    assert published[-1][1] == [] and grown[8][1] != []  # a_9, first generated by the growth
    assert exact._steps(spec, 5) is grown


def inside_out_fold(spec, t, depth):
    """b0 + a1/(b1 + ... + a_depth/b_depth) at the rational t, innermost first."""
    value = spec.termgen(depth).b(t)
    for k in range(depth - 1, 0, -1):
        value = spec.termgen(k).b(t) + spec.termgen(k + 1).a(t) / value
    return spec.leading(t) + spec.termgen(1).a(t) / value


@pytest.mark.parametrize("spec", [sec_tan_spec(), xcot_spec()], ids=lambda s: s.name)
def test_convergent_exact_matches_inside_out_fold_at_every_depth(spec):
    rng = random.Random(f"fold:{spec.name}")
    for depth in range(1, exact.MAX_EXACT_DEPTH + 1):
        while True:
            t = Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 20))
            try:
                expected = inside_out_fold(spec, t, depth)
            except ZeroDivisionError:  # t is a pole of a partial fold; draw again
                continue
            break
        assert convergent_exact(spec, depth)(t) == expected, (depth, t)


def test_convergent_exact_with_fraction_coefficients():
    # a_k = x/3, b_k = k + x^2/2: int and Fraction coefficients mixed
    spec = CfSpec(
        name="mixed",
        leading=PolyTerm(1, Fraction(1, 3)),
        termgen=lambda k: TermPair(a=PolyTerm(c1=Fraction(1, 3)), b=PolyTerm(k, 0, Fraction(1, 2))),
    )
    rng = random.Random("mixed")
    for depth in range(1, 17):
        f = convergent_exact(spec, depth)
        assert any(type(c) is Fraction for c in f.num.coeffs + f.den.coeffs)
        assert all(type(c) in (int, Fraction) for c in f.num.coeffs + f.den.coeffs)
        t = Fraction(rng.randint(1, 40), rng.randint(1, 20))
        assert f(t) == inside_out_fold(spec, t, depth), (depth, t)
        coeffs = series_from_ratfunc(f, 12)
        assert coeffs == reference_series(f, 12)
        assert all(type(c) is Fraction for c in coeffs)


@pytest.mark.parametrize("spec", [sec_tan_spec(), xcot_spec()], ids=lambda s: s.name)
def test_deepest_convergent_has_a_series(spec):
    coeffs = series_from_ratfunc(convergent_exact(spec, exact.MAX_EXACT_DEPTH), 8)
    assert len(coeffs) == 9 and coeffs[0] == 1


def test_series_from_ratfunc():
    geometric = RatFunc(ONE, Poly((1, -1)))
    assert series_from_ratfunc(geometric, 4) == [1, 1, 1, 1, 1]
    assert series_from_ratfunc(RatFunc(Poly((1, 1))), 2) == [1, 1, 0]
    with pytest.raises(PoleAtOrigin):
        series_from_ratfunc(RatFunc(ONE, X), 3)
    with pytest.raises(ValueError):
        series_from_ratfunc(geometric, -1)


# (f, order): zero taps, negative den_0, shared powers of x, zero numerators, Fraction
# coefficients, and the even functions that are divided in x^2
SERIES_CASES = [
    (RatFunc(ONE, Poly((1, 0, -1))), 7),  # zero taps: 1/(1 - x^2)
    (RatFunc(ONE, Poly((-2, 1))), 5),  # negative den_0
    (RatFunc(X * X * Poly((1, 1)), X * X * Poly((3, -1, 0, 4))), 8),  # shared x^2
    (RatFunc(Poly((2,)), Poly((3, 1, 1))), 12),  # order past len(num)
    (RatFunc(Poly(()), Poly((-5, 1))), 4),  # zero numerator
    (RatFunc(Poly(()), X * X), 3),
    (convergent_exact(xcot_spec(), 33), 67),  # every odd tap of den is zero
    # even functions, divided in x^2
    (RatFunc(Poly((3,)), Poly((2,))), 5),  # constant over constant: not compressed
    (RatFunc(Poly((1, 0, 5)), Poly((2,))), 6),  # even over constant
    (RatFunc(ONE, Poly((1, 0, 0, 0, -1))), 13),  # 1/(1 - x^4)
    (RatFunc(Poly((1, 0, 2)), Poly((1, 1, 1))), 9),  # even over a den with an odd term
    (RatFunc(X, Poly((1, 0, -1))), 7),  # odd over even
    (RatFunc(X * X * Poly((1, 0, -1)), X * X * Poly((2, 0, 3))), 10),  # shared x^2
    (RatFunc(X * Poly((1, 0, -1)), X * Poly((2, 0, 3))), 11),  # shared x, even once cancelled
    (RatFunc(Poly((Fraction(1, 3), 0, 1)), Poly((2, 0, Fraction(-1, 5)))), 11),
    (RatFunc(ONE, Poly((1, 0, -1))), 0),
    (RatFunc(ONE, Poly((1, 0, -1))), 1),
    (convergent_exact(xcot_spec(), 12), 27),
    (convergent_exact(sec_tan_spec(), 24), 24),  # neither even nor odd
    # Fraction coefficients and den_0 < 0, multiplied onto ints with den_0 > 0
    (RatFunc(Poly((Fraction(1, 3), Fraction(-2, 7), 5)), Poly((Fraction(-3, 4), 1, 0, Fraction(5, 6)))), 12),
    (RatFunc(X * Poly((-6, 4, 9)), X * Poly((-6, 0, 0, 10, -15))), 14),  # d0 = -6 shares factors
    (RatFunc(Poly((0, Fraction(-1, 2), 0, 3)), Poly((Fraction(-7, 3), 0, 4))), 15),  # odd over even
]
SERIES_IDS = ["zero-taps", "negative-d0", "shared-x-power", "past-num", "zero-num", "zero-num-over-x2",
              "xcot-33", "even-const-over-const", "even-over-const", "even-1-x4", "even-over-odd-den",
              "odd-over-even", "even-shared-x2", "even-shared-x", "even-fractions", "even-order-0",
              "even-order-1", "xcot-12", "sec-tan-24", "fractions-negative-d0", "negative-d0-shared-x",
              "odd-fractions-negative-d0"]


@pytest.mark.parametrize("f, order", SERIES_CASES, ids=SERIES_IDS)
def test_series_is_long_division(f, order):
    coeffs = series_from_ratfunc(f, order)
    assert coeffs == reference_series(f, order)
    assert all(type(c) is Fraction for c in coeffs)


@pytest.mark.parametrize("f, order", SERIES_CASES, ids=SERIES_IDS)
def test_series_coefficients_are_canonical_fractions(f, order):
    # each coefficient is built without Fraction's constructor, so it must be what that
    # constructor gives: reduced, with a positive denominator, hashed and printed alike
    for c in series_from_ratfunc(f, order):
        n, d = c.numerator, c.denominator
        assert type(c) is Fraction and gcd(n, d) == 1 and d > 0
        assert hash(c) == hash(Fraction(n, d)) and repr(c) == repr(Fraction(n, d))


@pytest.mark.parametrize("f", [
    RatFunc(Poly((Fraction(2, 3), -1, Fraction(1, 6))), Poly((Fraction(-5, 4), Fraction(1, 9), 2))),
    RatFunc(Poly((3, 0, -2, 7)), Poly((-12, 5, 0, 8))),
], ids=["fractions", "negative-d0"])
def test_series_divides_on_ints(monkeypatch, f):
    # Fraction coefficients and den_0 < 0 are multiplied away first: every coefficient is
    # built from ints, and they agree with plain Fraction long division
    original, built = exact._coprime, []
    monkeypatch.setattr(exact, "_coprime", lambda n, d: built.append((type(n), type(d))) or original(n, d))
    assert series_from_ratfunc(f, 20) == reference_series(f, 20)
    assert built == [(int, int)] * 21


def test_series_running_denominator_stays_minimal(monkeypatch):
    # the m of each coefficient's reduction gcd(w_i, m) is the lcm of the denominators so
    # far: (2 + x)/(2 - x) = 1 + x + x^2/2 + x^3/4 + ... needs m = 1, 1, 2, 4, ...
    calls = []
    recording = types.SimpleNamespace(gcd=lambda a, b: calls.append((a, b)) or math.gcd(a, b), lcm=math.lcm)
    monkeypatch.setattr(exact, "math", recording)
    coeffs = series_from_ratfunc(RatFunc(Poly((2, 1)), Poly((2, -1))), 12)
    assert coeffs == [1] + [Fraction(1, 2 ** (n - 1)) for n in range(1, 13)]
    lcms = [math.lcm(*(c.denominator for c in coeffs[: i + 1])) for i in range(13)]
    assert [m for _, m in calls[1::2]] == lcms == [1] + [2**n for n in range(12)]


def test_series_tests_catch_an_unreduced_coefficient(monkeypatch):
    # a planted defect: each coefficient keeps a common factor, as if its gcd were skipped
    original = exact._coprime
    monkeypatch.setattr(exact, "_coprime", lambda n, d: original(3 * n, 3 * d))
    with pytest.raises(AssertionError):
        test_series_of_deep_convergent()
    for case in SERIES_CASES:
        with pytest.raises(AssertionError):
            test_series_is_long_division(*case)


def test_series_of_deep_convergent():
    coeffs = series_from_ratfunc(convergent_exact(sec_tan_spec(), 9), 5)
    assert coeffs == [1, 1, Fraction(1, 2), Fraction(1, 3), Fraction(5, 24), Fraction(2, 15)]


def test_zigzag_table():
    assert [zigzag(n) for n in range(13)] == ZIGZAG
    with pytest.raises(ValueError):
        zigzag(-1)


def test_zigzags_is_every_zigzag_from_one_triangle():
    for n in range(41):
        assert exact._zigzags(n) == [zigzag(i) for i in range(n + 1)]
    # and, apart from the triangle: 2 A(n+1) = sum_k C(n, k) A(k) A(n-k) for n >= 1
    a = exact._zigzags(40)
    for n in range(1, 40):
        assert 2 * a[n + 1] == sum(comb(n, k) * a[k] * a[n - k] for k in range(n + 1)), n


def test_zigzag_matches_brute_force_count():
    for n in range(9):
        assert zigzag(n) == alternating_count(n)


def test_verification_suites_pass():
    assert all(verify_offset_rewrite(k) for k in range(4))
    assert all(verify_halving_rewrite(k) for k in range(4))
    assert all(verify_pairing(m) for m in range(7))
    assert all(verify_flattening(m) for m in range(4))
    assert verify_series(10)


def test_algebraic_suites_build_no_poly(monkeypatch):
    # the four algebraic suites decide on step lists alone, from fresh stream
    # tables: no Poly is constructed and no fold is unpacked into one
    built = []
    original_init = Poly.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original_init(self, *args, **kwargs)

    def no_unpack(*args):
        raise AssertionError("a suite unpacked a fold into a Poly")

    monkeypatch.setattr(Poly, "__init__", counting_init)
    monkeypatch.setattr(exact, "_unpack", no_unpack)
    for name in ("xcot_spec", "sec_tan_spec"):
        fresh = dataclasses.replace(getattr(exact, name)())
        monkeypatch.setattr(exact, name, lambda fresh=fresh: fresh)
    for check, suite in ((verify_pairing, "pairing"), (verify_offset_rewrite, "offset"),
                         (verify_halving_rewrite, "halving"), (verify_flattening, "flatten")):
        assert all(check(m) for m in range(exact.SUITES[suite].default_level + 1)), suite
    assert built == []
    Poly((1,))  # the counter itself counts
    assert built == [((1,),)]


def test_verify_all_reads_every_stream_the_float_layer_folds(monkeypatch):
    # the suites read the very streams expansions folds: the two shared specs and the
    # offset stream of offset_value; given fresh copies, each builds its exact step table
    assert (exact.xcot_spec, exact.sec_tan_spec, exact._OFFSET) == (
        expansions.xcot_spec, expansions.sec_tan_spec, expansions._OFFSET)
    fresh = {name: dataclasses.replace(spec) for name, spec in (
        ("xcot_spec", xcot_spec()), ("sec_tan_spec", sec_tan_spec()), ("_OFFSET", expansions._OFFSET))}
    for name in ("xcot_spec", "sec_tan_spec"):
        monkeypatch.setattr(exact, name, lambda spec=fresh[name]: spec)
    monkeypatch.setattr(exact, "_OFFSET", fresh["_OFFSET"])
    for name, suite in exact.SUITES.items():
        assert suite.check(suite.default_level), name
    assert {name: bool(spec._steps) for name, spec in fresh.items()} == dict.fromkeys(fresh, True)


@pytest.mark.parametrize("index, field, level", [(8, "a", 1), (8, "b", 2), (9, "a", 2), (12, "a", 2)])
def test_a_wrong_offset_term_fails_only_its_level(monkeypatch, index, field, level):
    # row j is (b_j, a_(j+1)), so b_j lies in level j // 4 and a_j in level (j - 1) // 4
    def planted(k):
        pair = expansions._offset_terms(k)
        wrong = PolyTerm(7, 1)  # no term is 7 + x
        return dataclasses.replace(pair, **{field: wrong}) if k == index else pair

    monkeypatch.setattr(exact, "_OFFSET", CfSpec(name="planted", leading=expansions._OFFSET.leading,
                                                 termgen=planted))
    for check in (verify_offset_rewrite, verify_halving_rewrite):
        assert [check(k) for k in range(4)] == [k != level for k in range(4)], check.__name__


def test_series_coefficients_are_zigzag_over_factorial():
    order = 10
    coeffs = series_from_ratfunc(convergent_exact(sec_tan_spec(), 2 * order + 3), order)
    assert coeffs == [Fraction(zigzag(n), factorial(n)) for n in range(order + 1)]


def paper_levels(k, x, t):
    """Each recursion level of the ``expansions`` docstring at x with its next value t."""
    def offset(x, t):
        return 4 * k + 1 - x / (1 - x / (4 * k + 3 + x / (1 + x / t)))

    def halved(x, t):
        return 4 * k + 1 - x / (2 - x / (4 * k + 3 + x / (2 + x / t)))

    paired = 4 * k + 1 - x * x / (4 * k + 3 - x * x / (t + x))  # paired_{k+1} = offset_{k+1} + x
    return {
        "_paired": 4 * k + 1 - x * x / (4 * k + 3 - x * x / t),
        "_offset_lhs": paired - x,
        "_offset_rhs": offset(x, t),
        "_halving_lhs": halved(2 * x, t),  # equals offset(x, t)
        "_halving_rhs": halved(x, t),
    }


def fold_onto(steps, num, den):
    """``exact._fold`` onto the tail num/den: the steps (0, num), (den, 0) under ``steps``."""
    return exact._fold([*steps, exact._step((), num.coeffs), exact._step(den.coeffs, ())])


@pytest.mark.parametrize("x, t", [(Fraction(1, 3), Fraction(7, 4)), (Fraction(-5, 2), Fraction(-3)),
                                  (Fraction(2), Fraction(11, 5))])
def test_factor_lists_fold_to_the_paper_levels(x, t):
    # pins each level's factor list to its formula, apart from the suites
    for k in range(4):
        for name, expected in paper_levels(k, x, t).items():
            factors = getattr(exact, name)(k)
            num, den = fold_onto(factors, Poly((t,)), ONE)
            assert RatFunc(num, den)(x) == expected, (name, k)


@pytest.mark.parametrize("k", range(4))
def test_halving_sides_fold_on_ints(k):
    # halved_k(2x) == offset_k(x) is decided without a Fraction coefficient
    for side in (exact._halving_lhs, exact._offset_rhs):
        for tail in ((ONE, Poly(())), (Poly(()), ONE)):  # t = infinity, t = 0
            for part in fold_onto(side(k), *tail):
                assert all(type(c) is int for c in part.coeffs), (side.__name__, k)


def test_fold_takes_steps_of_any_degree():
    # cubic partial numerators: each product is sized from its step's powers
    steps = [exact._step((1, 2), (1, 0, 0, 3)), exact._step((3,), (0, 0, 0, -2))]
    x, t = Fraction(2, 3), Fraction(-5, 7)
    num, den = fold_onto(steps, Poly((t,)), ONE)
    assert RatFunc(num, den)(x) == 1 + 2 * x + (1 + 3 * x**3) / (3 - 2 * x**3 / t)


def _list_mul_add(b, p, a, r):
    out = [0] * max(b[-1][0] + len(p) if b else 0, a[-1][0] + len(r) if a else 0)
    for term, poly_ in ((b, p), (a, r)):
        for i, c in term:
            for j, pj in enumerate(poly_, i):
                out[j] += c * pj
    while out and not out[-1]:
        out.pop()
    return out


def list_fold(steps, num, den):
    """The fold on coefficient lists, one multiply-add per coefficient per step: the oracle."""
    num, den = list(num.coeffs), list(den.coeffs)
    for b, a in reversed(steps):
        num, den = _list_mul_add(b, num, a, den), num
    return Poly(num), Poly(den)


def typed(pair):
    return [[(type(c), c) for c in p.coeffs] for p in pair]


def random_poly(rng, fractions, big=False):
    def coefficient():
        c = rng.randint(-(2**90), 2**90) if big else rng.randint(-9, 9)
        return Fraction(c, rng.randint(2, 12)) if fractions and rng.random() < 0.3 else c

    return Poly([coefficient() for _ in range(rng.randint(-1, 3) + 1)])  # degree -1: zero


def random_steps(rng, fractions, count=None, big=False):
    return [exact._step(random_poly(rng, fractions, big).coeffs, random_poly(rng, fractions, big).coeffs)
            for _ in range(rng.randint(0, 12) if count is None else count)]


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
@pytest.mark.parametrize("big", [False, True], ids=["small", "big"])
def test_packed_fold_matches_the_list_fold(fractions, big):
    # int, Fraction and negative coefficients, multi-monomial and zero b and a,
    # default, random and zero tails; big coefficients take the byte-string unpack
    rng = random.Random(f"packed:{fractions}:{big}")
    zero = Poly(())
    for trial in range(20 if big else 100):
        steps = random_steps(rng, fractions, count=rng.randint(12, 20) if big else None, big=big)
        tails = [(ONE, zero), (zero, zero), (zero, ONE),
                 (random_poly(rng, fractions), random_poly(rng, fractions))]
        assert typed(exact._fold(steps)) == typed(list_fold(steps, ONE, zero)), trial
        for tail in tails:
            assert typed(fold_onto(steps, *tail)) == typed(list_fold(steps, *tail)), (trial, tail)


@pytest.mark.parametrize("coefficients", [
    (0, 0, -(2**62)),  # sizes sum to M = 2^62, so w = 64: a top coefficient of -2^(w-2)
    (0, -(2**63 - 1)),  # the largest size below 2^(w-1) at w = 64
    (2**62 - 1, -(2**62)),  # sizes summing to 2^63 - 1
    (1, -126),  # w = 8
    (*[0] * 70, -(2**62)),  # 71 digits of 64 bits: the byte-string unpack
    (*[5] * 70, -(2**62) + 350),
], ids=["top", "top-max", "sum-max", "byte", "long-top", "long-sum"])
def test_packed_fold_at_the_width_bound(coefficients):
    # the step (P, 1) folds onto t = infinity to (P, 1), so the coefficients of
    # P reach the bound that sets the width w = 8*ceil((bits(M) + 1)/8)
    bound = sum(map(abs, coefficients))
    w = (bound.bit_length() + 8) // 8 * 8
    assert bound < 2 ** (w - 1) <= 2 * bound + 2
    steps = [exact._step(coefficients, (1,))]
    assert exact._fold(steps) == list_fold(steps, ONE, Poly(())) == (Poly(coefficients), ONE)
    deeper = steps + [exact._step((1,), (1,)), exact._step((-1,), (1,))]
    assert typed(exact._fold(deeper)) == typed(list_fold(deeper, ONE, Poly(())))


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
@pytest.mark.parametrize("s", [-1, 2, 3])
def test_substitution_scales_each_power(fractions, s):
    # _at(steps, s) is steps at s*x: its fold at x is the fold of steps at s*x
    rng = random.Random(f"at:{fractions}:{s}")
    for trial in range(60):
        steps = random_steps(rng, fractions)
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        num, den = exact._fold(exact._at(steps, s))
        ref_num, ref_den = exact._fold(steps)
        assert (num(x), den(x)) == (ref_num(s * x), ref_den(s * x)), trial


def cross_multiplied(lhs, rhs):
    """The tail check on Polys: each side folded onto t = infinity and t = 0, then cross-multiplied."""
    tails = ((ONE, Poly(())), (Poly(()), ONE))
    (a, c), (b, d), (p, r), (q, s) = (list_fold(steps, *t) for steps in (lhs, rhs) for t in tails)
    if (c.is_zero and d.is_zero) or (r.is_zero and s.is_zero):
        return False
    return a * r == p * c and poly_add(a * s, b * r) == poly_add(p * d, q * c) and b * s == q * d


def _raise_top(steps):
    # the same steps with the highest coefficient of the outermost b raised by one
    (b, a), *rest = steps or [([], [])]
    b = b[:-1] + [(b[-1][0], b[-1][1] + 1)] if b else [(0, 1)]
    return [(b, a), *rest]


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
def test_packed_tail_check_matches_poly_cross_multiplication(fractions):
    rng = random.Random(f"agree:{fractions}")
    verdicts = []
    for trial in range(40 if fractions else 120):
        lhs = random_steps(rng, fractions, big=trial % 4 == 0)
        c = random_poly(rng, fractions)
        shift, unshift = exact._shift(c.coeffs), exact._shift(tuple(-v for v in c.coeffs))
        for rhs in (lhs, [*shift, *lhs, *unshift] if trial % 2 else lhs + shift,
                    _raise_top(lhs), random_steps(rng, fractions)):
            verdict = exact._agree_for_every_tail(lambda k: lhs, lambda k: rhs, 0)
            assert verdict == cross_multiplied(lhs, rhs), trial
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("top", [2**62, -(2**62), 2**62 - 1, 1])
def test_packed_tail_check_reads_the_highest_coefficient(top):
    # constant maps t -> P that differ only in the top coefficient of P
    low = [(0, 2**62 - 1), (3, -(2**61))]
    for lhs_top, rhs_top in ((top, top + 1), (top, top - 1), (top, -top), (top, top)):
        lhs, rhs = [([*low, (5, lhs_top)], [])], [([*low, (5, rhs_top)], [])]
        verdict = exact._agree_for_every_tail(lambda k: lhs, lambda k: rhs, 0)
        assert verdict == cross_multiplied(lhs, rhs) == (lhs_top == rhs_top)


def test_packed_tail_check_is_wide_enough_for_the_products():
    # t -> x/(16t) and t -> (16t + x)/(16t + 1): their cross products differ by
    # x - 256*t^2, which vanishes at t = 2^8, x = 2^24.  A width of bits(M) + 2
    # = 8 bits, M = 49 bounding the sides' sums, would call them equal; the
    # products need 2*bits(M) + 1.
    lhs = [exact._step((), (1,)), exact._step((), (16,)), exact._step((), (0, 1))]
    rhs = [exact._step((0, 1), (16, -16)), exact._step((16,), (1,))]
    assert not cross_multiplied(lhs, rhs)
    assert not exact._agree_for_every_tail(lambda k: lhs, lambda k: rhs, 0)


def test_offset_rewrite_detects_sign_flip(monkeypatch):
    original = exact._offset_rhs
    monkeypatch.setattr(exact, "_offset_rhs", lambda k: exact._at(original(k), -1))  # x -> -x
    assert not verify_offset_rewrite(0)


@pytest.mark.parametrize("shift", [1, -1])
def test_offset_rewrite_detects_a_shifted_tail(monkeypatch, shift):
    # right at every x, wrong in t: the tail t becomes t + shift
    original = exact._offset_rhs
    shifted = exact._shift((shift,))
    monkeypatch.setattr(exact, "_offset_rhs", lambda k: original(k) + shifted)
    assert not verify_offset_rewrite(0)
    assert not verify_offset_rewrite(3)


def test_offset_rewrite_decides_every_tail(monkeypatch):
    # t -> 3 - 2/t = (3t - 2)/t fixes t = 1 and t = 2 only, so this right side
    # is still a Moebius map in t that agrees with the true one at two tails
    original = exact._offset_rhs
    moebius = exact._step((3,), (-2,))
    monkeypatch.setattr(exact, "_offset_rhs", lambda k: original(k) + [moebius])
    assert not verify_offset_rewrite(0)


@pytest.mark.parametrize(
    "factors",
    [
        [exact._step((), (1,)), exact._step((1,), (1,))],  # t/(t + 1): differs from t in t^2 only
        [exact._step((), (2,)), exact._step((), (1,))],  # 2t: in t only
        exact._shift((1,)),  # t + 1: in the constant term only
        [exact._step((), ()), exact._step((), ())],  # the pair (0, 0): no function
    ],
    ids=["t^2", "t^1", "t^0", "no-denominator"],
)
def test_tail_decision_reads_each_coefficient_in_t(factors):
    # cross-multiplied against the identity map t -> t (no factors), each of
    # the first three right sides leaves one nonzero coefficient in t; the
    # last leaves none, and fails because it has no denominator
    def identity(k):
        return []

    assert exact._agree_for_every_tail(identity, identity, 0)
    assert not exact._agree_for_every_tail(identity, lambda k: factors, 0)


def _bad_halving(k):
    # the halved level with its 2 replaced by 3
    step, x, minus_x = exact._step, (0, 1), (0, -1)
    return [step((4 * k + 1,), minus_x), step((3,), minus_x), step((4 * k + 3,), x), step((2,), x)]


def _at_minus_x_squared(steps):
    # steps in x^2 alone with x^2 -> -x^2: each coefficient at x^(2j) times (-1)^j
    assert all(i % 2 == 0 for b, a in steps for i, _ in b + a)
    def flip(monomials):
        return [(i, c * (-1) ** (i // 2)) for i, c in monomials]

    return [(flip(b), flip(a)) for b, a in steps]


def test_halving_rewrite_detects_wrong_constant(monkeypatch):
    monkeypatch.setattr(exact, "_halving_rhs", _bad_halving)
    assert not verify_halving_rewrite(0)


def test_pairing_detects_sign_error(monkeypatch):
    def corrupted_spec():
        return CfSpec(
            name="xcot",
            leading=PolyTerm(1),
            termgen=lambda k: TermPair(a=PolyTerm(c2=1), b=PolyTerm(2 * k + 1)),
        )

    monkeypatch.setattr(exact, "xcot_spec", corrupted_spec)
    assert not verify_pairing(0)
    assert not verify_pairing(2)


def test_flattening_detects_sign_error(monkeypatch):
    def corrupted_spec():
        def termgen(k):
            sign = -1 if k % 4 in (0, 1) else 1
            return TermPair(a=PolyTerm(c1=sign), b=PolyTerm(k if k % 2 else 2))

        return CfSpec(name="sec-tan", leading=PolyTerm(1), termgen=termgen)

    monkeypatch.setattr(exact, "sec_tan_spec", corrupted_spec)
    assert not verify_flattening(0)


@pytest.mark.parametrize(
    "index, pair, failing",
    [
        (4, TermPair(a=PolyTerm(c2=-2), b=PolyTerm(9)), {1}),  # a_4 = -2x^2: in step 3, level 1
        (5, TermPair(a=PolyTerm(c2=-1), b=PolyTerm(12)), {2}),  # b_5 = 12: in step 5, level 2
    ],
    ids=["a_4", "b_5"],
)
def test_pairing_decides_each_level_alone(monkeypatch, index, pair, failing):
    # a defect in one x*cot(x) term fails the one level whose steps hold it
    spec = CfSpec(name="xcot", leading=PolyTerm(1),
                  termgen=lambda k: pair if k == index else xcot_spec().termgen(k))
    monkeypatch.setattr(exact, "xcot_spec", lambda: spec)
    assert {m for m in range(32) if not verify_pairing(m)} == failing


def test_series_detects_off_by_one(monkeypatch):
    original = exact._zigzags
    monkeypatch.setattr(exact, "_zigzags",
                        lambda n: [z + (i == 3) for i, z in enumerate(original(n))])
    assert not verify_series(3)


@pytest.mark.parametrize(
    "level, defect, broken",
    [
        ("_paired", lambda original: lambda k: _at_minus_x_squared(original(k)), {"pairing", "offset"}),
        ("_offset_rhs", lambda original: lambda k: exact._at(original(k), -1), {"offset", "halving"}),
        ("_halving_rhs", lambda original: _bad_halving, {"halving", "flatten"}),
    ],
    ids=["paired", "offset", "halved"],
)
def test_neighbouring_suites_share_each_recursion_level(monkeypatch, level, defect, broken):
    # one defect in a level definition breaks the link that builds it and
    # the link that reuses it, and nothing else
    checks = {
        "pairing": lambda: verify_pairing(1),
        "offset": lambda: verify_offset_rewrite(0),
        "halving": lambda: verify_halving_rewrite(0),
        "flatten": lambda: verify_flattening(1),
        "series": lambda: verify_series(6),
    }
    monkeypatch.setattr(exact, level, defect(getattr(exact, level)))
    assert {name for name, check in checks.items() if not check()} == broken


def test_check_level_applies_each_suite_depth_rule():
    exact.check_level("flatten", 15)  # depth 64
    exact.check_level("series", 30)  # depth 63
    exact.check_level("pairing", 31)  # depth 63
    exact.check_level("offset", 31)  # rewrites paired level 31, x*cot(x) rows 62 and 63
    exact.check_level("halving", 15)  # gives halved level 15, sec-tan rows 61..64
    for suite, level in (("flatten", 16), ("series", 31), ("pairing", 32), ("offset", 32), ("halving", 16),
                         ("offset", 10**8), ("halving", 10**8)):
        with pytest.raises(ValueError):
            exact.check_level(suite, level)


def test_verify_validates_arguments():
    with pytest.raises(ValueError):
        verify_pairing(-1)
    with pytest.raises(ValueError):
        verify_flattening(-1)
    with pytest.raises(ValueError):
        verify_series(-1)
    with pytest.raises(ValueError):
        verify_offset_rewrite(-1)
    with pytest.raises(ValueError):
        verify_halving_rewrite(-1)
