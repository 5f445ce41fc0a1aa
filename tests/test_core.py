import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest

from cfrac import (
    CfSpec,
    DivisionNearZero,
    NoConvergence,
    PolyTerm,
    TermPair,
    continuation_spec,
    core,
    eval_adaptive,
    eval_backward,
    eval_forward,
    eval_lentz,
    halved_value,
    offset_value,
    paired_value,
    poly,
    sec_tan,
    sec_tan_spec,
    term_at,
    xcot_spec,
)

XCOT_1 = 0.6420926159343308  # reference trig: 1/tan(1)
SECTAN_1 = 3.4082234423358275  # reference trig: sec(1) + tan(1)

# Exact convergents of the sec-tan stream at x = 1 (independently recomputed
# by hand / exact rational folding; see also tests in test_exact.py).
FLAT_AT_1 = [
    Fraction(2),
    Fraction(3),
    Fraction(7, 2),
    Fraction(17, 5),
    Fraction(92, 27),
    Fraction(167, 49),
    Fraction(1077, 316),
    Fraction(2321, 681),
]


def test_polyterm_is_exact_at_rational_points():
    p = poly(Fraction(1, 3), -2, Fraction(5, 7))
    x = Fraction(9, 4)
    assert p(x) == Fraction(1, 3) - 2 * x + Fraction(5, 7) * x * x
    assert isinstance(p(x), Fraction)
    assert isinstance(p(0.5), float)


def test_polyterm_stores_ints_where_integral():
    for term in (poly(3, -2, 0), poly(Fraction(6, 2)), poly(3.0), PolyTerm(c2=Fraction(-4, 4))):
        assert all(type(c) is int for c in term.coefficients()), term
    for term in (poly(Fraction(1, 2)), poly(0.5)):
        assert term.c0 == Fraction(1, 2) and type(term.c0) is Fraction
    assert poly(1, 2, 3)(2) == 17 and type(poly(1, 2, 3)(2)) is int
    assert poly(Fraction(6, 2)) == poly(3) and hash(poly(Fraction(6, 2))) == hash(poly(3))


def test_polyterm_normalises_bool_and_int_subclasses():
    class Count(int):
        pass

    for c in (True, Count(3)):
        assert type(poly(c).c0) is int and poly(c) == poly(int(c))


def test_polyterm_str():
    assert str(poly(3)) == "3"
    assert str(poly(0)) == "0"
    assert str(poly(c1=1)) == "x"
    assert str(poly(c1=-1)) == "-x"
    assert str(poly(c2=-1)) == "-x^2"
    assert str(poly(1, 0, -2)) == "-2*x^2 + 1"


def test_termpair_rejects_zero_numerator():
    with pytest.raises(ValueError):
        TermPair(a=poly(0), b=poly(3))


def test_term_at():
    cot = xcot_spec()
    assert term_at(cot, 1, 2.0) == (-4.0, 3.0)
    assert term_at(cot, 3, 1.0) == (-1.0, 7.0)
    assert term_at(sec_tan_spec(), 1, 0.0) == (0.0, 1.0)
    with pytest.raises(ValueError):
        term_at(cot, 0, 1.0)


def test_backward_matches_exact_convergents():
    flat = sec_tan_spec()
    for depth, expected in enumerate(FLAT_AT_1, start=1):
        assert eval_backward(flat, 1.0, depth) == pytest.approx(float(expected), rel=1e-14)


def test_backward_xcot_reference_values():
    cot = xcot_spec()
    assert eval_backward(cot, 0.0, 5) == 1.0
    assert eval_backward(cot, 1.0, 20) == pytest.approx(XCOT_1, rel=1e-13)
    assert abs(eval_backward(cot, math.pi / 2, 40)) < 1e-12  # x*cot(x) vanishes there


def test_backward_validates_depth():
    with pytest.raises(ValueError):
        eval_backward(xcot_spec(), 1.0, 0)


def test_backward_tail_guard():
    with pytest.raises(DivisionNearZero):
        eval_backward(sec_tan_spec(), 1.0, 8, tail=0.0)
    with pytest.raises(DivisionNearZero):
        eval_backward(sec_tan_spec(), 1.0, 8, tail=1e-310)


def test_true_continuation_tail_is_at_least_as_accurate():
    """Substituting the (deeply computed) continuation value for the tail
    must not hurt, measured against the reference function."""
    flat = sec_tan_spec()
    for x in (-1.3, -0.7, 0.5, 1.0, 1.4):
        reference = (1 + math.sin(x)) / math.cos(x)
        for depth in (4, 8, 16, 32):
            plain = eval_backward(flat, x, depth)
            tail = eval_backward(continuation_spec(flat, depth + 1), x, 2 * depth)
            improved = eval_backward(flat, x, depth, tail=tail)
            assert abs(improved - reference) <= abs(plain - reference)


def test_continuation_spec_shifts_indices():
    cot = xcot_spec()
    sub = continuation_spec(cot, 3)
    assert sub.leading == cot.termgen(3).b
    assert sub.termgen(1) == cot.termgen(4)
    with pytest.raises(ValueError):
        continuation_spec(cot, 0)


def test_forward_agrees_with_backward():
    for spec, xs in ((sec_tan_spec(), (-1.2, 0.3, 1.0)), (xcot_spec(), (0.4, 1.0, 2.9))):
        for x in xs:
            convergents = eval_forward(spec, x, 20)
            assert len(convergents) == 20
            assert convergents[-1] == pytest.approx(eval_backward(spec, x, 20), rel=1e-13)


def test_forward_exact_low_convergents():
    convergents = eval_forward(sec_tan_spec(), 1.0, 8)
    for got, expected in zip(convergents, FLAT_AT_1):
        assert got == pytest.approx(float(expected), rel=1e-15)
    # the neighboring truncations often confused for one another:
    assert convergents[4] == pytest.approx(92 / 27, rel=1e-15)  # ~3.4074
    assert convergents[5] == pytest.approx(167 / 49, rel=1e-15)  # ~3.4082


def test_forward_at_zero():
    assert eval_forward(xcot_spec(), 0.0, 6) == [1.0] * 6


def test_forward_rescale_is_invisible():
    """Forcing rescales at a low threshold must not change any convergent."""
    for x in (1.0, 0.7, -1.3):
        default = eval_forward(sec_tan_spec(), x, 12)
        forced = eval_forward(sec_tan_spec(), x, 12, rescale_threshold=10.0)
        assert forced == default


def test_lentz_reference_values():
    report = eval_lentz(xcot_spec(), 1.0, 1e-14, 100)
    assert report.method == "lentz"
    assert report.value == pytest.approx(XCOT_1, rel=1e-13)
    assert report.est_rel_err < 1e-14
    assert report.depth <= 100

    report = eval_lentz(sec_tan_spec(), 0.0, 1e-14, 100)
    assert report.value == 1.0
    assert report.depth <= 2

    report = eval_lentz(sec_tan_spec(), 1.0, 1e-14, 100)
    assert report.value == pytest.approx(SECTAN_1, rel=1e-12)


def test_lentz_no_convergence():
    with pytest.raises(NoConvergence):
        eval_lentz(xcot_spec(), 1.0, 1e-14, 2)


def test_lentz_validates_arguments():
    with pytest.raises(ValueError):
        eval_lentz(xcot_spec(), 1.0, 0.0, 100)
    with pytest.raises(ValueError):
        eval_lentz(xcot_spec(), 1.0, 1e-14, 1)


def test_adaptive_first_probe_at_zero():
    report = eval_adaptive(sec_tan_spec(), 0.0, 1e-12)
    assert report.value == 1.0
    assert report.depth == 8
    assert report.est_rel_err == 0.0
    assert report.method == "backward"


def test_adaptive_reference_values():
    report = eval_adaptive(xcot_spec(), 0.5, 1e-12)
    assert report.value == pytest.approx(0.5 / math.tan(0.5), rel=1e-12)
    assert report.depth <= 64

    report = eval_adaptive(sec_tan_spec(), -0.25, 1e-12)
    reference = (1 + math.sin(-0.25)) / math.cos(-0.25)
    assert report.value == pytest.approx(reference, rel=1e-12)


def test_adaptive_no_convergence_when_capped():
    with pytest.raises(NoConvergence):
        eval_adaptive(sec_tan_spec(), 1.0, 1e-12, max_depth=4)


def test_adaptive_validates_target():
    with pytest.raises(ValueError):
        eval_adaptive(xcot_spec(), 1.0, 0.0)


def test_deterministic_reruns():
    first = eval_adaptive(sec_tan_spec(), 1.1, 1e-12)
    second = eval_adaptive(sec_tan_spec(), 1.1, 1e-12)
    assert first == second


def _no_terms(k):
    raise AssertionError(f"term {k} generated for a non-finite x")


_SILENT = CfSpec(name="silent", leading=poly(1), termgen=_no_terms)

NON_FINITE_CALLS = {
    "eval_backward": lambda x: eval_backward(_SILENT, x, 8),
    "eval_forward": lambda x: eval_forward(_SILENT, x, 8),
    "eval_lentz": lambda x: eval_lentz(_SILENT, x, 1e-12, 100),
    "eval_adaptive": lambda x: eval_adaptive(_SILENT, x, 1e-12),
    "sec_tan": lambda x: sec_tan(x),
    "paired_value": lambda x: paired_value(0, x, 8),
    "offset_value": lambda x: offset_value(0, x, 8),
    "halved_value": lambda x: halved_value(0, x, 8),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("evaluator", list(NON_FINITE_CALLS))
def test_non_finite_x_is_rejected_before_any_term(evaluator, x):
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_CALLS[evaluator](x)


def test_second_evaluation_generates_no_terms():
    calls = []

    def counting(k):
        calls.append(k)
        return xcot_spec().termgen(k)

    spec = CfSpec(name="counting", leading=poly(1), termgen=counting)
    first = eval_backward(spec, 0.7, 40)
    assert sorted(calls) == list(range(1, 41))
    calls.clear()
    assert eval_backward(spec, 0.7, 40) == first
    assert eval_forward(spec, 0.7, 40)[-1] == pytest.approx(first, rel=1e-14)
    eval_backward(spec, 0.7, 40, tail=81.0)  # needs index 41
    assert calls == list(range(41, 83))  # rows 0..40 grow at least twofold
    calls.clear()
    eval_lentz(spec, 0.7, 1e-14, 80)
    eval_adaptive(spec, 0.7, 1e-12, max_depth=64)
    assert term_at(spec, 80, 0.7) == (-0.7 * 0.7, 161.0)
    assert calls == []


def test_deep_table_shares_float_objects():
    """A sec-tan table through index 16388, the depth a sec_tan NoConvergence
    near a pole reaches, holds at most 100 bytes per row once filled."""
    spec = sec_tan_spec.__wrapped__()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        term_at(spec, 16388, 0.0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = len(spec._table[0])
    assert rows == 16389 and held <= 100 * rows


def test_shared_table_under_concurrent_growth():
    """Eight threads deepen the shared sec-tan table from empty, each in its
    own order, and get exactly the values of a serial run on a private copy."""
    spec = sec_tan_spec()
    assert spec is sec_tan_spec()
    xs, depths = (0.7, -1.3), range(1, 513)
    private = sec_tan_spec.__wrapped__()
    expected = {(x, d): eval_backward(private, x, d) for x in xs for d in depths}
    object.__setattr__(spec, "_table", sec_tan_spec.__wrapped__()._table)  # start over, empty
    results, errors = [], []
    start = threading.Barrier(8)

    def worker(seed):
        order = [(x, d) for x in xs for d in depths]
        random.Random(seed).shuffle(order)
        try:
            start.wait(timeout=60)
            results.append({(x, d): eval_backward(spec, x, d) for x, d in order})
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
    rows = len(spec._table[0])  # every coefficient is where a serial fill puts it
    term_at(private, rows - 1, 0.0)
    assert rows >= 513 and all(len(column) == rows for column in spec._table)
    assert all(column == serial[:rows] for column, serial in zip(spec._table, private._table))


def test_table_growth_leaves_published_columns_untouched():
    """A reader holding the published columns keeps them whole while the
    table grows: growth copies into new lists and never appends in place."""
    spec = sec_tan_spec()
    core._rows(spec, 8)
    published = spec._table
    rows = len(published[0])
    snapshot = [list(column) for column in published]
    grown = core._rows(spec, 2 * rows)
    assert grown is spec._table and len(grown[0]) > 2 * rows
    assert [list(column) for column in published] == snapshot
    assert all(len(column) == rows for column in published)
    assert not {id(column) for column in grown} & {id(column) for column in published}
