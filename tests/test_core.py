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
    EvalReport,
    NoConvergence,
    PolyTerm,
    TermPair,
    cli,
    core,
    eval_adaptive,
    eval_backward,
    eval_forward,
    eval_lentz,
    exact,
    expansions,
    halved_value,
    offset_value,
    paired_value,
    sec_tan,
    sec_tan_spec,
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


def _term(spec, k, x):
    """(a_k(x), b_k(x)) as doubles, by the kernels' Horner on the spec's float table."""
    a0, a1, a2, b0, b1, b2 = core._rows(spec, k)
    return (a2[k] * x + a1[k]) * x + a0[k], (b2[k] * x + b1[k]) * x + b0[k]


def test_polyterm_is_exact_at_rational_points():
    p = PolyTerm(Fraction(1, 3), -2, Fraction(5, 7))
    x = Fraction(9, 4)
    assert p(x) == Fraction(1, 3) - 2 * x + Fraction(5, 7) * x * x
    assert isinstance(p(x), Fraction)
    assert isinstance(p(0.5), float)


def test_polyterm_stores_ints_where_integral():
    for term in (PolyTerm(3, -2, 0), PolyTerm(Fraction(6, 2)), PolyTerm(3.0), PolyTerm(c2=Fraction(-4, 4))):
        assert all(type(c) is int for c in term.coefficients()), term
    for term in (PolyTerm(Fraction(1, 2)), PolyTerm(0.5)):
        assert term.c0 == Fraction(1, 2) and type(term.c0) is Fraction
    assert PolyTerm(1, 2, 3)(2) == 17 and type(PolyTerm(1, 2, 3)(2)) is int
    assert PolyTerm(Fraction(6, 2)) == PolyTerm(3) and hash(PolyTerm(Fraction(6, 2))) == hash(PolyTerm(3))


def test_polyterm_normalises_bool_and_int_subclasses():
    class Count(int):
        pass

    for c in (True, Count(3)):
        assert type(PolyTerm(c).c0) is int and PolyTerm(c) == PolyTerm(int(c))


def test_polyterm_str():
    assert str(PolyTerm(3)) == "3"
    assert str(PolyTerm(0)) == "0"
    assert str(PolyTerm(c1=1)) == "x"
    assert str(PolyTerm(c1=-1)) == "-x"
    assert str(PolyTerm(c2=-1)) == "-x^2"
    assert str(PolyTerm(1, 0, -2)) == "-2*x^2 + 1"


def test_termpair_rejects_zero_numerator():
    with pytest.raises(ValueError):
        TermPair(a=PolyTerm(0), b=PolyTerm(3))


def test_term_records_are_immutable_tuples():
    """A ``PolyTerm`` is the 3-tuple (c0, c1, c2) and a ``TermPair`` the 2-tuple (a, b), with
    named fields, built alike by position or keyword, with the reprs of the frozen
    dataclasses they once were; ``_replace`` builds through the constructor, so it
    normalises coefficients and rejects a zero a_k as the constructor does."""
    term = PolyTerm(1, Fraction(1, 3), -2)
    assert term == PolyTerm(c0=1, c1=Fraction(1, 3), c2=-2) == (1, Fraction(1, 3), -2)
    assert hash(term) == hash(PolyTerm(c0=1, c1=Fraction(1, 3), c2=-2)) == hash((1, Fraction(1, 3), -2))
    assert repr(term) == "PolyTerm(c0=1, c1=Fraction(1, 3), c2=-2)"
    assert PolyTerm._fields == ("c0", "c1", "c2")
    pair = TermPair(PolyTerm(c2=-1), PolyTerm(3))
    assert pair == TermPair(a=PolyTerm(c2=-1), b=PolyTerm(3)) == ((0, 0, -1), (3, 0, 0))
    assert hash(pair) == hash(TermPair(a=PolyTerm(c2=-1), b=PolyTerm(3)))
    assert repr(pair) == "TermPair(a=PolyTerm(c0=0, c1=0, c2=-1), b=PolyTerm(c0=3, c1=0, c2=0))"
    assert TermPair._fields == ("a", "b")
    for record in (term, pair):
        for name in (*record._fields, "trace"):
            with pytest.raises(AttributeError):
                setattr(record, name, PolyTerm(1))
    three = term._replace(c0=Fraction(6, 2))
    assert three == (3, Fraction(1, 3), -2) and type(three.c0) is int
    assert pair._replace(b=PolyTerm(5)) == TermPair(PolyTerm(c2=-1), PolyTerm(5))
    with pytest.raises(ValueError, match="zero polynomial"):
        pair._replace(a=PolyTerm())


def test_term_subclass_builds_the_tables_of_its_plain_stream():
    """Terms of a ``PolyTerm`` subclass that overrides ``__call__``, built positionally from
    ``coefficients()`` and paired by keyword in a wrapping ``termgen`` (the benchmark's
    tracer times terms so), give the float table and exact steps of the plain stream."""
    class Timed(PolyTerm):
        def __call__(self, x):
            return PolyTerm.__call__(self, x)

    def timed(term):
        return Timed(*term.coefficients())

    for stream in (xcot_spec(), sec_tan_spec()):
        def termgen(k, gen=stream.termgen):
            pair = gen(k)
            return TermPair(a=timed(pair.a), b=timed(pair.b))

        traced = CfSpec(stream.name, timed(stream.leading), termgen)
        plain = CfSpec(stream.name, stream.leading, stream.termgen)
        assert type(traced.termgen(3).b) is Timed and traced.termgen(3).b(0.5) == plain.termgen(3).b(0.5)
        assert core._rows(traced, 40) == core._rows(plain, 40)
        assert exact._steps(traced, 24) == exact._steps(plain, 24)
        for x in (0.7, -20.0):
            assert eval_backward(traced, x, 32) == eval_backward(plain, x, 32)
            assert eval_lentz(traced, x, 1e-14, 64) == eval_lentz(plain, x, 1e-14, 64)


def test_cfspec_is_the_one_dataclass():
    """``CfSpec`` is the only dataclass cfrac defines: the benchmark's tracer copies each
    spec with the dataclass ``replace``, and until it calls the constructor instead, a
    spec stays one, while every other record is a tuple or a plain class."""
    found = [name for module in (core, expansions, exact, cli) for name, obj in vars(module).items()
             if isinstance(obj, type) and obj.__module__ == module.__name__
             and "__dataclass_fields__" in vars(obj)]
    assert found == ["CfSpec"]


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
    with pytest.raises(ValueError):
        eval_forward(xcot_spec(), 1.0, 0)


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
            tail = core._fold(flat, x, depth + 1, 2 * depth)  # b_(depth+1) + a_(depth+2)/(...)
            improved = eval_backward(flat, x, depth, tail=tail)
            assert abs(improved - reference) <= abs(plain - reference)


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
    """Rescales that fire on their own leave every convergent bit-for-bit as
    a forward recurrence that never rescales: x*cot(x) at depth 120, where
    P_n passes the rescale point (about 1e236 at the end) and nothing overflows."""
    spec = xcot_spec()
    for x in (0.7, 3.0):
        p_prev, p, q_prev, q = 1.0, 1.0, 0.0, 1.0  # P_0 = b0 = 1
        plain, peak = [], 0.0
        for n in range(1, 121):
            a, b = _term(spec, n, x)
            p_prev, p = p, b * p + a * p_prev
            q_prev, q = q, b * q + a * q_prev
            plain.append(p / q)
            peak = max(peak, abs(p), abs(q))
        assert core._RESCALE_AT < peak < 1e300
        assert eval_forward(spec, x, 120) == plain


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

    # tan(x) = x/(1 - x^2/(3 - x^2/(5 - ...))): b0 = 0 takes the tiny-value guard at f_0
    tan = CfSpec(name="tan", leading=PolyTerm(0),
                 termgen=lambda k: TermPair(a=PolyTerm(c1=1) if k == 1 else PolyTerm(c2=-1),
                                            b=PolyTerm(2 * k - 1)))
    for x in (0.3, -0.7, 1.2, 2.0):
        report = eval_lentz(tan, x, 1e-14, 100)
        assert (report.value, report.depth, report.est_rel_err) == _generic_lentz(
            _generic_terms(tan, x, 100), 1e-14, 100)
        assert abs(report.value - math.tan(x)) <= 1e-15 * abs(math.tan(x))


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


def test_report_is_an_immutable_record():
    """An ``EvalReport`` is a 4-tuple with named fields, built alike by position or
    keyword, with the repr of the frozen dataclass it once was."""
    report = EvalReport(1.5, 8, 0.0, "backward")
    assert report == EvalReport(value=1.5, depth=8, est_rel_err=0.0, method="backward")
    assert hash(report) == hash(EvalReport(value=1.5, depth=8, est_rel_err=0.0, method="backward"))
    assert repr(report) == "EvalReport(value=1.5, depth=8, est_rel_err=0.0, method='backward')"
    assert EvalReport._fields == ("value", "depth", "est_rel_err", "method")
    for name in (*EvalReport._fields, "trace"):
        with pytest.raises(AttributeError):
            setattr(report, name, 2.0)
    assert report._replace(depth=16) == (1.5, 16, 0.0, "backward")


def test_adaptive_evaluators_probe_through_eval_backward(monkeypatch):
    """Each probe of ``eval_adaptive`` is one call of ``eval_backward`` through its
    module-global name, which is what a wrapper installed there (as the benchmark's
    tracer installs one) counts: probes at depths 4, 8, ..., the report's.  ``sec_tan``
    makes one such call, the x*cot fold at h = r/2 and depth 7."""
    def counted(call):
        expected, calls = call(), []

        def counting(*args):
            calls.append(args)
            return eval_backward(*args)

        with monkeypatch.context() as mp:
            for module in (core, expansions):
                mp.setattr(module, "eval_backward", counting)
            assert call() == expected
        return expected, calls

    expected, calls = counted(lambda: eval_adaptive(xcot_spec(), 0.5, 1e-10))
    probes = [4 << i for i in range(len(calls))]
    assert len(calls) >= 2 and probes[-1] == expected.depth
    assert [args[2] for args in calls] == probes
    expected, calls = counted(lambda: sec_tan(1.0))
    ((spec, h, depth),) = calls
    assert (spec, depth, expected.depth) == (xcot_spec(), 7, 7)
    assert h == pytest.approx((1.0 - math.pi / 2) / 2, rel=1e-15)


def test_adaptive_validates_target():
    with pytest.raises(ValueError):
        eval_adaptive(xcot_spec(), 1.0, 0.0)


NAN_TARGET_CALLS = {
    "eval_adaptive": lambda spec: eval_adaptive(spec, 1.0, math.nan),
    "sec_tan": lambda spec: sec_tan(1.0, math.nan),
    "eval_lentz": lambda spec: eval_lentz(spec, 1.0, math.nan, 100),
}


def _assert_nan_rejected_before_any_term(call, monkeypatch):
    calls = []

    def counting(k):
        calls.append(k)
        return sec_tan_spec().termgen(k)

    spec = CfSpec(name="counting", leading=PolyTerm(1), termgen=counting)
    for factory in ("sec_tan_spec", "xcot_spec"):  # sec_tan folds the x*cot stream
        monkeypatch.setattr(expansions, factory, lambda: spec)
    with pytest.raises(ValueError, match="nan"):
        call(spec)
    assert calls == []


@pytest.mark.parametrize("evaluator", list(NAN_TARGET_CALLS))
def test_nan_target_is_rejected_before_any_term(evaluator, monkeypatch):
    _assert_nan_rejected_before_any_term(NAN_TARGET_CALLS[evaluator], monkeypatch)


NAN_TAIL_CALLS = {
    "eval_backward": lambda spec: eval_backward(spec, 1.0, 8, tail=math.nan),
    "halved_value": lambda spec: halved_value(0, 1.0, 3, tail=math.nan),
}


@pytest.mark.parametrize("evaluator", list(NAN_TAIL_CALLS))
def test_nan_tail_is_rejected_before_any_term(evaluator, monkeypatch):
    _assert_nan_rejected_before_any_term(NAN_TAIL_CALLS[evaluator], monkeypatch)


def test_deterministic_reruns():
    first = eval_adaptive(sec_tan_spec(), 1.1, 1e-12)
    second = eval_adaptive(sec_tan_spec(), 1.1, 1e-12)
    assert first == second


def _no_terms(k):
    raise AssertionError(f"term {k} generated for a non-finite x")


_SILENT = CfSpec(name="silent", leading=PolyTerm(1), termgen=_no_terms)

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

    spec = CfSpec(name="counting", leading=PolyTerm(1), termgen=counting)
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
    assert _term(spec, 80, 0.7) == (-0.7 * 0.7, 161.0)
    assert calls == []


def test_deep_table_shares_float_objects():
    """A sec-tan table through index 16388, 4 * DEFAULT_MAX_DEPTH + 4, holds at
    most 100 bytes per row once filled."""
    spec = sec_tan_spec.__wrapped__()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        core._rows(spec, 16388)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = len(spec._table[0])
    assert rows == 16389 and held <= 100 * rows


def _grow_concurrently(spec, private, xs, depths, expected):
    """Eight threads deepen ``spec``'s table from empty, each in its own order;
    each must get ``expected``, and the table must end as a serial fill of
    ``private`` puts it."""
    object.__setattr__(spec, "_table", CfSpec(spec.name, spec.leading, spec.termgen)._table)  # empty
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
    core._rows(private, rows - 1)
    assert rows > depths[-1] and all(len(column) == rows for column in spec._table)
    assert all(column == serial[:rows] for column, serial in zip(spec._table, private._table))


def test_shared_table_under_concurrent_growth():
    """Eight threads deepen the shared sec-tan table from empty, each in its
    own order, and get exactly the values of a serial run on a private copy."""
    spec = sec_tan_spec()
    assert spec is sec_tan_spec()
    xs, depths = (0.7, -1.3), range(1, 513)
    private = sec_tan_spec.__wrapped__()
    expected = {(x, d): eval_backward(private, x, d) for x in xs for d in depths}
    _grow_concurrently(spec, private, xs, depths, expected)


def _late_terms(k: int) -> TermPair:
    """sec-tan's terms until k = 40; from there a_k gains -x^2/16 and b_k gains x/4."""
    late = k >= 40
    a = PolyTerm(0, 1 if k % 4 in (0, 1) else -1, Fraction(-1, 16) if late else 0)
    return TermPair(a=a, b=PolyTerm(k if k % 2 else 2, Fraction(1, 4) if late else 0))


def _late_spec() -> CfSpec:
    return CfSpec(name="late", leading=PolyTerm(1), termgen=_late_terms)


def _horner(term, x):
    """term(x) by the generic float Horner form, from the exact coefficients."""
    c0, c1, c2 = map(float, term.coefficients())
    return (c2 * x + c1) * x + c0


def _generic_terms(cf, x, depth):
    """[(a_k(x), b_k(x)) for k = 0..depth], a_0 unused, by the generic Horner form."""
    return [(0.0, _horner(cf.leading, x))] + [
        (_horner(pair.a, x), _horner(pair.b, x)) for pair in map(cf.termgen, range(1, depth + 1))]


def _generic_backward(terms, depth):
    r = terms[depth][1]
    for k in range(depth, 0, -1):
        r = terms[k - 1][1] + terms[k][0] / r
    return r


def _generic_forward(terms, depth):
    p_prev, p_cur, q_prev, q_cur, out = 1.0, terms[0][1], 0.0, 1.0, []
    for a_n, b_n in terms[1 : depth + 1]:
        p_next, q_next = b_n * p_cur + a_n * p_prev, b_n * q_cur + a_n * q_prev
        if max(abs(p_next), abs(q_next)) > core._RESCALE_AT:
            p_next, q_next, p_cur, q_cur = (v * core._RESCALE for v in (p_next, q_next, p_cur, q_cur))
        out.append(p_next / q_next)
        p_prev, p_cur, q_prev, q_cur = p_cur, p_next, q_cur, q_next
    return out


def _generic_lentz(terms, eps, max_terms):
    """(value, depth, |delta - 1|) of the modified Lentz iteration, or None past ``max_terms``."""
    f = terms[0][1] if abs(terms[0][1]) >= core.TINY_GUARD else core.TINY_GUARD
    c_prev, d_prev = f, 0.0
    for j, (a_j, b_j) in enumerate(terms[1 : max_terms + 1], 1):
        d_cur = b_j + a_j * d_prev
        d_cur = 1.0 / (d_cur if abs(d_cur) >= core.TINY_GUARD else core.TINY_GUARD)
        c_cur = b_j + a_j / c_prev
        c_cur = c_cur if abs(c_cur) >= core.TINY_GUARD else core.TINY_GUARD
        delta = c_cur * d_cur
        f *= delta
        c_prev, d_prev = c_cur, d_cur
        if abs(delta - 1.0) < eps:
            return f, j, abs(delta - 1.0)
    return None


def test_lentz_restarts_at_every_table_length():
    """Lentz on a fresh stream whose table holds exactly L rows, L = 2..48, with the
    budget one short of, at and one past the depth d where the generic iteration stops:
    whether the rows run out before, at or after step d, a restart on a longer table
    gives the generic report, or NoConvergence as it does."""
    for stream in (sec_tan_spec(), xcot_spec(), expansions._OFFSET):
        for x in (0.3, -1.1, 2.5, -6.0):
            terms = _generic_terms(stream, x, 100)
            depth = _generic_lentz(terms, 1e-14, 100)[1]
            for max_terms in (depth - 1, depth, depth + 1):
                expected = _generic_lentz(terms, 1e-14, max_terms)
                expected = "NoConvergence" if expected is None else (
                    expected[0].hex(), expected[1], expected[2].hex())
                for rows in range(2, 49):
                    spec = CfSpec(stream.name, stream.leading, stream.termgen)
                    assert len(core._rows(spec, rows - 1)[0]) == rows
                    assert _outcome(lambda: eval_lentz(spec, x, 1e-14, max_terms)) == expected, (
                        stream.name, x, max_terms, rows)


LATE_XS = (0.5, -3.0, 12.0, 30.0, -20.0, -45.0)


def _follows_late_shape(late_spec):
    """Each kernel on fresh tables of ``late_spec()``, whose shape changes at k = 40, gives
    the generic Horner fold's bits: at depths 30 and 80, the latter also on a table first
    grown to 30 only, and in Lentz, which starts again on a longer table of the new shape,
    also from a table grown to 30."""
    past_40 = 0
    for x in LATE_XS:
        terms = _generic_terms(late_spec(), x, 200)
        for depth in (30, 80):
            assert eval_backward(late_spec(), x, depth) == _generic_backward(terms, depth)
            assert eval_forward(late_spec(), x, depth) == _generic_forward(terms, depth)
        spec = late_spec()
        eval_backward(spec, x, 30)
        eval_forward(spec, x, 30)
        assert eval_backward(spec, x, 80) == _generic_backward(terms, 80)
        spec = late_spec()
        eval_forward(spec, x, 30)
        assert eval_forward(spec, x, 80) == _generic_forward(terms, 80)
        for eps in (1e-14, 1e-16):
            expected = _generic_lentz(terms, eps, 200)
            grown = late_spec()
            core._rows(grown, 30)
            for spec in (late_spec(), grown):
                report = eval_lentz(spec, x, eps, 200)
                assert (report.value, report.depth, report.est_rel_err) == expected
            past_40 += report.depth > 40
    assert past_40 >= 4  # rows of both shapes read in one call


def test_kernels_follow_a_shape_that_changes_with_depth():
    """A stream whose a_k gains an x^2 and whose b_k gains an x coefficient at k = 40."""
    _follows_late_shape(_late_spec)


def _late_xcot_spec() -> CfSpec:
    """x*cot(x)'s terms, but a_k = -x^2 + x/8 from k = 40: a_k is the same on rows 1-39 only."""
    return CfSpec(name="late xcot", leading=PolyTerm(1), termgen=lambda k: TermPair(
        a=PolyTerm(0, Fraction(1, 8) if k >= 40 else 0, -1), b=PolyTerm(2 * k + 1)))


def test_kernels_follow_a_numerator_that_stops_being_the_same():
    """The shape of ``_late_xcot_spec`` has ``_SAME_A`` from two term rows through row 39
    and not past it, on a fresh table and on one grown in steps, and its kernels give the
    generic bits."""
    same = core._SAME_A | 0b110011  # a0 a1 b1 b2 all zero
    for steps in ((39,), (18, 39), (1, 2, 9, 39)):  # 40, 19 + 21 and 2 + 3 + 6 + 29 rows
        spec = _late_xcot_spec()
        for last in steps:
            table = core._rows(spec, last)
            assert table[0][0] == (same if len(table[0]) > 2 else same ^ core._SAME_A)
        assert len(spec._table[0]) == 40
        assert core._rows(spec, 40)[0][0] == same ^ core._SAME_A ^ 0b10  # a1 = 1/8 from k = 40
    assert core._rows(_late_xcot_spec(), 40)[0][0] == 0b110001
    _follows_late_shape(_late_xcot_spec)


def test_shared_table_under_concurrent_growth_of_a_changing_shape():
    """``test_shared_table_under_concurrent_growth`` on streams whose shape changes
    at k = 40, one of them by losing ``_SAME_A``, against the generic Horner fold."""
    xs, depths = (0.7, 12.0), range(1, 161)
    for late_spec in (_late_spec, _late_xcot_spec):
        terms = {x: _generic_terms(late_spec(), x, depths[-1]) for x in xs}
        expected = {(x, d): _generic_backward(terms[x], d) for x in xs for d in depths}
        _grow_concurrently(late_spec(), late_spec(), xs, depths, expected)


def _shaped_spec(shape: int, varying=(0, 1, 2)) -> CfSpec:
    """A stream whose columns that ``shape`` marks are all zero, and every other entry nonzero.

    Each b column changes with k, and so does each a column in ``varying``, unless
    ``shape`` has ``_SAME_A``; every other a column holds its value at k = 1."""
    def terms(k, bits, varying=(0, 1, 2)):
        return PolyTerm(*(0 if bits >> i & 1 else Fraction((-1) ** (n + i) * (n + i + 1), i + 2)
                          for i, n in ((i, k if i in varying else 1) for i in range(3))))

    varying = () if shape & core._SAME_A else varying
    return CfSpec(name=f"shape {shape}", leading=terms(0, shape >> 3 & 7),
                  termgen=lambda k: TermPair(a=terms(k, shape, varying), b=terms(k, shape >> 3 & 7)))


def _outcome(thunk):
    try:
        result = thunk()
    except (ArithmeticError, RuntimeError) as err:
        return type(err).__name__
    if isinstance(result, list):
        return [v.hex() for v in result]
    if isinstance(result, float):
        return result.hex()
    return result.value.hex(), result.depth, result.est_rel_err.hex()


def test_every_shape_gives_the_bits_of_the_generic_kernel():
    """Each kernel compiled for a shape gives the bits (or the exception) of the kernel
    compiled for no zero column, today's generic Horner loop, on the same table:
    at signed zeros, subnormals, and where x*x underflows or overflows.  At x = +-1e-170
    a -0.0 that a dropped ``+ 0.0`` would leave shows in a first convergent.  The
    shapes with ``_SAME_A`` come from streams whose a_k does not depend on k; a stream
    in which one a column alone changes with k has no ``_SAME_A``, whichever it is."""
    assert core._term("a", "k", 0) == "(a2[k] * x + a1[k]) * x + a0[k]"
    assert core._term("b", "j", 0) == "(b2[j] * x + b1[j]) * x + b0[j]"
    assert core._term("a", "k", core._SAME_A | 0b110011) == "a"
    assert core._term("b", "j", core._SAME_A | 0b110011) == "b0[j]"
    xs = [0.7, -1.3, 30.0, 0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-160, 1e-170, -1e-170, 1e20, -1e200]
    # an index that still holds the stub compiles the shape of the table it is given, so
    # index 0 is first compiled on a shape-0 table, which makes it the generic kernel
    generic = core._rows(_shaped_spec(0), 16)
    core._FOLD[0](generic, 0.7, 0, 1, None)
    core._LENTZ[0](generic, 0.7, 1e-14, 64)
    core._FORWARD[0](generic, 0.7, 1)
    one_varying = [(shape, (i,)) for shape in range(7) for i in range(3) if not shape >> i & 1]
    for shape, varying in [(shape, (0, 1, 2)) for shape in range(2 * core._SAME_A)] + one_varying:
        if shape & 7 == 7:  # every a column zero: a_k = 0 is no term
            continue
        spec = _shaped_spec(shape, varying)
        table = core._rows(spec, 16)
        assert table[0][0] == shape
        for x in xs:
            def outcomes(s):
                return [_outcome(lambda: core._FOLD[s](table, x, start, start + depth, tail))
                        for start in (0, 3) for depth in (1, 2, 9) for tail in (None, 2.5, -1e-290)] + [
                    _outcome(lambda: core._LENTZ[s](table, x, 1e-14, 12))] + [
                    _outcome(lambda: core._FORWARD[s](table, x, depth)) for depth in (1, 2, 12)]

            assert outcomes(shape) == outcomes(0), (shape, x)


def test_regular_fraction_runs_the_kernels_of_a_constant_numerator():
    """sqrt(2) = 1 + 1/(2 + 1/(2 + ...)), a_k = 1 and b_k = 2 on every row: each kernel
    gives the generic bits at every x, and the adaptive fold reaches sqrt(2) itself."""
    spec = CfSpec(name="sqrt 2", leading=PolyTerm(1),
                  termgen=lambda k: TermPair(a=PolyTerm(1), b=PolyTerm(2)))
    for x in (0.0, 1.5, -3.0):
        terms = _generic_terms(spec, x, 64)
        for depth in (1, 2, 5, 64):
            assert eval_backward(spec, x, depth) == _generic_backward(terms, depth)
            assert eval_forward(spec, x, depth) == _generic_forward(terms, depth)
        for eps in (1e-8, 1e-15):
            report = eval_lentz(CfSpec(spec.name, spec.leading, spec.termgen), x, eps, 64)
            assert (report.value, report.depth, report.est_rel_err) == _generic_lentz(terms, eps, 64)
    assert spec._table[0][0] == core._SAME_A | 0b110110  # a1 a2 b1 b2 all zero
    report = eval_adaptive(spec, 0.0, 1e-15)
    assert (report.value, report.depth) == (math.sqrt(2), 64)


def test_kernels_are_compiled_once_per_shape():
    """The sec-tan and x*cot(x) steps drop their zero columns, and x*cot(x)'s a_k = -x^2,
    the same on every row, is computed once before the loop; one kernel per shape, named by it."""
    for spec, step, zero, same in (
            (sec_tan_spec(), "(b0[j]) + (a1[k] * x + 0.0) / r", "a0 a2 b1 b2", ""),
            (xcot_spec(), "(b0[j]) + (a) / r", "a0 a1 b1 b2", ", a_k the same on every row")):
        eval_backward(spec, 0.7, 8)
        shape = spec._table[0][0]
        kernel = core._FOLD[shape]
        assert f"r = ({core._term('b', 'j', shape)}) + ({core._term('a', 'k', shape)}) / r" == f"r = {step}"
        assert kernel.__code__.co_filename == f"<cfrac.core fold kernel, zero columns: {zero}{same}>"
        if same:  # the line before the loop
            assert core._term("a", "1", shape ^ core._SAME_A) == "(a2[1] * x + 0.0) * x + 0.0"
        eval_backward(spec, -1.3, 16)
        assert core._FOLD[spec._table[0][0]] is kernel


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
