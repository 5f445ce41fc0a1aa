"""Every public float evaluator, pinned bit for bit.

``float_golden.json`` holds, for a fixed grid of calls, each result as
``float.hex`` (a list of them for ``eval_forward``; value, depth and error
estimate for an ``EvalReport``) or ``!`` plus the name of the exception the
call raised.  The table was written by the nested evaluators that
``sec_tan``, ``paired_value``, ``offset_value`` and ``halved_value`` used
before they became folds over one term stream, so this test is what holds
the folds to the same bits.  The ``EXTREME`` rows, where x*x or a term
overflows or underflows, were written by the kernels as they were before
their per-step guards became comparisons on locals.  The ``dense`` and
``mixed`` user streams (every coefficient column nonzero; a_k = c*x^2 over
b_k affine in x) pin shapes the paper's two streams lack; their rows were
written by the generic Horner loops, before each kernel was compiled per
set of all-zero coefficient columns.

Regenerate the table only for a deliberate change of values:

    PYTHONPATH=src python tests/test_float_golden.py
"""

import json
import math
from fractions import Fraction
from pathlib import Path

from cfrac import (
    CfSpec,
    TermPair,
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
    xcot_spec,
)

GOLDEN = Path(__file__).with_name("float_golden.json")

SMOOTH = [-1.4, -1.0, -0.5, -0.1, 0.0, 0.3, 0.7, 1.0, 1.3, 1.5]
LARGE = [-30.0, -4 * math.pi, -2 * math.pi, -5.0, 2.5, 3.0, 7.7, 12.0, 30.0]
NEAR_POLE = [math.pi / 2] + [math.pi / 2 + s * 2.0**-k for k in (10, 26, 40, 52) for s in (-1, 1)]
GRID = SMOOTH + LARGE + NEAR_POLE
# where x*x or a term overflows or underflows: NaN and inf intermediates, Lentz
# guard hits and rescales on inf (+0.0 is in SMOOTH)
EXTREME = [-0.0, 5e-324, -5e-324, 1e-300, 1e-160] + [
    s * m for m in (1e20, 1e150, 1e200, 1e300, 1.7976931348623157e308) for s in (1, -1)]


def _encode(result):
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, tuple):
        return [_encode(v) for v in result]
    if isinstance(result, list):
        return [v.hex() for v in result]
    return [result.value.hex(), result.depth, result.est_rel_err.hex(), result.method]


# user streams: all six coefficient columns nonzero, and a = c*x^2 over b affine in x
DENSE = CfSpec(name="dense", leading=poly(1, Fraction(1, 3), Fraction(1, 5)), termgen=lambda k: TermPair(
    a=poly(Fraction(1, k + 1), Fraction((-1) ** k, 3), Fraction(-1, 2 * k + 1)),
    b=poly(2 * k + 1, Fraction(1, 2), Fraction(1, 7))))
MIXED = CfSpec(name="mixed", leading=poly(1, Fraction(1, 2)), termgen=lambda k: TermPair(
    a=poly(c2=Fraction(-1, 4 * k * k - 1)), b=poly(2 * k + 1, Fraction(1, 2))))


def _calls():
    """(key, thunk) for every pinned call."""
    specs = {"sec-tan": sec_tan_spec(), "xcot": xcot_spec(), "dense": DENSE, "mixed": MIXED}
    for x in GRID + EXTREME:
        h = x.hex()
        yield f"sec_tan({h})", lambda x=x: sec_tan(x)
        yield f"sec_tan({h}, 1e-6)", lambda x=x: sec_tan(x, 1e-6)
        yield f"sec_tan({h}, 1e-12, 8)", lambda x=x: sec_tan(x, max_levels=8)
        for name, spec in specs.items():
            yield f"eval_adaptive({name}, {h})", lambda s=spec, x=x: eval_adaptive(s, x, 1e-12)
            yield f"eval_adaptive({name}, {h}, 1e-6)", lambda s=spec, x=x: eval_adaptive(s, x, 1e-6)
            yield f"eval_adaptive({name}, {h}, 1e-12, 16)", (
                lambda s=spec, x=x: eval_adaptive(s, x, 1e-12, max_depth=16))
            yield f"eval_lentz({name}, {h})", lambda s=spec, x=x: eval_lentz(s, x, 1e-14, 500)
            yield f"eval_lentz({name}, {h}, 1e-14, 12)", (
                lambda s=spec, x=x: eval_lentz(s, x, 1e-14, 12))
            yield f"eval_forward({name}, {h})", lambda s=spec, x=x: eval_forward(s, x, 12)
            for depth in (1, 5, 32):
                yield f"eval_backward({name}, {h}, {depth})", (
                    lambda s=spec, x=x, d=depth: eval_backward(s, x, d))
                tail = 2 * depth + 3 - x / 2
                yield f"eval_backward({name}, {h}, {depth}, {tail.hex()})", (
                    lambda s=spec, x=x, d=depth, t=tail: eval_backward(s, x, d, tail=t))
        for fn in (paired_value, offset_value, halved_value):
            for k in (0, 3):
                for levels in (0, 5):
                    yield f"{fn.__name__}({k}, {h}, {levels})", (
                        lambda f=fn, k=k, x=x, n=levels: f(k, x, n))
                    yield f"{fn.__name__}({k}, {h}, {levels}, 9.5)", (
                        lambda f=fn, k=k, x=x, n=levels: f(k, x, n, tail=9.5))
    for name, spec in specs.items():
        for tail in (0.0, 1e-299):  # below and just above POLE_THRESHOLD
            yield f"eval_backward({name}, 1.0, 8, {tail!r})", (
                lambda s=spec, t=tail: eval_backward(s, 1.0, 8, tail=t))


def _run(thunk):
    try:
        return _encode(thunk())
    except (ArithmeticError, RuntimeError) as err:  # DivisionNearZero, NoConvergence, ...
        return "!" + type(err).__name__


def test_every_pinned_call_is_bit_identical():
    golden = json.loads(GOLDEN.read_text())
    calls = dict(_calls())
    assert set(calls) == set(golden)
    mismatches = [key for key, thunk in calls.items() if _run(thunk) != golden[key]]
    assert not mismatches, mismatches[:10]


def test_golden_table_covers_every_outcome():
    values = json.loads(GOLDEN.read_text()).values()
    outcomes = {v for v in values if isinstance(v, str) and v.startswith("!")}
    assert {"!DivisionNearZero", "!NoConvergence"} <= outcomes
    assert sum(not isinstance(v, str) or not v.startswith("!") for v in values) > 1000


def test_forward_rescale_ignores_a_nan_numerator():
    """No rescale at a NaN P_n, however large Q_n is, as with max(|P_n|, |Q_n|) > 1e150.

    P_2 overflows to inf, so P_3 = 0*inf + a_3*P_1 is NaN while Q_3 = a_3*Q_1 is
    about 3e151.  Rescaling there as well would take Q_4 below POLE_THRESHOLD.
    """
    terms = {1: (10**149, 1), 2: (1, 10**300), 3: (10**302, 0), 4: (Fraction(1, 10**310),) * 2}
    spec = CfSpec(name="nan-numerator", leading=poly(1),
                  termgen=lambda k: TermPair(a=poly(terms[k][0]), b=poly(terms[k][1])))
    assert _encode(eval_forward(spec, 1.0, 4)) == ["0x1.f485516e7577fp+494", "inf", "nan", "nan"]


if __name__ == "__main__":
    table = {key: _run(thunk) for key, thunk in _calls()}
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(table.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} entries to {GOLDEN}")
