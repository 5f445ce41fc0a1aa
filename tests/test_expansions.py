import math

import pytest

from cfrac import (
    DivisionNearZero,
    PolyTerm,
    eval_backward,
    halved_value,
    offset_value,
    paired_value,
    sec_tan,
    sec_tan_spec,
    xcot_spec,
)
from cfrac.core import NoConvergence


def ref_sec_tan(x):
    return (1 + math.sin(x)) / math.cos(x)


def test_xcot_term_stream():
    cot = xcot_spec()
    assert cot.name == "xcot"
    assert cot.leading == PolyTerm(1)
    for k in (1, 2, 5):
        pair = cot.termgen(k)
        assert pair.a == PolyTerm(c2=-1)
        assert pair.b == PolyTerm(2 * k + 1)


def test_sec_tan_term_stream():
    """Numerators cycle +x, -x, -x, +x; denominators are 1, 2, 3, 2, 5, 2, 7, 2."""
    flat = sec_tan_spec()
    assert flat.name == "sec-tan"
    assert flat.leading == PolyTerm(1)
    signs = [1, -1, -1, 1, 1, -1, -1, 1]
    denominators = [1, 2, 3, 2, 5, 2, 7, 2]
    for k, (sign, den) in enumerate(zip(signs, denominators), start=1):
        pair = flat.termgen(k)
        assert pair.a == PolyTerm(c1=sign)
        assert pair.b == PolyTerm(den)


def test_paired_value_base_cases():
    assert paired_value(0, 0.0, 0) == 1.0
    assert paired_value(0, 0.0, 5) == 1.0
    assert paired_value(2, 0.0, 0) == 9.0


def test_paired_value_converges_to_xcot():
    assert paired_value(0, 1.0, 10) == pytest.approx(1 / math.tan(1), rel=1e-12)
    assert paired_value(0, 0.5, 10) == pytest.approx(0.5 / math.tan(0.5), rel=1e-12)


def test_paired_value_with_continuation_tail():
    tail = paired_value(11, 1.0, 10)
    assert paired_value(0, 1.0, 10, tail=tail) == pytest.approx(1 / math.tan(1), rel=1e-14)


def test_paired_value_tail_guard_and_validation():
    with pytest.raises(DivisionNearZero):
        paired_value(0, 1.0, 3, tail=0.0)
    with pytest.raises(ValueError):
        paired_value(-1, 1.0, 3)
    with pytest.raises(ValueError):
        paired_value(0, 1.0, -1)
    for value in (offset_value, halved_value):
        with pytest.raises(ValueError):
            value(-1, 1.0, 3)
        with pytest.raises(ValueError):
            value(0, 1.0, -1)


def test_offset_value_base_cases():
    assert offset_value(0, 0.0, 0) == 1.0
    assert offset_value(1, 0.0, 0) == 5.0


def test_offset_value_is_paired_minus_x():
    for x in (-1.3, -0.4, 0.3, 1.0, 1.4):
        expected = paired_value(0, x, 12) - x
        assert offset_value(0, x, 12) == pytest.approx(expected, rel=1e-10)


def test_offset_value_reference():
    assert offset_value(0, 1.0, 12) == pytest.approx(1 / math.tan(1) - 1, rel=1e-10)


def test_halved_value_is_offset_at_half_argument():
    for x in (-1.4, -0.5, 0.25, 1.0, 1.4):
        assert halved_value(0, x, 12) == pytest.approx(offset_value(0, x / 2, 12), rel=1e-10)


def test_halved_value_reference():
    # 0.5*cot(0.5) - 0.5, reference trig
    assert halved_value(0, 1.0, 16) == pytest.approx(0.415243860856226, rel=1e-12)
    assert halved_value(0, 0.5, 16) == pytest.approx(0.25 / math.tan(0.25) - 0.25, rel=1e-12)


def test_halved_default_tail_is_explicit_tail():
    for levels in (0, 2, 5):
        for x in (-1.0, 0.3, 1.4):
            tail = 4 * (levels + 1) + 1 - x / 2
            assert halved_value(0, x, levels) == halved_value(0, x, levels, tail=tail)


def test_flat_truncation_matches_nested_truncation():
    """Cutting the flat stream at depth 4m+1 is exactly 1 + x divided by the
    nested form unrolled through level m-1 with constant tail 4m+1."""
    flat = sec_tan_spec()
    for m in range(1, 7):
        depth = 4 * m + 1
        for x in [i / 10 for i in range(-14, 15)]:
            nested = 1.0 + x / halved_value(0, x, m - 1, tail=float(depth))
            assert eval_backward(flat, x, depth) == nested


def test_sec_tan_reference_values():
    assert sec_tan(0.0).value == 1.0
    assert sec_tan(1.0).value == pytest.approx(ref_sec_tan(1.0), rel=1e-12)
    assert sec_tan(math.pi / 4).value == pytest.approx(1 + math.sqrt(2), rel=1e-12)
    assert sec_tan(-math.pi / 4).value == pytest.approx(math.sqrt(2) - 1, rel=1e-12)
    assert sec_tan(-0.25).value == pytest.approx(0.7767431027633493, rel=1e-12)


def test_sec_tan_report_fields():
    report = sec_tan(1.0)
    assert report.method == "backward"
    assert report.depth >= 4
    assert report.est_rel_err <= 1e-12


def test_sec_tan_reciprocal_symmetry():
    for x in (0.3, 0.9, 1.4):
        assert sec_tan(x).value * sec_tan(-x).value == pytest.approx(1.0, rel=1e-10)


def test_sec_tan_validation_and_budget():
    with pytest.raises(ValueError):
        sec_tan(1.0, target_rel_err=0.0)
    with pytest.raises(NoConvergence):
        sec_tan(1.0, max_levels=4)


def test_halved_tail_guard():
    with pytest.raises(DivisionNearZero):
        halved_value(0, 1.0, 2, tail=0.0)
