"""Acceptance gate: the eight headline requirements, one pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines; the
suite is also part of the plain `pytest` run.
"""

import itertools
import json
import math
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

from cfrac import (
    CfSpec,
    PolyTerm,
    TermPair,
    convergent_exact,
    eval_backward,
    eval_forward,
    eval_lentz,
    halved_value,
    offset_value,
    paired_value,
    sec_tan,
    sec_tan_spec,
    series_from_ratfunc,
    xcot_spec,
    zigzag,
)
from cfrac import exact
from cfrac.cli import main
from series_reference import alternating_count

# 29 points: -1.4, -1.3, ..., 1.4
SEC_TAN_GRID = [i / 10 for i in range(-14, 15)]
# 0.1, 0.2, ..., 3.0 minus anything within 0.05 of pi (nothing, as it happens)
XCOT_GRID = [i / 10 for i in range(1, 31) if abs(i / 10 - math.pi) >= 0.05]


def ref_sec_tan(x: float) -> float:
    return (1 + math.sin(x)) / math.cos(x)


def ref_xcot(x: float) -> float:
    return x / math.tan(x)


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(value), abs(reference), 1e-300)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL [{number}/8] {label}")
        raise
    print(f"PASS [{number}/8] {label}")


def test_criterion_1_derivation_chain_verified_exactly(monkeypatch):
    with criterion(1, "exact derivation-step verification, mutation-sensitive"):
        assert all(exact.verify_offset_rewrite(k) for k in range(6))
        assert all(exact.verify_halving_rewrite(k) for k in range(6))
        assert all(exact.verify_pairing(m) for m in range(9))
        assert all(exact.verify_flattening(m) for m in range(4))
        assert exact.verify_series(12)

        # every suite must be able to fail: plant one defect per identity
        original_offset = exact._offset_rhs
        with monkeypatch.context() as mp:
            mp.setattr(exact, "_offset_rhs", lambda k: exact._at(original_offset(k), -1))  # x -> -x
            assert not exact.verify_offset_rewrite(0)

        def bad_halving(k):  # the halved level with its 2 replaced by 3
            step, x, minus_x = exact._step, (0, 1), (0, -1)
            return [step((4 * k + 1,), minus_x), step((3,), minus_x), step((4 * k + 3,), x), step((2,), x)]

        with monkeypatch.context() as mp:
            mp.setattr(exact, "_halving_rhs", bad_halving)
            assert not exact.verify_halving_rewrite(0)

        with monkeypatch.context() as mp:
            mp.setattr(
                exact,
                "xcot_spec",
                lambda: CfSpec(
                    name="xcot",
                    leading=PolyTerm(1),
                    termgen=lambda k: TermPair(a=PolyTerm(c2=1), b=PolyTerm(2 * k + 1)),
                ),
            )
            assert not exact.verify_pairing(1)

        def flipped_flat():
            def termgen(k):
                sign = -1 if k % 4 in (0, 1) else 1
                return TermPair(a=PolyTerm(c1=sign), b=PolyTerm(k if k % 2 else 2))

            return CfSpec(name="sec-tan", leading=PolyTerm(1), termgen=termgen)

        with monkeypatch.context() as mp:
            mp.setattr(exact, "sec_tan_spec", flipped_flat)
            assert not exact.verify_flattening(1)

        original_zigzags = exact._zigzags
        with monkeypatch.context() as mp:
            mp.setattr(exact, "_zigzags",
                       lambda n: [z + (i == 3) for i, z in enumerate(original_zigzags(n))])
            assert not exact.verify_series(3)


def test_criterion_2_sec_tan_headline_identity():
    with criterion(2, "sec(x)+tan(x) within 1e-12 relative on the 29-point grid"):
        assert len(SEC_TAN_GRID) == 29
        for x in SEC_TAN_GRID:
            assert rel_err(sec_tan(x).value, ref_sec_tan(x)) <= 1e-12, x


def test_criterion_3_xcot_identity():
    with criterion(3, "x*cot(x) within 1e-12 relative on the (0, 3] grid"):
        from cfrac import eval_adaptive

        for x in XCOT_GRID:
            value = eval_adaptive(xcot_spec(), x, 1e-12).value
            assert rel_err(value, ref_xcot(x)) <= 1e-12, x


def test_criterion_4_definition_chain_numeric():
    with criterion(4, "offset == paired - x and halved == offset(x/2) within 1e-10"):
        levels = 16
        for x in SEC_TAN_GRID:
            paired = paired_value(0, x, levels)
            offset = offset_value(0, x, levels)
            halved = halved_value(0, x, levels)
            assert rel_err(offset, paired - x) <= 1e-10, x
            assert rel_err(halved, offset_value(0, x / 2, levels)) <= 1e-10, x


def test_criterion_5_series_oracle():
    with criterion(5, "depth-27 convergent series == zigzag(n)/n!, zigzag cross-checked"):
        coefficients = series_from_ratfunc(convergent_exact(sec_tan_spec(), 27), 12)
        assert coefficients == [Fraction(zigzag(n), factorial(n)) for n in range(13)]
        brute = [alternating_count(n) for n in range(9)]
        assert brute == [zigzag(n) for n in range(9)]
        assert brute == [1, 1, 1, 2, 5, 16, 61, 272, 1385]


def test_criterion_6_method_cross_agreement():
    with criterion(6, "backward/forward/Lentz agree pairwise within 1e-12"):
        cases = [(sec_tan_spec(), SEC_TAN_GRID), (xcot_spec(), XCOT_GRID)]
        for spec, grid in cases:
            for x in grid:
                backward = eval_backward(spec, x, 32)
                forward = eval_forward(spec, x, 32)[-1]
                lentz = eval_lentz(spec, x, 1e-14, 500).value
                for u, v in itertools.combinations((backward, forward, lentz), 2):
                    assert rel_err(u, v) <= 1e-12, (spec.name, x)


def test_criterion_7_reciprocal_property():
    with criterion(7, "sec_tan(x) * sec_tan(-x) == 1 within 1e-10"):
        for x in SEC_TAN_GRID:
            assert abs(sec_tan(x).value * sec_tan(-x).value - 1) <= 1e-10, x


def test_criterion_8_cli_contract(capsys, monkeypatch):
    with criterion(8, "CLI exit codes 0/1/2/3 and JSON schema round-trip"):
        # exit 0 with a JSON record that round-trips
        assert main(["eval", "sec-tan", "--x", "1", "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert list(record) == ["function", "x", "value", "depth", "est_rel_err", "method"]
        assert json.loads(json.dumps(record)) == record

        # exit 0 from the genuine verification suites
        assert main(["verify", "offset", "--max-level", "1"]) == 0
        capsys.readouterr()

        # exit 1: usage error
        assert main(["eval", "sec-tan", "--x", "not-a-number"]) == 1
        capsys.readouterr()

        # exit 2: numeric failure
        assert main(["eval", "cot", "--x", "0"]) == 2
        capsys.readouterr()

        # exit 3: a planted defect must surface as a verification failure
        original = exact._offset_rhs
        with monkeypatch.context() as mp:
            mp.setattr(exact, "_offset_rhs", lambda k: exact._at(original(k), -1))  # x -> -x
            assert main(["verify", "offset"]) == 3
        capsys.readouterr()
