import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfrac import (
    Poly,
    PoleAtOrigin,
    PolyTerm,
    RatFunc,
    eval_backward,
    eval_forward,
    poly_gcd,
    sec_tan_spec,
    series_from_ratfunc,
    zigzag,
)
from series_reference import alternating_count, poly_add, poly_rem, reference_series

# p/q with |p/q| <= 4 and 1 <= q <= 9: the st.fractions domain, drawn faster from int pairs
fracs = st.integers(1, 9).flatmap(lambda q: st.integers(-4 * q, 4 * q).map(lambda p: Fraction(p, q)))
polys = st.lists(fracs, min_size=0, max_size=4).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
ratfuncs = st.builds(RatFunc, polys, nonzero_polys)
# functions that are finite at the origin, so they have a Taylor series
origin_regular = ratfuncs.filter(lambda f: f.den(Fraction(0)) != 0)

common = settings(max_examples=100, deadline=None)

# series inputs: the Fraction/int mix of `polys`, longer int polys, and
# polys whose nonzero coefficients are all proper Fractions
int_polys = st.lists(st.integers(min_value=-9, max_value=9), max_size=8).map(Poly)
proper_fracs = fracs.filter(lambda c: c.denominator > 1)
fraction_polys = st.lists(st.one_of(st.just(0), proper_fracs), max_size=6).map(Poly)
series_polys = st.one_of(polys, int_polys, fraction_polys)


@common
@given(fracs, fracs, fracs, fracs)
def test_polyterm_evaluates_exactly(c0, c1, c2, x):
    assert PolyTerm(c0, c1, c2)(x) == c0 + c1 * x + c2 * x * x


@common
@given(polys, polys, polys)
def test_poly_ring_laws(a, b, c):
    assert poly_add(poly_add(a, b), c) == poly_add(a, poly_add(b, c))
    assert poly_add(a, b) == poly_add(b, a)
    assert a * b == b * a
    assert a * poly_add(b, c) == poly_add(a * b, a * c)


@common
@given(nonzero_polys, polys, polys)
def test_poly_gcd_of_common_multiples(g, p, q):
    d = poly_gcd(g * p, g * q)
    if p.is_zero and q.is_zero:
        assert d.is_zero
    else:  # monic, divides both products and is divisible by g
        assert d.coeffs[-1] == 1 and poly_rem(d, g).is_zero
        assert poly_rem(g * p, d).is_zero and poly_rem(g * q, d).is_zero


@common
@given(ratfuncs, nonzero_polys)
def test_ratfunc_equality_ignores_common_factors(f, g):
    assert RatFunc(f.num * g, f.den * g) == f


@common
@given(origin_regular, origin_regular)
def test_series_extraction_is_a_ring_morphism(f, g):
    order = 6
    sf = series_from_ratfunc(f, order)
    sg = series_from_ratfunc(g, order)
    product = series_from_ratfunc(RatFunc(f.num * g.num, f.den * g.den), order)
    cauchy = [sum(sf[i] * sg[n - i] for i in range(n + 1)) for n in range(order + 1)]
    assert product == cauchy


@settings(max_examples=60, deadline=None)
@given(series_polys, series_polys.filter(lambda p: not p.is_zero),
       st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=12))
def test_series_equals_fraction_long_division(num, den, shift, order):
    x_shift = Poly([0] * shift + [1])
    f = RatFunc(num * x_shift, den * x_shift)
    expected = reference_series(f, order)
    if expected is None:
        with pytest.raises(PoleAtOrigin):
            series_from_ratfunc(f, order)
        return
    coeffs = series_from_ratfunc(f, order)
    assert coeffs == expected
    assert all(type(c) is Fraction for c in coeffs)


@common
@given(st.integers(min_value=0, max_value=7))
def test_zigzag_equals_brute_force(n):
    assert zigzag(n) == alternating_count(n)


@common
@given(st.floats(min_value=-1.4, max_value=1.4, allow_nan=False))
def test_forward_and_backward_agree_everywhere(x):
    spec = sec_tan_spec()
    forward = eval_forward(spec, x, 24)[-1]
    backward = eval_backward(spec, x, 24)
    assert math.isclose(forward, backward, rel_tol=1e-12)


@common
@given(st.floats(min_value=-1.4, max_value=1.4, allow_nan=False))
def test_deep_convergents_match_reference_trig(x):
    value = eval_backward(sec_tan_spec(), x, 40)
    reference = (1 + math.sin(x)) / math.cos(x)
    assert math.isclose(value, reference, rel_tol=1e-12)
