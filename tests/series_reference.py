"""Reference Taylor series for the tests: plain Fraction long division."""

from fractions import Fraction


def reference_series(f, order):
    """c_0..c_order of f at x = 0, or None when f has a pole there.

    The power of x shared by numerator and denominator is cancelled first.
    """
    num, den = list(f.num.coeffs), list(f.den.coeffs)
    while den[0] == 0 and (not num or num[0] == 0):
        num, den = num[1:], den[1:]
    if den[0] == 0:
        return None
    out = []
    for i in range(order + 1):
        acc = Fraction(num[i] if i < len(num) else 0)
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * out[i - j]
        out.append(acc / den[0])
    return out
