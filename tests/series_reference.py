"""Reference oracles for the tests: plain Fraction long division for Taylor
series, a coefficient-wise polynomial sum, a polynomial remainder and a
brute-force zigzag count."""

import itertools
from fractions import Fraction

from cfrac import Poly


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


def poly_add(p, q):
    """The coefficient-wise sum p + q."""
    return Poly([a + b for a, b in itertools.zip_longest(p.coeffs, q.coeffs, fillvalue=0)])


def poly_rem(p, q):
    """The remainder of p on division by a nonzero q, by schoolbook long division."""
    rem, size = [Fraction(c) for c in p.coeffs], len(q.coeffs)
    for i in range(len(rem) - size, -1, -1):
        factor = rem[i + size - 1] / q.coeffs[-1]
        for j, c in enumerate(q.coeffs):
            rem[i + j] -= factor * c
    return Poly(rem[: size - 1])


def alternating_count(n):
    """Brute-force count of the down-up alternating permutations of {1..n}.

    Independent cross-check for ``zigzag`` (enumeration, so keep n <= 9).
    """
    return sum(all((p[i] > p[i + 1]) == (i % 2 == 0) for i in range(n - 1))
               for p in itertools.permutations(range(n)))
