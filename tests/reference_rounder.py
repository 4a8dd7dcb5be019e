"""An independent round-to-nearest-even reference, shared by the test modules.

Built directly on Fraction and integer shifts, apart from the package's own
rounding cores, so "correctly rounded" is never checked against itself.
"""

from fractions import Fraction

from exact_xformer import PFloat


def round_ref(x: Fraction, p: int) -> PFloat:
    """Round-to-nearest, ties to even significand."""
    n, d = x.numerator, x.denominator
    if n == 0:
        return PFloat.zero(p)
    s, a = (1, n) if n > 0 else (-1, -n)
    t = a.bit_length() - d.bit_length()
    if (a >> t if t >= 0 else a << -t) < d:
        t -= 1
    e = t - (p - 1)
    num, den = (a, d << e) if e >= 0 else (a << -e, d)
    base, rem = divmod(num, den)
    double = 2 * rem
    if double > den or (double == den and base % 2 == 1):
        base += 1
    if base == 1 << p:
        base >>= 1
        e += 1
    return PFloat(s * base, e, p)
