"""Square root and exponential on p-bit floats, plus rational variants.

* sqrt: x = r * 2^k with r in [1/4, 1) and k even, read off (m, e) with
  no division; then s = isqrt(r * 2^(2p+2)), a shift of the significand, is
  floor(sqrt(r) * 2^(p+1)) and (s + 1) >> 1 is sqrt(r) * 2^p rounded to
  nearest, so the result is the correctly rounded square root.
* exp: x = k * log2 + r with r in [0, log2), exp(r) by a truncated Taylor
  series, result exp(r) * 2^k; the log2 constant is a truncated series with
  a proven tail, and k is the exact rational floor of x over that constant,
  which keeps r inside [0, log2) unconditionally.  x is reduced once per
  call; each pass after that is one enclosure of a truncated sum of exp(r).
  The full sum S is enclosed from one side in W-bit fixed point: lo, every
  term floored from its predecessor, satisfies lo <= S * 2^W < lo + 2 *
  terms (each floored term stays within two units of the exact one, see
  _exp_enclosure).  When
  lo and lo + 2 * terms round to the same p-bit float, that float is the
  rounding of S, because rounding is monotone; otherwise S is summed
  exactly over one common denominator and rounded.  Either way the result
  is the rounding of S, and it has relative error at most 2^-p (the series
  runs at roughly 2p bits because the final rounding already spends nearly
  the whole 2^-p allowance).
  A first pass comes before that, at w1 = p + 24 working bits when that is
  below the series' 2p + 8 (Ziv's strategy: a narrow pass decides almost
  every argument).  It encloses S1, the shorter exp_plan(w1)-term sum, in
  s1-bit fixed point in the same way.  S exceeds S1 by its terms past
  exp_plan(w1), which are nonnegative and total less than 2^-(w1 + 2)
  (exp_plan's tail bound), so lo1 <= S * 2^s1 < lo1 + 2 * terms1 +
  2^(s1 - w1 - 2); when both ends round alike, that float is again the
  rounding of S, and otherwise the full width decides as above.

The rational variants for the error-budgeted evaluator return dyadics with
a stated relative error: exp is the floored fixed-point enclosure, sqrt an
integer square root, each at a few bits beyond the requested precision, so
their width is set by that precision and not by the argument's.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError, FloatRangeError
from .pfloat import PFloat, _check_precision, _round_dyadic, _round_pair, _round_ratio
from .rational import RAT_ONE, Rat

# Fraction bits of the fixed-point exp enclosure beyond the series' working
# width w = 2p + 8 and the bit length of its term count.  The enclosure is
# [lo, lo + 2 * terms), proven in _exp_enclosure, and rounding to p bits
# drops p + 9 + _EXP_GUARD + terms.bit_length() low bits, so its two ends
# round apart (and the exact sum decides) on about a 2^-(p + 8 + _EXP_GUARD)
# share of arguments.
_EXP_GUARD = 8

# Working bits beyond p of f_exp's first pass, which runs when p + _EXP_FIRST
# is below the series' width 2p + 8.  Its enclosure is about 2^(6 +
# terms1.bit_length()) units wide (the tail allowance dominates), and rounding
# to p bits drops _EXP_FIRST + 9 + terms1.bit_length() low bits, so the full
# width decides on about a 2^-(_EXP_FIRST + 3) share of arguments.
_EXP_FIRST = 24


@lru_cache(maxsize=None)
def exp_plan(work_bits: int) -> int:
    """Fewest Taylor terms N with tail 2*(3/4)^N / N! <= 2^-(work_bits+2).

    Valid for arguments in [0, log 2): the tail of sum r^i/i! after N terms
    is below 2 * r^N / N! once N >= 1, and r < 3/4.
    """
    if work_bits < 1:
        raise DomainError("exp_plan needs work_bits >= 1")
    n = 1
    pow3, pow4, fact = 3, 4, 1
    scale = 2 << (work_bits + 2)
    while pow3 * scale > pow4 * fact:
        n += 1
        pow3 *= 3
        pow4 *= 4
        fact *= n
    return n


@lru_cache(maxsize=None)
def log2_const(bits: int) -> Rat:
    """Rational q with q <= log 2 <= q + 2^-bits, from sum 1/(i * 2^i).

    The series underestimates; truncating after N-1 = bits terms leaves a
    positive tail below 2^-(N-1) = 2^-bits.
    """
    if bits < 1:
        raise DomainError("log2_const needs bits >= 1")
    n_terms = bits + 1
    lcm = math.lcm(*range(1, n_terms)) if n_terms > 2 else 1
    den = lcm << (n_terms - 1)
    num = sum((lcm // i) << (n_terms - 1 - i) for i in range(1, n_terms))
    return Rat(num, den)


def _exp_series(rn: int, rd: int, terms: int) -> tuple[int, int]:
    """(total, den) with total / den = sum_{i<terms} r^i / i! exactly, for
    r = rn / rd >= 0: r in lowest terms, summed over one common denominator
    that is left unreduced (_round_ratio needs no canonical pair)."""
    g = math.gcd(rn, rd)
    a, b = rn // g, rd // g
    den = b ** (terms - 1) * math.factorial(terms - 1)
    term = total = den
    for i in range(1, terms):
        term = term * a // (b * i)  # exact: factorial and b-power remain
        if term == 0:
            break
        total += term
    return total, den


def _exp_enclosure(rn: int, rd: int, sum_w: int) -> tuple[int, int, int]:
    """(lo, hi, shift) with lo <= 2^shift * S < hi = lo + 2 * terms, where S
    is the exp_plan(sum_w) = terms-term Taylor sum of exp(r) for 0 <= r =
    rn / rd < 3/4 and shift = sum_w + _EXP_GUARD + terms.bit_length().

    a = floor(r * 2^shift), and each term t_i = floor(t_(i-1) * a / (2^shift
    * i)) is floored from the one before.  With T_i = 2^shift * r^i / i!
    and d_i = T_i - t_i >= 0: d_0 = 0 and d_1 = r * 2^shift - a < 1.  Then
    d_i < (r * d_(i-1) + t_(i-1) * (r - a / 2^shift)) / i + 1, and as
    r < 3/4, r - a / 2^shift < 2^-shift and t_(i-1) <= T_(i-1) <= 2^shift,
    d_i < (3/4 * d_(i-1) + 1) / i + 1: below 2 at i = 2 and, by induction,
    at every i after.  So the floored sum lo falls short of the exact one
    by less than 1 + 2 * (terms - 2) < 2 * terms.
    """
    terms = exp_plan(sum_w)
    shift = sum_w + _EXP_GUARD + terms.bit_length()
    a = (rn << shift) // rd
    lo = t = 1 << shift
    for i in range(1, terms):
        t = ((t * a) >> shift) // i
        lo += t
    return lo, lo + 2 * terms, shift


def _exp_reduced(num: int, den: int, w: int, log_mag: int) -> tuple[int, int, int]:
    """The range reduction shared by f_exp and rat_exp_approx: (k, rn, rd).

    With x = num / den (den >= 1, in lowest terms or not), log_mag =
    floor(log2 |x|) and lam = log2_const(w + max(2, log_mag + 2) + 8) <=
    log 2, x = k * lam + rn / rd exactly with k = floor(x / lam), so
    0 <= rn / rd < lam.
    """
    lam = log2_const(w + max(2, log_mag + 2) + 8)
    k = (num * lam.den) // (den * lam.num)  # exact floor(x / lam)
    return k, num * lam.den - k * lam.num * den, den * lam.den


def f_sqrt(x: PFloat) -> PFloat:
    """Correctly rounded square root (round to nearest, ties impossible)."""
    if x.m == 0:
        return PFloat(0, 0, x.p)
    if x.m < 0:
        raise DomainError("square root of a negative float")
    p = x.p
    # x = r * 2^k with r = m / 2^(p + odd) in [1/4, 1) and k = e + p + odd
    # even, so s = floor(sqrt(r) * 2^(p+1)) = isqrt(m << (p + 2 - odd)).
    # sqrt(r) * 2^p is never a breakpoint n + 1/2 (that would make
    # r * 2^(2p+2) an odd square, but it is even), so rounding s / 2 half up
    # is rounding sqrt(r) * 2^p to nearest.
    odd = (x.e + p) & 1
    s = math.isqrt(x.m << (p + 2 - odd))
    return _round_dyadic((s + 1) >> 1, (x.e + p + odd) // 2 - p, p)


def f_exp(x: PFloat, p: int | None = None) -> PFloat:
    """exp(x) with relative error at most 2^-p, rounding included.

    The scaling integer k = floor(x / log 2) must land in [-2^p, 2^p)
    (FloatRangeError otherwise); this caps the log2-approximant precision
    and keeps results inside the exponent budget callers size p for.
    """
    if p is None:
        p = x.p
    else:
        _check_precision(p)
    log_mag = x.e + abs(x.m).bit_length() - 1  # floor(log2 |x|)
    if x.m == 0 or log_mag <= -(2 * p + 16):
        # |exp(x) - 1| < 2|x| < 2^-(2p+14), far below the 2^-(p+1) from 1 to
        # its nearest breakpoint, so exp(x) rounds to 1
        return _round_dyadic(1, 0, p)
    if log_mag >= p + 1:
        # |x| >= 2^(p+1) forces |k| >= 2^(p+1)/log2 > 2^p
        raise FloatRangeError(f"exp argument magnitude 2^{log_mag} puts k outside [-2^{p}, 2^{p})")
    w = 2 * p + 8
    num, den = (x.m << x.e, 1) if x.e >= 0 else (x.m, 1 << -x.e)
    k, rn, rd = _exp_reduced(num, den, w, log_mag)
    if not -(1 << p) <= k < (1 << p):
        raise FloatRangeError(f"exp scaling k={k} outside [-2^{p}, 2^{p})")
    w1 = p + _EXP_FIRST
    for sum_w in (w1, w) if w1 < w else (w,):
        lo, hi, shift = _exp_enclosure(rn, rd, sum_w)
        if sum_w < w:
            # the sum's terms past exp_plan(sum_w) add less than 2^-(sum_w + 2)
            hi += 1 << (shift - sum_w - 2)
        y = _round_pair(lo, k - shift, p)
        if y == _round_pair(hi, k - shift, p):
            return PFloat._raw(*y, p)
    return _round_ratio(*_exp_series(rn, rd, exp_plan(w)), k, p)


# --------------------------------------------------------------------------
# Rational-valued variants used by the error-budgeted evaluator.  Same
# machinery, but the result is a dyadic with a stated relative error
# instead of a float rounded to p bits.
# --------------------------------------------------------------------------


def rat_floor_log2(x: Rat) -> int:
    if x.num == 0:
        raise DomainError("floor_log2 of zero")
    a, b = abs(x.num), x.den
    q = a.bit_length() - b.bit_length()
    if q >= 0:
        return q if a >= b << q else q - 1
    return q if a << -q >= b else q - 1


def rat_exp_approx(x: Rat, rel_bits: int) -> Rat:
    """A dyadic y with |y / exp(x) - 1| <= 2^-rel_bits.

    Same range reduction as f_exp at working width w = rel_bits + 4, and
    y = lo * 2^(k - shift) with lo the floored fixed-point enclosure of the
    truncated series.  Three relative errors add up: the series tail
    (<= 2^-(w+2)), the enclosure (below 4 * terms * 2^-shift <= 2^-(w+6),
    as shift = w + _EXP_GUARD + terms.bit_length()) and the log2 constant
    (about |k| * 2^-bits <= 2^-(w+8)); together they stay below
    2^-(w+1) = 2^-(rel_bits+3).  y has about shift + 1 significant bits,
    whatever the width of x.  Materializes 2^|k| for k ~ x/log2, so callers
    keep |x| moderate (the budgeted evaluator shifts softmax scores by the
    row max first and flushes terms far below it).
    """
    if rel_bits < 1:
        raise DomainError("rel_bits must be >= 1")
    if x.num == 0:
        return RAT_ONE
    w = rel_bits + 4
    k, rn, rd = _exp_reduced(x.num, x.den, w, rat_floor_log2(x))
    lo, _, shift = _exp_enclosure(rn, rd, w)
    return _dyadic(lo, k - shift)


def rat_sqrt_approx(x: Rat, rel_bits: int) -> Rat:
    """A dyadic y with |y / sqrt(x) - 1| < 2^-(rel_bits+2), for x > 0.

    With m = rel_bits + 2 - floor(floor_log2(x) / 2), X = x * 4^m is at
    least 4^(rel_bits+2), and y = isqrt(floor(X)) / 2^m lies within one unit
    below sqrt(X) / 2^m.
    """
    if rel_bits < 1:
        raise DomainError("rel_bits must be >= 1")
    if x.num <= 0:
        raise DomainError("square root of a nonpositive rational")
    m = rel_bits + 2 - (rat_floor_log2(x) >> 1)
    if m >= 0:
        scaled = (x.num << (2 * m)) // x.den
    else:
        scaled = x.num // (x.den << (-2 * m))
    return _dyadic(math.isqrt(scaled), -m)


def _dyadic(m: int, e: int) -> Rat:
    """m * 2^e as a canonical Rat."""
    if e >= 0:
        return Rat._raw(m << e, 1)
    return Rat(m, 1 << -e)
