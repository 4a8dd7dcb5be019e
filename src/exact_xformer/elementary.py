"""Square root and exponential on p-bit floats, plus rational variants.

* sqrt: x = r * 2^k with r in [1/4, 1) and k even; then
  s = isqrt(r * 2^(2p+2)) is floor(sqrt(r) * 2^(p+1)) and (s + 1) >> 1 is
  sqrt(r) * 2^p rounded to nearest, so the result is the correctly rounded
  square root.
* exp: x = k * log2 + r with r in [0, log2), exp(r) by a truncated Taylor
  series, result exp(r) * 2^k; the log2 constant is a truncated series with
  a proven tail, and k is the exact rational floor of x over that constant,
  which keeps r inside [0, log2) unconditionally.  The truncated sum S is
  enclosed as lo <= S * 2^W <= hi in W-bit fixed point, every term floored
  (lo) or ceiled (hi) from its predecessor.  When lo and hi round to the same
  p-bit float, that float is the rounding of S, because rounding is
  monotone; otherwise S is summed exactly over one common denominator and
  rounded.  Either way the result is the rounding of S, and it has relative
  error at most 2^-p (the series runs at roughly 2p bits because the final
  rounding already spends nearly the whole 2^-p allowance).

The rational variants for the error-budgeted evaluator return dyadics with
a stated relative error: exp is the floored fixed-point enclosure, sqrt an
integer square root, each at a few bits beyond the requested precision, so
their width is set by that precision and not by the argument's.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError, FloatRangeError
from .pfloat import PFloat, _round_dyadic, _round_ratio, float_to_rat
from .rational import RAT_ONE, Rat

# Fraction bits of the fixed-point exp enclosure beyond the series' working
# width w = 2p + 8 and the bit length of its term count.  hi - lo stays
# within about two units per term, and rounding to p bits drops
# p + 9 + _EXP_GUARD + terms.bit_length() low bits, so lo and hi round apart
# (and the exact sum decides) on about a 2^-(p + 8 + _EXP_GUARD) share of
# arguments.
_EXP_GUARD = 8


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


def _exp_series(r: Rat, terms: int) -> Rat:
    """Exact sum_{i<terms} r^i / i! for r >= 0, over one common denominator."""
    if terms == 1:
        return RAT_ONE
    a, b = r.num, r.den
    den = b ** (terms - 1) * math.factorial(terms - 1)
    term = den
    total = den
    for i in range(terms - 1):
        term = term * a // (b * (i + 1))  # exact: factorial and b-power remain
        if term == 0:
            break
        total += term
    return Rat(total, den)


def _exp_enclosure(rn: int, rd: int, terms: int, shift: int) -> tuple[int, int]:
    """lo <= 2^shift * sum_{i<terms} r^i / i! <= hi for r = rn / rd >= 0.

    r is enclosed as a_lo / 2^shift <= r < (a_lo + 1) / 2^shift; each term of
    lo is floored from the one before and each term of hi ceiled, so every
    partial sum stays enclosed.
    """
    a_lo = (rn << shift) // rd
    a_hi = a_lo + 1
    lo = hi = t_lo = t_hi = 1 << shift
    for i in range(1, terms):
        t_lo = ((t_lo * a_lo) >> shift) // i
        t_hi = -(((-t_hi * a_hi) >> shift) // i)
        lo += t_lo
        hi += t_hi
    return lo, hi


def _exp_reduced(x: Rat, w: int, log_mag: int) -> tuple[int, int, int, int, int, int]:
    """The range reduction and enclosure shared by f_exp and rat_exp_approx.

    With log_mag = floor(log2 |x|) and lam = log2_const(w + max(2, log_mag + 2)
    + 8) <= log 2, x = k * lam + rn / rd exactly with k = floor(x / lam), and
    lo <= S * 2^shift <= hi encloses S, the exp_plan(w)-term Taylor sum of
    exp(rn / rd).  Returns (k, rn, rd, shift, lo, hi).
    """
    lam = log2_const(w + max(2, log_mag + 2) + 8)
    k = (x.num * lam.den) // (x.den * lam.num)  # exact floor(x / lam)
    rn = x.num * lam.den - k * lam.num * x.den
    rd = x.den * lam.den
    terms = exp_plan(w)
    shift = w + _EXP_GUARD + terms.bit_length()
    lo, hi = _exp_enclosure(rn, rd, terms, shift)
    return k, rn, rd, shift, lo, hi


def range_reduce_sqrt(x: PFloat) -> tuple[Rat, int]:
    """Write x = r * 2^k exactly with r in [1/4, 1) and k even."""
    if x.m <= 0:
        raise DomainError("square-root range reduction needs x > 0")
    p = x.p
    if (x.e + p) % 2 == 0:
        return Rat(x.m, 1 << p), x.e + p
    return Rat(x.m, 1 << (p + 1)), x.e + p + 1


def f_sqrt(x: PFloat) -> PFloat:
    """Correctly rounded square root (round to nearest, ties impossible)."""
    if x.m == 0:
        return PFloat(0, 0, x.p)
    if x.m < 0:
        raise DomainError("square root of a negative float")
    p = x.p
    r, k = range_reduce_sqrt(x)
    # s = floor(sqrt(r) * 2^(p+1)); r's denominator divides 2^(p+1), so the
    # division is exact.  sqrt(r) * 2^p is never a breakpoint m + 1/2 (that
    # would make r * 2^(2p+2) an odd square, but it is even), so rounding
    # s / 2 half up is rounding sqrt(r) * 2^p to nearest.
    s = math.isqrt((r.num << (2 * p + 2)) // r.den)
    return _round_dyadic((s + 1) >> 1, k // 2 - p, p)


def f_exp(x: PFloat, p: int | None = None) -> PFloat:
    """exp(x) with relative error at most 2^-p, rounding included.

    The scaling integer k = floor(x / log 2) must land in [-2^p, 2^p)
    (FloatRangeError otherwise); this caps the log2-approximant precision
    and keeps results inside the exponent budget callers size p for.
    """
    p = x.p if p is None else p
    log_mag = x.e + abs(x.m).bit_length() - 1  # floor(log2 |x|)
    if x.m == 0 or log_mag <= -(2 * p + 16):
        # |exp(x) - 1| < 2|x| < 2^-(2p+14), far below the 2^-(p+1) from 1 to
        # its nearest breakpoint, so exp(x) rounds to 1
        return _round_dyadic(1, 0, p)
    if log_mag >= p + 1:
        # |x| >= 2^(p+1) forces |k| >= 2^(p+1)/log2 > 2^p
        raise FloatRangeError(f"exp argument magnitude 2^{log_mag} puts k outside [-2^{p}, 2^{p})")
    w = 2 * p + 8
    k, rn, rd, shift, lo, hi = _exp_reduced(float_to_rat(x), w, log_mag)
    if not -(1 << p) <= k < (1 << p):
        raise FloatRangeError(f"exp scaling k={k} outside [-2^{p}, 2^{p})")
    y = _round_dyadic(lo, k - shift, p)
    if y == _round_dyadic(hi, k - shift, p):
        return y
    total = _exp_series(Rat(rn, rd), exp_plan(w))
    return _round_ratio(total.num, total.den, k, p)


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
    k, _, _, shift, lo, _ = _exp_reduced(x, rel_bits + 4, rat_floor_log2(x))
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
