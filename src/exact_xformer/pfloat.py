"""p-bit floating-point arithmetic with exact round-to-nearest-even.

A nonzero float is a pair (m, e) with 2^(p-1) <= |m| < 2^p, denoting
m * 2^e; zero is (0, 0).  The exponent is an unbounded integer: rounding is
total on nonzero values and zero is produced only by exact cancellation.
Every operation here is the correctly rounded exact result: two-ary
add/mul/div round once, and the n-ary sum partitions its inputs into
exponent blocks, adds the dominant nonzero block exactly, and rounds it once
with the next nonzero block's sign breaking an exact tie.

Layer 1: the rounding core (dyadic; ratios reach it through a sticky bit).
Layer 2: two-ary ops and comparison.
Layer 3: block summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import DomainError
from .rational import Rat, rat_sum


@dataclass(frozen=True)
class PFloat:
    m: int
    e: int
    p: int

    def __post_init__(self):
        p = self.p
        if not isinstance(p, int) or p < 1:
            raise DomainError(f"precision must be a positive int, got {p!r}")
        if not isinstance(self.m, int) or not isinstance(self.e, int):
            raise DomainError("significand and exponent must be ints")
        if self.m == 0:
            if self.e != 0:
                raise DomainError("zero must be represented as (0, 0)")
            return
        a = abs(self.m)
        if not (1 << (p - 1)) <= a < (1 << p):
            raise DomainError(f"significand {self.m} not normalized for p={p}")

    @classmethod
    def zero(cls, p: int) -> "PFloat":
        return cls(0, 0, p)

    @property
    def sign(self) -> int:
        return (self.m > 0) - (self.m < 0)

    def to_json_dict(self) -> dict:
        return {"m": str(self.m), "e": str(self.e), "p": self.p}


# --------------------------------------------------------------------------
# Layer 1: rounding core
#
# _round_dyadic is pfloat's one round-to-nearest, ties-to-even.  An inexact
# value reaches it as a dyadic stand-in with a sticky low bit, placed
# strictly between the same two adjacent rounding breakpoints as the value,
# so both round alike.
# --------------------------------------------------------------------------


def _round_dyadic(M: int, E: int, p: int) -> PFloat:
    """Round the dyadic value M * 2^E to p bits."""
    if M == 0:
        return PFloat(0, 0, p)
    s = 1 if M > 0 else -1
    A = abs(M)
    shift = A.bit_length() - p
    if shift <= 0:
        return PFloat(s * (A << -shift), E + shift, p)
    m = A >> shift
    low = A & ((1 << shift) - 1)
    half = 1 << (shift - 1)
    if low > half or (low == half and m % 2 == 1):
        m += 1
    e = E + shift
    if m == 1 << p:
        m >>= 1
        e += 1
    return PFloat(s * m, e, p)


def _round_ratio(a: int, b: int, e2: int, p: int) -> PFloat:
    """Round the value (a / b) * 2^e2 to p bits; b >= 1.

    The quotient q = floor(|a| * 2^sh / b) has at least p + 1 bits, so every
    rounding breakpoint is an integer multiple of q's unit.  With a nonzero
    remainder the exact ratio and q + 1/2 (2q plus a sticky bit) lie
    strictly between q and q + 1, and round alike.
    """
    A = abs(a)
    sh = p + 1 + b.bit_length() - A.bit_length()
    if sh >= 0:
        q, r = divmod(A << sh, b)
    else:
        q, r = divmod(A, b << -sh)
    M = 2 * q + (r != 0)
    return _round_dyadic(M if a > 0 else -M, e2 - sh - 1, p)


def round_p(x: Rat | PFloat | int, p: int) -> PFloat:
    """Round a rational, float, or int to the nearest p-bit float."""
    if isinstance(x, PFloat):
        return _round_dyadic(x.m, x.e, p)
    if isinstance(x, Rat):
        return _round_ratio(x.num, x.den, 0, p)
    if isinstance(x, int):
        return _round_dyadic(x, 0, p)
    raise DomainError(f"cannot round object of type {type(x).__name__}")


# --------------------------------------------------------------------------
# Layer 2: two-ary operations
# --------------------------------------------------------------------------


def _check_pair(x: PFloat, y: PFloat) -> int:
    if x.p != y.p:
        raise DomainError(f"mixed precisions {x.p} and {y.p}")
    return x.p


def f_add(x: PFloat, y: PFloat) -> PFloat:
    """Correctly rounded sum.

    Exponent gaps up to 2p+4 are aligned exactly.  Beyond that the smaller
    operand cannot reach the nearest breakpoint of the larger one, so only
    the sign of its tail matters; a one-ulp-of-guard marker preserves the
    rounding direction without materializing 2^gap.
    """
    p = _check_pair(x, y)
    if x.m == 0:
        return y
    if y.m == 0:
        return x
    if x.e < y.e:
        x, y = y, x
    gap = x.e - y.e
    if gap <= 2 * p + 4:
        return _round_dyadic((x.m << gap) + y.m, y.e, p)
    marker = 1 if y.m > 0 else -1
    return _round_dyadic((x.m << (p + 4)) + marker, x.e - (p + 4), p)


def f_mul(x: PFloat, y: PFloat) -> PFloat:
    p = _check_pair(x, y)
    if x.m == 0 or y.m == 0:
        return PFloat(0, 0, p)
    return _round_dyadic(x.m * y.m, x.e + y.e, p)


def f_div(x: PFloat, y: PFloat) -> PFloat:
    p = _check_pair(x, y)
    if y.m == 0:
        raise DomainError("float division by zero")
    if x.m == 0:
        return PFloat(0, 0, p)
    a = x.m if y.m > 0 else -x.m
    return _round_ratio(a, abs(y.m), x.e - y.e, p)


def f_neg(x: PFloat) -> PFloat:
    if x.m == 0:
        return x
    return PFloat(-x.m, x.e, x.p)


def f_cmp(x: PFloat, y: PFloat) -> int:
    """Exact comparison: -1, 0 or 1; never materializes 2^|e1 - e2|."""
    _check_pair(x, y)
    sx, sy = x.sign, y.sign
    if sx != sy:
        return 1 if sx > sy else -1
    if sx == 0:
        return 0
    # same nonzero sign: compare magnitudes via their top-bit positions first
    lx = x.e + abs(x.m).bit_length()
    ly = y.e + abs(y.m).bit_length()
    if lx != ly:
        mag = 1 if lx > ly else -1
    else:
        # equal scale: |e gap| is at most the significand width
        if x.e >= y.e:
            ax, ay = abs(x.m) << (x.e - y.e), abs(y.m)
        else:
            ax, ay = abs(x.m), abs(y.m) << (y.e - x.e)
        if ax == ay:
            return 0
        mag = 1 if ax > ay else -1
    return mag * sx


# --------------------------------------------------------------------------
# Layer 3: iterated operations
# --------------------------------------------------------------------------


def _common_p(xs: Sequence[PFloat], what: str) -> int:
    """The shared precision of a nonempty list of floats."""
    if len(xs) == 0:
        raise DomainError(f"{what} of an empty list")
    p = xs[0].p
    for x in xs:
        if x.p != p:
            raise DomainError(f"mixed precisions {p} and {x.p}")
    return p


def block_threshold(p: int, n: int) -> int:
    """Exponent gap at or above which n summands cannot interact: 2p + ceil(log2 n) + 1.

    Let the dominant nonzero block sum exactly to S * 2^a, with a its least
    exponent.  Every summand outside it lies in a block that cancels to zero
    or has exponent at most a - theta and magnitude below 2^(a - theta + p);
    there are fewer than 2^ceil(log2 n) of them, so their total R has
    |R| < 2^(a - p - 1).  A nonzero multiple of 2^a lies at least 2^(a-p-1)
    from every rounding breakpoint other than itself (the extreme is a
    one-bit S at the bottom of its binade, whose breakpoint below is at half
    the usual spacing).  So S + R rounds like S, except that when S is itself
    a breakpoint the sign of R, which is the sign of the next nonzero block,
    decides the tie.
    """
    if n < 1:
        raise DomainError("threshold needs n >= 1")
    return 2 * p + (n - 1).bit_length() + 1


def partition_blocks(xs: Sequence[PFloat]) -> list[list[int]]:
    """Group indices of nonzero floats into exponent blocks.

    Sorted by exponent, a gap of block_threshold(p, len(xs)) or more splits
    the list; within a block, consecutive gaps stay below the threshold so
    the block's exact sum has polynomial width.  Blocks are returned in
    descending exponent order (dominant block first).
    """
    p = _common_p(xs, "partition_blocks")
    for x in xs:
        if x.m == 0:
            raise DomainError("partition_blocks requires nonzero inputs")
    return _partition(xs, block_threshold(p, len(xs)))


def _partition(xs: Sequence[PFloat], theta: int) -> list[list[int]]:
    """partition_blocks on inputs already checked, with its threshold given."""
    order = sorted(range(len(xs)), key=lambda i: xs[i].e)
    blocks = [[order[0]]]
    for prev, idx in zip(order, order[1:]):
        if xs[idx].e - xs[prev].e >= theta:
            blocks.append([idx])
        else:
            blocks[-1].append(idx)
    blocks.reverse()
    return blocks


def _block_sums(xs: Sequence[PFloat], blocks: list[list[int]]) -> Iterator[tuple[int, int]]:
    """Exact per-block sums (m, e), each anchored at its block's minimum exponent."""
    for block in blocks:
        anchor = min(xs[i].e for i in block)
        total = 0
        for i in block:
            total += xs[i].m << (xs[i].e - anchor)
        yield total, anchor


def f_sum_blocks(xs: Sequence[PFloat]) -> PFloat:
    """Correctly rounded n-ary sum via exponent-block decomposition.

    Blocks are separated by block_threshold, so everything below the
    dominant nonzero block totals less than the distance from that block's
    exact sum to its nearest other breakpoint.  The result is that sum
    rounded once, with the next nonzero block's sign as a sticky bit p + 2
    places below the sum's anchor, which only an exact tie can feel.
    """
    p = _common_p(xs, "f_sum_blocks")
    nonzero = [x for x in xs if x.m != 0]
    if not nonzero:
        return PFloat(0, 0, p)
    blocks = _partition(nonzero, block_threshold(p, len(nonzero)))
    sums = [(m, e) for m, e in _block_sums(nonzero, blocks) if m != 0]
    if not sums:
        return PFloat(0, 0, p)
    m, e = sums[0]
    if len(sums) > 1:
        m, e = (m << (p + 2)) + (1 if sums[1][0] > 0 else -1), e - p - 2
    return _round_dyadic(m, e, p)


def f_sum_oracle(xs: Sequence[PFloat]) -> PFloat:
    """Reference n-ary sum: exact rational total, rounded once.

    Materializes 2^|e|, so it is meant for moderate exponents (tests and
    verification suites), not for the full exponent range.
    """
    p = _common_p(xs, "f_sum_oracle")
    return round_p(rat_sum([float_to_rat(x) for x in xs]), p)


def float_to_rat(x: PFloat) -> Rat:
    """Exact rational value; materializes 2^|e| (moderate exponents only)."""
    if x.e >= 0:
        return Rat(x.m << x.e)
    return Rat(x.m, 1 << -x.e)


def decimal_str(x: PFloat, digits: int = 12) -> str:
    """Advisory decimal rendering; the (m, e, p) triple is the normative form."""
    if x.m == 0:
        return "0"
    s = "-" if x.m < 0 else ""
    A = abs(x.m)
    if abs(x.e) > 4096:
        log10 = (math.log2(A) + x.e) * math.log10(2)
        k = math.floor(log10)
        lead = 10 ** (log10 - k)
        return f"{s}{lead:.{digits - 1}f}e{k:+d}"
    if x.e >= 0:
        num, den = A << x.e, 1
    else:
        num, den = A, 1 << -x.e

    def scaled(k10: int) -> int:
        sh = digits - 1 - k10
        if sh >= 0:
            return (num * 10**sh + den // 2) // den
        q = 10**-sh
        return (num + den * q // 2) // (den * q)

    k10 = len(str(num)) - len(str(den))
    mant = scaled(k10)
    while mant >= 10**digits:
        k10 += 1
        mant = scaled(k10)
    while mant < 10 ** (digits - 1):
        k10 -= 1
        mant = scaled(k10)
    text = str(mant)
    return f"{s}{text[0]}.{text[1:]}e{k10:+d}"
