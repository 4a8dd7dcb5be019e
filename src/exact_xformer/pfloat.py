"""p-bit floating-point arithmetic with exact round-to-nearest-even.

A nonzero float is a pair (m, e) with 2^(p-1) <= |m| < 2^p, denoting
m * 2^e; zero is (0, 0).  The exponent is an unbounded integer: rounding is
total on nonzero values and zero is produced only by exact cancellation.
Every operation here is the correctly rounded exact result: two-ary
add/mul/div round once, and the n-ary sum partitions its inputs into
exponent blocks, adds each block exactly, and rounds the dominant block with
the residue's sign breaking ties.

Layer 1: rounding cores (dyadic and rational).
Layer 2: two-ary ops and comparison.
Layer 3: block summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

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


@dataclass(frozen=True)
class UnnormFloat:
    """A raw (m, e) pair with no normalization constraint, value m * 2^e."""

    m: int
    e: int


Roundable = Union[Rat, UnnormFloat, PFloat, int]


# --------------------------------------------------------------------------
# Layer 1: rounding cores
#
# Both cores perform round-to-nearest with ties to the even significand,
# unless tie_dir forces a direction on the value axis (used by block
# summation, where the discarded residue's sign is known but its magnitude
# is never materialized).
# --------------------------------------------------------------------------


def _round_dyadic(M: int, E: int, p: int, tie_dir: int = 0) -> PFloat:
    """Round the dyadic value M * 2^E to p bits."""
    if M == 0:
        return PFloat(0, 0, p)
    s = 1 if M > 0 else -1
    A = abs(M)
    shift = A.bit_length() - p
    if shift <= 0:
        return PFloat(s * (A << -shift), E + shift, p)
    base = A >> shift
    low = A & ((1 << shift) - 1)
    half = 1 << (shift - 1)
    if low < half:
        m = base
    elif low > half:
        m = base + 1
    else:
        d = tie_dir * s
        if d > 0:
            m = base + 1
        elif d < 0:
            m = base
        else:
            m = base if base % 2 == 0 else base + 1
    e = E + shift
    if m == 1 << p:
        m >>= 1
        e += 1
    return PFloat(s * m, e, p)


def _round_ratio(a: int, b: int, e2: int, p: int, tie_dir: int = 0) -> PFloat:
    """Round the value (a / b) * 2^e2 to p bits; b >= 1."""
    if a == 0:
        return PFloat(0, 0, p)
    s = 1 if a > 0 else -1
    A = abs(a)
    q = A.bit_length() - b.bit_length()
    if q >= 0:
        ge = A >= b << q
    else:
        ge = A << -q >= b
    t_log = q if ge else q - 1  # floor(log2(A / b))
    e_rel = t_log - (p - 1)
    if e_rel <= 0:
        num, den = A << -e_rel, b
    else:
        num, den = A, b << e_rel
    m, r = divmod(num, den)
    r2 = 2 * r
    if r2 > den:
        m += 1
    elif r2 == den:
        d = tie_dir * s
        if d > 0:
            m += 1
        elif d == 0 and m % 2 == 1:
            m += 1
    if m == 1 << p:
        m >>= 1
        e_rel += 1
    return PFloat(s * m, e_rel + e2, p)


def round_p(x: Roundable, p: int) -> PFloat:
    """Round a rational, raw pair, float, or int to the nearest p-bit float."""
    if isinstance(x, PFloat):
        return _round_dyadic(x.m, x.e, p)
    if isinstance(x, UnnormFloat):
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


def block_threshold(p: int, n: int) -> int:
    """Exponent gap at or above which summands cannot interact: 2p + ceil(log2 n)."""
    if n < 1:
        raise DomainError("threshold needs n >= 1")
    return 2 * p + (n - 1).bit_length()


def partition_blocks(xs: Sequence[PFloat]) -> list[list[int]]:
    """Group indices of nonzero floats into exponent blocks.

    Sorted by exponent, a gap of block_threshold(p, len(xs)) or more splits
    the list; within a block, consecutive gaps stay below the threshold so
    the block's exact sum has polynomial width.  Blocks are returned in
    descending exponent order (dominant block first).
    """
    if len(xs) == 0:
        raise DomainError("partition_blocks of an empty list")
    p = xs[0].p
    for x in xs:
        if x.p != p:
            raise DomainError(f"mixed precisions {p} and {x.p}")
        if x.m == 0:
            raise DomainError("partition_blocks requires nonzero inputs")
    theta = block_threshold(p, len(xs))
    order = sorted(range(len(xs)), key=lambda i: xs[i].e)
    blocks = [[order[0]]]
    for prev, idx in zip(order, order[1:]):
        if xs[idx].e - xs[prev].e >= theta:
            blocks.append([idx])
        else:
            blocks[-1].append(idx)
    blocks.reverse()
    return blocks


def _block_sums(xs: Sequence[PFloat], blocks: list[list[int]]) -> list[UnnormFloat]:
    """Exact per-block sums, each anchored at its block's minimum exponent."""
    sums = []
    for block in blocks:
        anchor = min(xs[i].e for i in block)
        total = 0
        for i in block:
            total += xs[i].m << (xs[i].e - anchor)
        sums.append(UnnormFloat(total, anchor))
    return sums


def _sign_blocks_vs_dyadic(sums: list[UnnormFloat], start: int, sgn: int, tm: int, te: int) -> int:
    """Sign of (sgn * sum of sums[start:] - tm * 2^te), with tm > 0.

    Blocks arrive in descending anchor order, so once the running difference
    dominates everything still unprocessed (each remaining block plus its own
    tail is below twice its magnitude bound) the sign is settled without
    aligning astronomically separated exponents.  Exact alignment only
    happens when scales overlap to within their bit widths.
    """
    dm, de = -tm, te
    for s in sums[start:]:
        s_m = sgn * s.m
        s_e = s.e
        blk_hi = s_e + abs(s_m).bit_length()  # |s_j| < 2^blk_hi; tail after j < 2^s_e
        if dm != 0:
            d_lo = de + abs(dm).bit_length() - 1
            if d_lo > blk_hi + 1:
                return 1 if dm > 0 else -1
            d_hi = de + abs(dm).bit_length()
            if d_hi < s_e - 1:
                return 1 if s_m > 0 else -1
        shift = de - s_e
        if shift >= 0:
            dm = (dm << shift) + s_m
            de = s_e
        else:
            dm += s_m << -shift
    return (dm > 0) - (dm < 0)


def f_sum_blocks(xs: Sequence[PFloat]) -> PFloat:
    """Correctly rounded n-ary sum via exponent-block decomposition.

    Blocks are scale-separated, so a nonzero higher block dominates every
    lower block combined; rounding the dominant block's exact sum with the
    sign of the next nonzero block settles exact breakpoints.  One corner
    needs more than the sign: a lead block cancelled down to exactly one
    bit sits at the bottom of its binade, where the breakpoint below is at
    distance 2^(e-p-1) while the remainder is only bounded by 2^(e-p); a
    remainder pulling toward zero can cross it, so that case compares the
    remainder's magnitude against the breakpoint distance directly.
    """
    if len(xs) == 0:
        raise DomainError("f_sum_blocks of an empty list")
    p = xs[0].p
    for x in xs:
        if x.p != p:
            raise DomainError(f"mixed precisions {p} and {x.p}")
    nonzero = [x for x in xs if x.m != 0]
    if not nonzero:
        return PFloat(0, 0, p)
    blocks = partition_blocks(nonzero)
    sums = [s for s in _block_sums(nonzero, blocks) if s.m != 0]
    if not sums:
        return PFloat(0, 0, p)
    lead = sums[0]
    tie_dir = 0
    if len(sums) > 1:
        tie_dir = 1 if sums[1].m > 0 else -1
        lead_sign = 1 if lead.m > 0 else -1
        if lead.m in (1, -1) and tie_dir == -lead_sign:
            c = _sign_blocks_vs_dyadic(sums, 1, tie_dir, 1, lead.e - p - 1)
            if c > 0:
                return PFloat(lead_sign * ((1 << p) - 1), lead.e - p, p)
            return PFloat(lead_sign * (1 << (p - 1)), lead.e - p + 1, p)
    return _round_dyadic(lead.m, lead.e, p, tie_dir)


def f_sum_oracle(xs: Sequence[PFloat]) -> PFloat:
    """Reference n-ary sum: exact rational total, rounded once.

    Materializes 2^|e|, so it is meant for moderate exponents (tests and
    verification suites), not for the full exponent range.
    """
    if len(xs) == 0:
        raise DomainError("f_sum_oracle of an empty list")
    p = xs[0].p
    for x in xs:
        if x.p != p:
            raise DomainError(f"mixed precisions {p} and {x.p}")
    total = rat_sum([float_to_rat(x) for x in xs])
    return _round_ratio(total.num, total.den, 0, p)


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
