"""p-bit floating-point arithmetic with exact round-to-nearest-even.

A nonzero float is a pair (m, e) with 2^(p-1) <= |m| < 2^p, denoting
m * 2^e; zero is (0, 0).  The exponent is an unbounded integer: rounding is
total on nonzero values and zero is produced only by exact cancellation.
Every operation here is the correctly rounded exact result, one core each:
mul and div round once; every sum, f_add's two terms included, partitions
its inputs into exponent blocks, adds the dominant nonzero block exactly,
and rounds it once with the next nonzero block's sign breaking an exact
tie.  A dot product rounds each nonzero product once and sums the rounded
products, with its bias, in one fused pass: an exact integer total over the
least exponent seen, rounded once.  That is the correctly rounded exact sum,
which the block sum also returns, so the two agree bit for bit; the fused
pass hands over to the block sum once the exponents span
block_threshold(p, len(u) + 1), which keeps its total's width polynomial.

Layer 1: the rounding core, _round_pair, the one ties-to-even.
Layer 2: two-ary ops, add on layer 3's _sum_pairs.
Layer 3: block summation and dot products, on plain (m, e) integer pairs.

The public constructor checks its fields.  A result that comes out of
_round_pair or _sum_pairs at a precision already checked (one taken from a
PFloat operand, or checked on entry by round_p and f_exp) is built
unchecked by PFloat._raw: in _round_dyadic, f_add, f_sum_blocks, f_dot and
elementary.f_exp.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError
from .rational import Rat, rat_sum


def _check_precision(p) -> None:
    if not isinstance(p, int) or p < 1:
        raise DomainError(f"precision must be a positive int, got {p!r}")


@dataclass(frozen=True, slots=True, init=False)
class PFloat:
    m: int
    e: int
    p: int

    def __init__(self, m: int, e: int, p: int):
        """The checked constructor: the precision, then the field types,
        then the zero form or the significand's p bits."""
        _check_precision(p)
        if not isinstance(m, int) or not isinstance(e, int):
            raise DomainError("significand and exponent must be ints")
        if m:
            if abs(m).bit_length() != p:
                raise DomainError(f"significand {m} not normalized for p={p}")
        elif e:
            raise DomainError("zero must be represented as (0, 0)")
        _set_m(self, m)
        _set_e(self, e)
        _set_p(self, p)

    @classmethod
    def _raw(cls, m: int, e: int, p: int) -> "PFloat":
        """Wrap a normalized (m, e) at a valid p without the checks."""
        self = _new(cls)
        _set_m(self, m)
        _set_e(self, e)
        _set_p(self, p)
        return self

    @classmethod
    def zero(cls, p: int) -> "PFloat":
        return cls(0, 0, p)

    @property
    def sign(self) -> int:
        return (self.m > 0) - (self.m < 0)

    def to_json_dict(self) -> dict:
        return {"m": str(self.m), "e": str(self.e), "p": self.p}


# The slots' own setters, which skip the frozen __setattr__ and its by-name
# lookup; PFloat._raw builds a float with three calls.
_new = object.__new__
_set_m, _set_e, _set_p = PFloat.m.__set__, PFloat.e.__set__, PFloat.p.__set__


# --------------------------------------------------------------------------
# Layer 1: rounding core
#
# _round_pair is pfloat's one round-to-nearest, ties-to-even; _round_dyadic
# wraps its (m, e) in a PFloat.  An inexact value reaches it as a dyadic
# stand-in with a sticky low bit, placed strictly between the same two
# adjacent rounding breakpoints as the value, so both round alike.
# --------------------------------------------------------------------------


def _round_pair(M: int, E: int, p: int) -> tuple[int, int]:
    """The p-bit (m, e) nearest to the dyadic value M * 2^E; (0, 0) for zero."""
    if M == 0:
        return 0, 0
    A = abs(M)
    shift = A.bit_length() - p
    if shift <= 0:
        return M << -shift, E + shift
    m = A >> shift
    low = A & ((1 << shift) - 1)
    half = 1 << (shift - 1)
    if low > half or (low == half and m & 1):
        m += 1
    e = E + shift
    if m == 1 << p:
        m >>= 1
        e += 1
    return (m if M > 0 else -m), e


def _round_dyadic(M: int, E: int, p: int) -> PFloat:
    """Round the dyadic value M * 2^E to p bits."""
    m, e = _round_pair(M, E, p)
    return PFloat._raw(m, e, p)


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
    _check_precision(p)
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
    """Correctly rounded sum: the two-term block sum."""
    p = _check_pair(x, y)
    if x.m == 0:
        return y
    if y.m == 0:
        return x
    return PFloat._raw(*_sum_pairs([x.m, y.m], [x.e, y.e], p), p)


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
    return _partition([x.e for x in xs], block_threshold(p, len(xs)))


def _partition(es: Sequence[int], theta: int) -> list[list[int]]:
    """partition_blocks over the exponents alone, with its threshold given."""
    order = sorted(range(len(es)), key=es.__getitem__)
    blocks = [[order[0]]]
    for prev, idx in zip(order, order[1:]):
        if es[idx] - es[prev] >= theta:
            blocks.append([idx])
        else:
            blocks[-1].append(idx)
    blocks.reverse()
    return blocks


def _sum_pairs(ms: list[int], es: list[int], p: int) -> tuple[int, int]:
    """The p-bit (m, e) nearest to the sum of the nonzero ms[k] * 2^es[k].

    Blocks are separated by block_threshold, so everything below the
    dominant nonzero block totals less than the distance from that block's
    exact sum to its nearest other breakpoint.  The result is that sum
    rounded once, with the next nonzero block's sign as a sticky bit p + 2
    places below the sum's anchor, which only an exact tie can feel.  When
    all exponents lie within one threshold there is one block, summed
    without sorting.
    """
    if not ms:
        return 0, 0
    theta = block_threshold(p, len(ms))
    low = min(es)
    if max(es) - low < theta:
        total = 0
        for m, e in zip(ms, es):
            total += m << (e - low)
        return _round_pair(total, low, p)
    lead = None
    for block in _partition(es, theta):
        anchor = min(es[i] for i in block)
        total = 0
        for i in block:
            total += ms[i] << (es[i] - anchor)
        if total == 0:
            continue
        if lead is not None:
            m, e = lead
            return _round_pair((m << (p + 2)) + (1 if total > 0 else -1), e - p - 2, p)
        lead = total, anchor
    return _round_pair(*lead, p) if lead else (0, 0)


def f_sum_blocks(xs: Sequence[PFloat]) -> PFloat:
    """Correctly rounded n-ary sum via exponent-block decomposition."""
    p = _common_p(xs, "f_sum_blocks")
    nonzero = [x for x in xs if x.m]
    m, e = _sum_pairs([x.m for x in nonzero], [x.e for x in nonzero], p)
    return PFloat._raw(m, e, p)


def f_dot(u: Sequence[PFloat], v: Sequence[PFloat], p: int, bias: PFloat | None = None) -> PFloat:
    """f_sum_blocks([f_mul(a, b) for nonzero pairs] + [bias]), zero at p when
    no term is nonzero; the products stay (m, e) pairs, so one PFloat is built.

    Each product is rounded inline, with _round_pair's ties-to-even: two
    normalized p-bit significands multiply to 2p - 1 or 2p bits, so the
    shift is p - 1 or p, and 0 (nothing to round) only at p = 1.

    One fused pass adds each rounded product, and the bias, straight into an
    exact integer total over 2^low, low the least exponent seen so far, and
    rounds that total once: the correctly rounded exact sum, which is what
    _sum_pairs returns too.  The total stays narrow while the exponents span
    less than block_threshold(p, len(u) + 1); once they span that or more,
    the rounded products go to _sum_pairs, whose blocks keep its widths
    polynomial whatever the span.
    """
    top = 1 << p
    theta = block_threshold(p, len(u) + 1)
    total, low, high = 0, None, None
    if bias is not None and bias.m and bias.p == p:
        total, low, high = bias.m, bias.e, bias.e
    for a, b in zip(u, v):
        if a.p != p or b.p != p:
            raise DomainError(f"mixed precisions {p} and {b.p if a.p == p else a.p}")
        if a.m and b.m and total is not None:
            M = a.m * b.m
            A = abs(M)
            shift = A.bit_length() - p
            if shift <= 0:
                m = M << -shift
            else:
                m = A >> shift
                rest = A & ((1 << shift) - 1)
                half = 1 << (shift - 1)
                if rest > half or (rest == half and m & 1):
                    m += 1
                    if m == top:
                        m >>= 1
                        shift += 1
                if M < 0:
                    m = -m
            e = a.e + b.e + shift
            if low is None:
                total, low, high = m, e, e
            elif e < low:
                if high - e >= theta:
                    total = None
                    continue
                total = (total << (low - e)) + m
                low = e
            elif e - low < theta:
                total += m << (e - low)
                if e > high:
                    high = e
            else:
                total = None
    if bias is not None and bias.p != p:
        raise DomainError(f"mixed precisions {p} and {bias.p}")
    if total is None:
        pairs = [_round_pair(a.m * b.m, a.e + b.e, p) for a, b in zip(u, v) if a.m and b.m]
        if bias is not None and bias.m:
            pairs.append((bias.m, bias.e))
        return PFloat._raw(*_sum_pairs([m for m, _ in pairs], [e for _, e in pairs], p), p)
    if low is None:
        return PFloat.zero(p)
    return PFloat._raw(*_round_pair(total, low, p), p)


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


def _ilog10(n: int) -> int:
    """floor(log10(n)) for n >= 1, i.e. len(str(n)) - 1, with no decimal
    conversion: 1233/4096 < log10(2) starts it at or below the answer."""
    k = (n.bit_length() - 1) * 1233 >> 12
    while n >= 10 ** (k + 1):
        k += 1
    return k


def decimal_str(x: PFloat, digits: int = 12) -> str:
    """Advisory decimal rendering; the (m, e, p) triple is the normative form.
    The exact value rounded half up while |e| <= 2^18, approximate beyond:
    there the digits are right except near a rounding tie.  Either way
    `digits` significant digits of a mantissa in [1, 10), as in Python's
    `e` format with an unpadded exponent."""
    if x.m == 0:
        return "0"
    A = abs(x.m)
    if abs(x.e) > 1 << 18:
        # A * 2^e in decimal, at len(str(|e|)) + 10 guard digits: its
        # power's roundings, about 2 log2|e| of them, stay far below the
        # last digit kept, then one rounding half up to `digits`
        prec = digits + len(str(abs(x.e))) + 10
        ctx = decimal.Context(prec, decimal.ROUND_HALF_UP, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
        value = ctx.multiply(A, ctx.power(2, x.e))
        ctx.prec = digits
        lead = ctx.plus(value)
        text = "".join(map(str, lead.as_tuple().digits)).ljust(digits, "0")
        k10 = lead.adjusted()
    else:
        num, den = (A << x.e, 1) if x.e >= 0 else (A, 1 << -x.e)

        def scaled(k10: int) -> int:
            sh = digits - 1 - k10
            n, d = (num * 10**sh, den) if sh >= 0 else (num, den * 10**-sh)
            return (n + d // 2) // d

        k10 = _ilog10(num) - _ilog10(den)
        mant = scaled(k10)
        while mant >= 10**digits:
            k10 += 1
            mant = scaled(k10)
        while mant < 10 ** (digits - 1):
            k10 -= 1
            mant = scaled(k10)
        text = str(mant)
    point = "." if digits > 1 else ""
    return f"{'-' if x.m < 0 else ''}{text[0]}{point}{text[1:digits]}e{k10:+d}"
