"""p-bit float semantics: normalized pairs, correct rounding, exact two-ary ops.

The reference rounder below is built directly on Fraction and integer
shifts, independent of the package's own rounding cores, so "correctly
rounded" is never checked against itself.
"""

import copy
import math
import pickle
import random
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exact_xformer import (
    DomainError,
    PFloat,
    Rat,
    eval_smat_pbit,
    f_add,
    f_div,
    f_exp,
    f_mul,
    f_sum_blocks,
    load_model,
    round_p,
)
from exact_xformer import pfloat
from exact_xformer.pfloat import _ilog10, block_threshold, decimal_str, f_dot, f_neg, f_sum_oracle, float_to_rat


def _frac(x: PFloat) -> Fraction:
    return Fraction(x.m) * Fraction(2) ** x.e


def _round_ref(x: Fraction, p: int) -> PFloat:
    """Round-to-nearest, ties to even significand; independent reference."""
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


def _pfloats(p: int, e_min: int = -40, e_max: int = 40):
    return st.builds(
        lambda s, m, e: PFloat(s * m, e, p),
        st.sampled_from((1, -1)),
        st.integers(min_value=1 << (p - 1), max_value=(1 << p) - 1),
        st.integers(min_value=e_min, max_value=e_max),
    )


any_p = st.sampled_from((2, 3, 8, 24, 53))


# --- representation ---------------------------------------------------------


@pytest.mark.parametrize(
    "m,e,p",
    [(3, 0, 3), (8, 0, 3), (-3, 0, 3), (0, 5, 3), (4, 0, 0), (1, 0, -1)],
)
def test_constructor_rejects_unnormalized(m, e, p):
    with pytest.raises(DomainError):
        PFloat(m, e, p)


def test_constructor_rejects_non_int_fields():
    with pytest.raises(DomainError):
        PFloat(5, "0", 3)
    with pytest.raises(DomainError):
        PFloat("5", 0, 3)


def test_zero_form_and_sign():
    z = PFloat.zero(3)
    assert (z.m, z.e) == (0, 0)
    assert z.sign == 0
    assert PFloat(5, 0, 3).sign == 1
    assert PFloat(-5, 0, 3).sign == -1


@given(any_p.flatmap(lambda p: st.one_of(st.just(PFloat.zero(p)), _pfloats(p))))
def test_raw_equals_checked_constructor(x):
    y = PFloat._raw(x.m, x.e, x.p)
    assert type(y) is PFloat
    assert y == x and hash(y) == hash(x)
    with pytest.raises(AttributeError):
        y.m = 1


@given(any_p.flatmap(lambda p: st.one_of(st.just(PFloat.zero(p)), _pfloats(p))))
def test_copies_keep_value_and_hash(x):
    for c in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert (c.m, c.e, c.p) == (x.m, x.e, x.p)
        assert c == x and hash(c) == hash(x)


@pytest.mark.parametrize(
    "call",
    [
        lambda: round_p(Rat(1, 3), 0),
        lambda: round_p(PFloat(5, 0, 3), 0),
        lambda: f_exp(PFloat(4, -3, 3), 0),
        lambda: f_exp(PFloat(4, 2, 3), 0),
        lambda: f_exp(PFloat.zero(3), 0),
        lambda: f_dot([], [], 0),
        lambda: eval_smat_pbit(load_model("softmax-uniform"), "1101", 0),
    ],
    ids=["round-rat", "round-float", "exp", "exp-large", "exp-zero", "dot-empty", "smat"],
)
def test_entry_points_reject_precision_zero(call):
    # internal results are built unchecked, so each entry point that takes
    # a precision from its caller checks it on the way in
    with pytest.raises(DomainError, match=r"^precision must be a positive int, got 0$"):
        call()


@given(any_p.flatmap(lambda p: _pfloats(p, -(10**6), 10**6)))
def test_json_round_trip(x):
    d = x.to_json_dict()
    assert set(d) == {"m", "e", "p"}
    assert isinstance(d["m"], str) and isinstance(d["e"], str)


def test_decimal_str_forms():
    assert decimal_str(PFloat.zero(8)) == "0"
    assert decimal_str(round_p(Rat(1, 4), 8)) == "2.50000000000e-1"
    assert decimal_str(PFloat(-160, -2, 8)) == "-4.00000000000e+1"
    # one significant digit has no point in either branch, as in Python's
    # f"{5.0:.0e}" (which pads its exponent to two digits)
    assert decimal_str(PFloat(5, 0, 3), 1) == "5e+0"
    assert decimal_str(PFloat(3, (1 << 18) + 1, 2), 1) == "1e+78914"  # 9.67e+78913, not 10e+78913


@pytest.mark.parametrize("digits", range(1, 21))
def test_decimal_str_form_past_e_2_18(digits):
    # the approximate branch: `digits` significant digits of a mantissa in
    # [1, 10), a point only before a second digit, and within half a unit
    # of the last digit (plus the float logarithm's error) of the value
    ctx = Context(prec=40)
    for e in [*range((1 << 18) + 1, (1 << 18) + 401), *range(-(1 << 18) - 40, -(1 << 18))]:
        x = PFloat(-3, e, 2) if e % 2 else PFloat(5, e, 3)
        text = decimal_str(x, digits)
        mant, k10 = text.lstrip("-").split("e")
        assert text.startswith("-") == (x.m < 0)
        assert len(mant) == (digits + 1 if digits > 1 else 1) and mant.replace(".", "").isdigit()
        assert (mant[1] == ".") if digits > 1 else mant.isdigit()
        assert 1 <= Decimal(mant) < 10
        exact = ctx.divide(ctx.multiply(Decimal(abs(x.m)), ctx.power(Decimal(2), e)), ctx.power(Decimal(10), int(k10)))
        assert abs(Decimal(mant) - exact) <= Decimal(10) ** (1 - digits) / 2 + Decimal("1e-9"), (e, text)


def _exact_digits(x: PFloat, digits: int) -> str:
    """x rounded half up to `digits` significant digits, off the exact
    integer |m| 2^e, or |m| 5^-e over 10^-e, with no decimal string of it."""
    n, shift = (abs(x.m) << x.e, 0) if x.e >= 0 else (abs(x.m) * 5**-x.e, x.e)
    k = _ilog10(n)
    unit = 10 ** (k - digits + 1)
    lead = (n + unit // 2) // unit
    if lead == 10**digits:
        lead, k = lead // 10, k + 1
    text = str(lead)
    return f"{'-' if x.m < 0 else ''}{text[0]}{'.' if digits > 1 else ''}{text[1:]}e{k + shift:+d}"


@pytest.mark.parametrize("e", [(1 << 18) + 1, (1 << 18) + 7, -(1 << 18) - 1])
def test_decimal_str_past_e_2_18_is_the_exact_value_rounded(e):
    # every lead digit right: the float logarithm this branch used to take
    # printed 9.66795430499e+78913 for 3 * 2^(2^18 + 1)
    for x in (PFloat(3, e, 2), PFloat(-(1 << 52) - 12345, e, 53)):
        for digits in (1, 12, 20):
            assert decimal_str(x, digits) == _exact_digits(x, digits)
    assert decimal_str(PFloat(3, (1 << 18) + 1, 2)) == "9.66795430491e+78913"


def _decimal_str_by_string_length(x: PFloat, digits: int = 12) -> str:
    """decimal_str as it was when k10 came from decimal string lengths
    (which fail past the int-string digit limit); the reference below."""
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
    return f"{s}{text[0]}.{text[1:]}e{k10:+d}" if digits > 1 else f"{s}{text}e{k10:+d}"


@st.composite
def _decimal_cases(draw):
    """A float with p <= 113 and |e| <= 4096, often a significand next to a
    power of ten at e = 0, where the digit count and the rounding carry
    change."""
    p = draw(st.integers(min_value=1, max_value=113))
    lo, hi = 1 << (p - 1), (1 << p) - 1
    near_ten = [10**j + d for j in range(35) for d in (-1, 0, 1) if lo <= 10**j + d <= hi]
    m = draw(st.sampled_from(near_ten) if near_ten and draw(st.booleans()) else st.integers(min_value=lo, max_value=hi))
    e = draw(st.one_of(st.just(0), st.integers(min_value=-4096, max_value=4096)))
    return PFloat(draw(st.sampled_from((1, -1))) * m, e, p), draw(st.integers(min_value=1, max_value=20))


@given(_decimal_cases())
def test_decimal_str_matches_string_length_reference(case):
    x, digits = case
    assert decimal_str(x, digits) == _decimal_str_by_string_length(x, digits)


@pytest.mark.parametrize("p", [1024, 4200, 8192])
def test_decimal_str_is_rounded_half_up_past_e_4096(p):
    # the poly(n)-bit precisions reach exponents past 4096; up to 2^18 the
    # digits must be those of the exact value, rounded half up
    rng = random.Random(p)
    edges = [4097, -4097, 1 << 18, -(1 << 18)]
    for e in edges + [rng.choice((1, -1)) * rng.randint(4097, 1 << 18) for _ in range(8)]:
        x = PFloat(rng.choice((1, -1)) * rng.randint(1 << (p - 1), (1 << p) - 1), e, p)
        num, den = (Decimal(x.m << e), Decimal(1)) if e >= 0 else (Decimal(x.m), Decimal(1 << -e))
        for digits in (12, 17):
            want = Context(prec=digits, rounding=ROUND_HALF_UP).divide(num, den)
            assert decimal_str(x, digits) == f"{want:.{digits - 1}e}", (p, e)


powers_of_ten = st.integers(min_value=1, max_value=4000).map(lambda k: 10**k)


@given(st.one_of(st.integers(min_value=1, max_value=1 << 14000), powers_of_ten, powers_of_ten.map(lambda n: n - 1)))
def test_ilog10_is_decimal_length_minus_one(n):
    assert _ilog10(n) == len(str(n)) - 1


# --- rounding ----------------------------------------------------------------


def test_rounding_examples():
    # 9 = 1001_2 sits exactly between <4|1> and <5|1>: even wins
    assert round_p(Rat(9), 3) == PFloat(4, 1, 3)
    assert round_p(Rat(-9), 3) == PFloat(-4, 1, 3)
    # 17 is nearer 16 than 20
    assert round_p(Rat(17), 3) == PFloat(4, 2, 3)
    assert round_p(Rat(0), 3) == PFloat.zero(3)
    assert round_p(7, 3) == PFloat(7, 0, 3)


@given(
    any_p.flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.fractions(
                min_value=Fraction(-(10**9)),
                max_value=Fraction(10**9),
                max_denominator=10**9,
            ),
        )
    )
)
def test_round_matches_reference(args):
    p, f = args
    assert round_p(Rat(f.numerator, f.denominator), p) == _round_ref(f, p)


@given(any_p.flatmap(_pfloats))
def test_round_idempotent_and_widening(x):
    assert round_p(x, x.p) == x
    wide = round_p(x, x.p + 7)
    assert float_to_rat(wide) == float_to_rat(x)


@given(_pfloats(3, -6, 6))
def test_round_midpoints_go_even(x):
    if x.m < 0:
        x = f_neg(x)
    up = Fraction(x.m + 1) * Fraction(2) ** x.e if x.m + 1 < 8 else Fraction(8) * Fraction(2) ** x.e
    mid = (_frac(x) + up) / 2
    r = round_p(Rat(mid.numerator, mid.denominator), 3)
    assert r.m % 2 == 0
    assert r in (x, _round_ref(up, 3))


# --- two-ary operations --------------------------------------------------------


def test_frozen_binary_examples():
    assert f_add(PFloat(5, 0, 3), PFloat(7, -3, 3)) == PFloat(6, 0, 3)
    assert f_div(PFloat(5, 0, 3), PFloat(5, 0, 3)) == PFloat(4, -2, 3)
    assert f_add(PFloat(-5, 0, 3), PFloat(-7, -3, 3)) == PFloat(-6, 0, 3)


@given(any_p.flatmap(lambda p: st.tuples(_pfloats(p), _pfloats(p))))
def test_add_mul_are_correctly_rounded(pair):
    x, y = pair
    assert f_add(x, y) == _round_ref(_frac(x) + _frac(y), x.p)
    assert f_mul(x, y) == _round_ref(_frac(x) * _frac(y), x.p)


@given(any_p.flatmap(lambda p: st.tuples(_pfloats(p), _pfloats(p))))
def test_div_is_correctly_rounded(pair):
    x, y = pair
    assert f_div(x, y) == _round_ref(_frac(x) / _frac(y), x.p)


@pytest.mark.parametrize("gap_off", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("p", [3, 8])
def test_add_dual_path_boundary(p, gap_off):
    # the two terms fall into one block below gap block_threshold(p, 2) and
    # into two at or above it; both paths must agree with the rational
    # oracle across the seam
    gap = block_threshold(p, 2) + gap_off
    for sx in (1, -1):
        for sy in (1, -1):
            for my in (1 << (p - 1), (1 << p) - 1):
                x = PFloat(sx * ((1 << (p - 1)) + 1), gap, p)
                y = PFloat(sy * my, 0, p)
                assert f_add(x, y) == _round_ref(_frac(x) + _frac(y), p)


def test_add_huge_gap_never_materializes():
    big = PFloat(4, 1000, 3)
    assert f_add(big, PFloat(5, 0, 3)) == big
    assert f_add(big, PFloat(-5, 0, 3)) == big
    assert f_add(f_neg(big), PFloat(5, 0, 3)) == f_neg(big)


def test_zero_propagation():
    z, x = PFloat.zero(3), PFloat(7, 9, 3)
    assert f_add(x, z) == x
    assert f_add(z, z) == z
    assert f_mul(z, x) == z
    assert f_div(z, x) == z
    assert f_neg(z) == z


def test_div_by_zero():
    with pytest.raises(DomainError):
        f_div(PFloat(5, 0, 3), PFloat.zero(3))


def test_mixed_precision_rejected():
    with pytest.raises(DomainError):
        f_add(PFloat(5, 0, 3), PFloat(9, 0, 4))


@st.composite
def _gapped_pairs(draw, p):
    """(x, y) with |x.e - y.e| up to 4p, zeros and equal magnitudes included."""
    x = draw(st.one_of(st.just(PFloat.zero(p)), _pfloats(p, -200, 200)))
    kind = draw(st.sampled_from(("gap", "gap", "gap", "same", "zero")))
    if kind == "zero":
        return x, PFloat.zero(p)
    if kind == "same" and x.m:
        return x, PFloat(draw(st.sampled_from((1, -1))) * x.m, x.e, p)
    gap = draw(st.integers(min_value=-4 * p, max_value=4 * p))
    y = draw(_pfloats(p, 0, 0))
    return x, PFloat(y.m, x.e + gap, p)


@pytest.mark.parametrize("p", [3, 53, 113])
@given(data=st.data())
def test_add_across_gaps(p, data):
    x, y = data.draw(_gapped_pairs(p))
    assert f_add(x, y) == f_add(y, x) == f_sum_oracle([x, y])


# --- block threshold ----------------------------------------------------------------


def test_block_threshold_values():
    assert block_threshold(3, 2) == 8
    assert block_threshold(3, 10) == 11
    assert block_threshold(8, 64) == 23


# --- dot products ---------------------------------------------------------------


def _dot_cases(p: int):
    """(u, v, bias) of up to 20 pairs (smat's context dots have 8-16), with
    zero factors, and exponents spread over [-spread, spread], so the rounded
    products fall into one block or several (block_threshold is 2p +
    ceil(log2 n) + 1)."""

    def build(spread):
        factor = st.one_of(st.just(PFloat.zero(p)), _pfloats(p, -spread, spread))
        bias = st.one_of(st.none(), st.just(PFloat.zero(p)), _pfloats(p, -2 * spread, 2 * spread))
        pairs = st.lists(st.tuples(factor, factor), max_size=20)
        return st.tuples(pairs, bias).map(lambda c: ([a for a, _ in c[0]], [b for _, b in c[0]], c[1]))

    return st.integers(min_value=0, max_value=3 * p).flatmap(build)


@given(st.sampled_from((2, 3, 8, 24, 53, 113)).flatmap(lambda p: st.tuples(st.just(p), _dot_cases(p))))
def test_dot_equals_sum_of_rounded_products(case):
    p, (u, v, bias) = case
    terms = [f_mul(a, b) for a, b in zip(u, v) if a.m and b.m] + ([bias] if bias is not None else [])
    got = f_dot(u, v, p, bias)
    if not terms:
        assert got == PFloat.zero(p)
        return
    assert got == f_sum_blocks(terms) == f_sum_oracle(terms)


def _dot_span_cases(p: int, n: int, gap: int):
    """(u, bias) of length n whose nonzero terms' exponents span exactly
    `gap`, for a dot of u with ones (each product is then exact).  The far
    term is reached from above and from below, after a dominant block that
    cancels to zero, as the bias, and as the sign that breaks a tie: 1 +
    2^-p lies halfway between two p-bit floats."""
    big, far = PFloat((1 << p) - 1, 0, p), PFloat(-((1 << p) - 1), -gap, p)
    unit, tie = PFloat(1 << (p - 1), 1 - p, p), PFloat(1 << (p - 1), 1 - 2 * p, p)
    rows = [
        ([big, far], None),
        ([far, big], None),
        ([big, PFloat(-big.m, 0, p), far], None),
        ([big], far),
        ([unit, tie, PFloat(1 << (p - 1), 1 - p - gap, p)], None),
    ]
    return [(u + [PFloat.zero(p)] * (n - len(u)), bias) for u, bias in rows if len(u) <= n]


@pytest.mark.parametrize("p", [1, 2, 3, 24, 53])
@pytest.mark.parametrize("n", [1, 3, 4, 16, 20])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_dot_routes_at_the_block_threshold(p, n, offset, monkeypatch):
    # a span below block_threshold(p, n + 1) is summed in the fused pass;
    # at or past it, the rounded products go to _sum_pairs.  Both give the
    # correctly rounded exact sum.
    theta = block_threshold(p, n + 1)
    one = PFloat(1 << (p - 1), 1 - p, p)
    routed = []
    sum_pairs = pfloat._sum_pairs
    monkeypatch.setattr(pfloat, "_sum_pairs", lambda ms, es, q: routed.append(len(ms)) or sum_pairs(ms, es, q))
    cases = _dot_span_cases(p, n, theta + offset)
    assert cases
    for u, bias in cases:
        routed.clear()
        terms = [x for x in u if x.m] + ([bias] if bias is not None else [])
        got = f_dot(u, [one] * n, p, bias)
        assert routed == ([] if offset < 0 else [len(terms)])
        assert got == f_sum_blocks(terms) == f_sum_oracle(terms)


def test_dot_of_empty_vectors_is_zero_at_p():
    assert f_dot([], [], 5) == PFloat.zero(5)
    assert f_dot([], [], 5, PFloat.zero(5)) == PFloat.zero(5)
    assert f_dot([], [], 5, PFloat(-17, 3, 5)) == PFloat(-17, 3, 5)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_dot_matches_rounded_products_exhaustively(p):
    # every product of two p-bit floats (zero included) over a few binades,
    # against f_mul's rounding: at p = 1 a product needs no rounding at all
    grid = [PFloat.zero(p)] + [
        PFloat(s * m, e, p) for s in (1, -1) for m in range(1 << (p - 1), 1 << p) for e in range(-p - 1, p + 2)
    ]
    top = 1 << p
    biases = [None, PFloat.zero(p), PFloat(top - 1, 0, p), PFloat(-(1 << (p - 1)), -p, p), PFloat(1 << (p - 1), 3 * p, p)]
    for a in grid:
        for b in grid:
            for bias in biases:
                tail = [bias] if bias is not None else []
                one = [f_mul(a, b)] if a.m and b.m else []
                assert f_dot([a], [b], p, bias) == (f_sum_blocks(one + tail) if one + tail else PFloat.zero(p))
                two = [t for t in (f_mul(a, b), f_mul(b, b)) if t.m]
                assert f_dot([a, b], [b, b], p, bias) == (f_sum_blocks(two + tail) if two + tail else PFloat.zero(p))


@pytest.mark.parametrize(
    "u, v, bias",
    [
        ([PFloat(5, 0, 3)], [PFloat(9, 0, 4)], None),
        ([PFloat(9, 0, 4)], [PFloat(5, 0, 3)], None),
        ([PFloat(5, 0, 3)], [PFloat.zero(4)], None),
        ([PFloat(5, 0, 3)], [PFloat(5, 0, 3)], PFloat(9, 0, 4)),
    ],
    ids=["left", "right", "zero-factor", "bias"],
)
def test_dot_rejects_mixed_precisions(u, v, bias):
    with pytest.raises(DomainError, match="mixed precisions 3 and 4"):
        f_dot(u, v, 3, bias)
