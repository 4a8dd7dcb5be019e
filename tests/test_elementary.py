"""exp and sqrt on p-bit floats, plus their dyadic variants for budgets.

f_exp carries a relative-error contract (within 2^-p of the true value);
f_sqrt is correctly rounded outright.  The checks here use interval
enclosures and squared-integer comparisons, never a binary float library.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_xformer import (
    DomainError,
    FloatRangeError,
    PFloat,
    Rat,
    elementary,
    f_add,
    f_exp,
    f_sqrt,
    round_p,
)
from exact_xformer.elementary import (
    _exp_enclosure,
    _exp_series,
    exp_plan,
    log2_const,
    rat_exp_approx,
    rat_sqrt_approx,
)
from exact_xformer.pfloat import _round_dyadic, _round_ratio, float_to_rat
from exact_xformer.verify import exp_enclosure, sqrt_round_oracle

# ln(2) to 30 places; any tighter published value agrees to this width
LOG2_30 = Rat(693147180559945309417232121458, 10**30)


def _pfloats(p, e_min, e_max):
    return st.builds(
        lambda s, m, e: PFloat(s * m, e, p),
        st.sampled_from((1, -1)),
        st.integers(min_value=1 << (p - 1), max_value=(1 << p) - 1),
        st.integers(min_value=e_min, max_value=e_max),
    )


# --- exp ----------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 8, 24])
def test_exp_of_zero_is_one(p):
    assert f_exp(PFloat.zero(p)) == round_p(Rat(1), p)
    assert round_p(Rat(1), p) == PFloat(1 << (p - 1), -(p - 1), p)


@given(_pfloats(8, -10, -1))
@settings(max_examples=150)
def test_exp_relative_error(x):
    y = float_to_rat(f_exp(x))
    lo, hi = exp_enclosure(float_to_rat(x), 64)
    tol = Rat(1, 1 << 8)
    assert y >= lo * (Rat(1) - tol)
    assert y <= hi * (Rat(1) + tol)


def test_exp_product_identity():
    # e^x * e^-x must land within the combined relative slack of 1
    one = Rat(1)
    p = 8
    for m, e in ((160, -2), (224, -4), (128, -1)):
        a = float_to_rat(f_exp(PFloat(m, e, p)))
        b = float_to_rat(f_exp(PFloat(-m, e, p)))
        slack = Rat(1, 1 << (p - 2))
        assert abs(a * b - one) <= slack


def test_exp_monotone_sample():
    p = 8
    xs = [PFloat(-200, -5, p), PFloat(-128, -7, p), PFloat(128, -7, p), PFloat(200, -5, p)]
    ys = [float_to_rat(f_exp(x)) for x in xs]
    for a, b in zip(ys, ys[1:]):
        assert a <= b


def test_exp_range_guards():
    # p=3 admits scaling exponents k in [-8, 8): 16 trips the magnitude
    # guard, 8 the exact k-range check, both signs
    for m, e in ((4, 2), (4, 1), (-4, 2), (-4, 1)):
        with pytest.raises(FloatRangeError):
            f_exp(PFloat(m, e, 3))
    # 5 is still inside (k = 7)
    assert f_exp(PFloat(5, 0, 3)) == PFloat(5, 5, 3)


def test_exp_tiny_argument_short_circuit():
    p = 8
    one = round_p(Rat(1), p)
    assert f_exp(PFloat(128, -200, p)) == one
    assert f_exp(PFloat(-128, -200, p)) == one


def test_exp_optional_working_precision():
    x = PFloat(160, -7, 8)
    assert f_exp(x) == f_exp(x, 8)


# --- exp: the fixed-point enclosure returns the exact series' rounding ------------


def _exp_reference(x, p=None):
    """f_exp with the truncated series summed exactly, then rounded once.

    Same range reduction, series length and short cuts as f_exp; only the
    sum differs, so f_exp must return exactly this float.
    """
    p = x.p if p is None else p
    if x.m == 0:
        return round_p(Rat(1), p)
    log_mag = x.e + abs(x.m).bit_length() - 1
    if log_mag >= p + 1:
        raise FloatRangeError("k out of range")
    w = 2 * p + 8
    if log_mag <= -(2 * p + 16):
        return f_add(round_p(Rat(1), p), round_p(x, p))
    lam = log2_const(w + max(2, log_mag + 2) + 8)
    xr = float_to_rat(x)
    k = (xr.num * lam.den) // (xr.den * lam.num)
    if not -(1 << p) <= k < (1 << p):
        raise FloatRangeError("k out of range")
    total = _exp_series(xr - Rat(k) * lam, exp_plan(w))
    return _round_ratio(total.num, total.den, k, p)


def _same_exp(x, p=None):
    """Whether exp(x) is in range, after checking f_exp against the reference."""
    try:
        want = _exp_reference(x, p)
    except FloatRangeError:
        with pytest.raises(FloatRangeError):
            f_exp(x, p)
        return False
    assert f_exp(x, p) == want, (x, p)
    return True


def _exp_grid(p):
    """Every p-bit float whose floor(log2 |x|) runs from below the tiny-argument
    short cut to above the range guard, both signs."""
    for m in range(1 << (p - 1), 1 << p):
        for log_mag in range(-(2 * p + 17), p + 2):
            for s in (1, -1):
                yield PFloat(s * m, log_mag - (p - 1), p)


@pytest.mark.parametrize("p", range(2, 9))
def test_exp_matches_exact_series_exhaustive(p):
    for x in _exp_grid(p):
        _same_exp(x)
        _same_exp(x, p + 3)
        _same_exp(x, max(1, p - 1))


@pytest.mark.parametrize("p", [24, 53, 113])
@given(data=st.data())
@settings(max_examples=60)
def test_exp_matches_exact_series(p, data):
    _same_exp(data.draw(_pfloats(p, -(3 * p + 20), 3)))


@given(
    x=st.sampled_from((24, 53)).flatmap(lambda p: _pfloats(p, -(3 * p + 20), 3)),
    q=st.sampled_from((8, 24, 53, 113)),
)
@settings(max_examples=80)
def test_exp_at_another_precision_matches_exact_series(x, q):
    _same_exp(x, q)


@pytest.mark.parametrize("p", [5, 8])
def test_exp_fallback_keeps_exact_series_result(p, monkeypatch):
    # a guard this negative leaves the enclosure only a few bits beyond p,
    # so lo and hi often round apart and the exact sum has to decide
    fallbacks = []

    def counting(r, terms):
        fallbacks.append(r)
        return _exp_series(r, terms)

    monkeypatch.setattr(elementary, "_EXP_GUARD", -(p + 8))
    monkeypatch.setattr(elementary, "_exp_series", counting)
    cases = list(_exp_grid(p))
    for x in cases:
        _same_exp(x)
    assert 0 < len(fallbacks) < len(cases)


@given(p=st.sampled_from((1, 3, 24, 53, 256)), data=st.data())
@settings(max_examples=80, deadline=None)
def test_exp_first_pass_defers_to_full_width(p, data):
    # the first pass patched down to w1 <= p + 8 < 2p + 8 bits leaves every
    # result as it was; at one bit its ends round apart at any p >= 5, so the
    # full-width enclosure or the exact series decides (a k out of range
    # raises after the first reduction)
    x = data.draw(_pfloats(p, -(3 * p + 20), 3))
    w1 = data.draw(st.sampled_from((1, 2, p // 2 + 1, p, p + 8)))
    widths = []
    reduced = elementary._exp_reduced
    with mock.patch.object(elementary, "_EXP_FIRST", w1 - p), mock.patch.object(
        elementary, "_exp_reduced", lambda *args: widths.append(args[4]) or reduced(*args)
    ):
        in_range = _same_exp(x)
    assert widths in ([], [w1], [w1, 2 * p + 8])
    if w1 == 1 and p >= 5 and widths and in_range:
        assert widths == [1, 2 * p + 8]


@pytest.mark.parametrize("w1", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_exp_narrow_first_pass_matches_exact_series_exhaustive(p, w1):
    # at one to three bits the first pass's sum stops short of the full
    # series by up to 2^-(w1 + 2), as much as a p-bit rounding step: its
    # enclosure must carry that tail to return the same floats
    passes = []
    reduced = elementary._exp_reduced
    with mock.patch.object(elementary, "_EXP_FIRST", w1 - p), mock.patch.object(
        elementary, "_exp_reduced", lambda *args: passes.append(args[4]) or reduced(*args)
    ):
        for x in _exp_grid(p):
            _same_exp(x)
    assert w1 in passes


# --- log2 constant ---------------------------------------------------------------


def test_log2_const_agrees_with_published_value():
    d = log2_const(100) - LOG2_30
    assert abs(d) < Rat(1, 1 << 90)


def test_log2_const_successive_widths_agree():
    d = log2_const(64) - log2_const(128)
    assert abs(d) < Rat(1, 1 << 60)


# --- sqrt ------------------------------------------------------------------------


def test_sqrt_exact_values():
    assert f_sqrt(PFloat(4, 0, 3)) == PFloat(4, -1, 3)  # sqrt 4 = 2
    assert f_sqrt(PFloat(4, 2, 3)) == PFloat(4, 0, 3)  # sqrt 16 = 4
    assert f_sqrt(PFloat.zero(3)) == PFloat.zero(3)


def test_sqrt_rejects_negative():
    with pytest.raises(DomainError):
        f_sqrt(PFloat(-4, 0, 3))


@given(_pfloats(8, -30, 30).map(lambda x: PFloat(abs(x.m), x.e, x.p)))
@settings(max_examples=200)
def test_sqrt_result_brackets_true_root(x):
    """The true sqrt lies between the result's neighboring breakpoints.

    The breakpoint below halves its distance at a binade bottom; exact-tie
    direction is pinned separately against the squared-integer oracle.
    """
    r = f_sqrt(x)
    v = float_to_rat(x)
    m, e = r.m, r.e
    scale = Rat(1 << e) if e >= 0 else Rat(1, 1 << -e)
    low_gap = Rat(1, 4) if m == 1 << (x.p - 1) else Rat(1, 2)
    bp_lo = (Rat(m) - low_gap) * scale
    bp_hi = (Rat(m) + Rat(1, 2)) * scale
    assert bp_lo * bp_lo <= v <= bp_hi * bp_hi


@pytest.mark.parametrize("p", [24, 53, 113])
@given(data=st.data())
@settings(max_examples=100)
def test_sqrt_matches_oracle(p, data):
    x = data.draw(_pfloats(p, -400, 400))
    for e in (x.e, x.e + 1):  # both parities of the exponent
        y = PFloat(abs(x.m), e, p)
        assert f_sqrt(y) == sqrt_round_oracle(y)


@pytest.mark.parametrize("p", [24, 53, 113])
@given(data=st.data())
@settings(max_examples=100)
def test_sqrt_of_perfect_square_is_exact(p, data):
    a = data.draw(st.integers(min_value=1, max_value=(1 << (p // 2)) - 1))
    h = data.draw(st.integers(min_value=-200, max_value=200))
    x = _round_dyadic(a * a, 2 * h, p)  # a^2 has at most p bits: exact
    assert f_sqrt(x) == _round_dyadic(a, h, p) == sqrt_round_oracle(x)


@pytest.mark.parametrize("p", range(1, 9))
def test_sqrt_matches_oracle_exhaustively(p):
    # every significand at both parities of e + p, across binades
    for e in range(-12 - p, 13 - p):
        for m in range(1 << (p - 1), 1 << p):
            x = PFloat(m, e, p)
            assert f_sqrt(x) == sqrt_round_oracle(x)


# --- series plans and rational cores ------------------------------------------------


@pytest.mark.parametrize("bits", [8, 16, 48, 96])
def test_series_plan_tail_bounds(bits):
    def tail(n):  # the bound 2 * (3/4)^n / n! on the series tail after n terms
        return Rat(2 * 3**n, 4**n * math.factorial(n))

    n = exp_plan(bits)
    assert tail(n) <= Rat(1, 1 << (bits + 2))
    assert n == 1 or tail(n - 1) > Rat(1, 1 << (bits + 2))


@given(p=st.sampled_from((1, 3, 8, 24, 53, 256)), data=st.data())
@settings(max_examples=150)
def test_exp_enclosure_is_one_sided_within_two_units_per_term(p, data):
    # f_exp's plan at p: the floored sum lo and lo + 2 * terms bracket the
    # exact truncated series for every reduced argument in [0, log 2)
    w = 2 * p + 8
    terms = exp_plan(w)
    shift = w + elementary._EXP_GUARD + terms.bit_length()
    lam = log2_const(w + 10)
    rd = data.draw(st.one_of(st.integers(1, 1 << 64), st.integers(1, 1 << 16).map(lambda k: k * lam.den)))
    rn = data.draw(st.integers(0, (lam.num * rd - 1) // lam.den))  # rn / rd < lam
    lo, hi = _exp_enclosure(rn, rd, terms, shift)
    assert hi == lo + 2 * terms
    exact = _exp_series(Rat(rn, rd), terms) * Rat(1 << shift)
    assert Rat(lo) <= exact < Rat(hi)


@pytest.mark.parametrize(
    "x", [Rat(1, 3), Rat(-5, 7), Rat(3), Rat(-2), Rat(1, 1000)]
)
def test_rat_exp_approx_within_enclosure(x):
    bits = 48
    y = rat_exp_approx(x, bits)
    lo, hi = exp_enclosure(x, bits + 16)
    tol = Rat(1, 1 << bits)
    assert y >= lo * (Rat(1) - tol)
    assert y <= hi * (Rat(1) + tol)


@pytest.mark.parametrize("x", [Rat(2), Rat(1, 3), Rat(49, 4), Rat(7, 5)])
def test_rat_sqrt_approx_square_near_argument(x):
    bits = 48
    y = rat_sqrt_approx(x, bits)
    # |y/sqrt(x) - 1| <= 2^-bits implies |y^2/x - 1| <= 3*2^-bits
    assert abs(y * y - x) <= x * Rat(3, 1 << bits)


# --- dyadic sites for the budgeted evaluator ----------------------------------------

REL_BITS = st.sampled_from((1, 4, 16, 40, 70, 130))


def _is_dyadic(y):
    return y.den & (y.den - 1) == 0


def _significant_bits(y):
    """Bit length of the odd part of y's numerator."""
    return (y.num >> ((y.num & -y.num).bit_length() - 1)).bit_length()


@st.composite
def _wide_rats(draw, log_min, log_max):
    """Positive rationals in [2^mag, 2^(mag+1)), mag in [log_min, log_max],
    over odd or power-of-two denominators of up to about 1000 bits."""
    den = draw(
        st.one_of(
            st.integers(min_value=1, max_value=1000).map(lambda b: 1 << b),
            st.integers(min_value=1, max_value=1 << 1000).map(lambda v: 2 * v + 1),
        )
    )
    frac = draw(st.integers(min_value=1 << 32, max_value=(1 << 33) - 1))  # x / 2^mag in [1, 2)
    num = (den * frac >> 32) | 1
    mag = draw(st.integers(min_value=log_min, max_value=log_max))
    return Rat(num << mag, den) if mag >= 0 else Rat(num, den << -mag)


def _exp_args():
    """Arguments of both signs with up to ~1000-bit denominators: moderate
    ones, and tiny ones below the old 1 + x cut at 2^-(rel_bits + 12)."""
    magnitudes = st.one_of(_wide_rats(-8, 3), _wide_rats(-400, -150))
    return st.tuples(magnitudes, st.sampled_from((1, -1))).map(lambda t: Rat(t[0].num * t[1], t[0].den))


@given(x=_exp_args(), rel_bits=REL_BITS)
@settings(max_examples=150)
def test_rat_exp_approx_dyadic_within_enclosure(x, rel_bits):
    y = rat_exp_approx(x, rel_bits)
    assert _is_dyadic(y)
    # the width follows rel_bits, not the argument's thousand-bit denominator
    assert _significant_bits(y) <= rel_bits + 24
    lo, hi = exp_enclosure(x, rel_bits + 16)
    tol = Rat(1, 1 << rel_bits)
    assert lo * (Rat(1) - tol) <= y <= hi * (Rat(1) + tol)


@given(x=_wide_rats(-300, 300), rel_bits=REL_BITS)
@settings(max_examples=150)
def test_rat_sqrt_approx_dyadic_square_near_argument(x, rel_bits):
    y = rat_sqrt_approx(x, rel_bits)
    assert _is_dyadic(y)
    assert _significant_bits(y) <= rel_bits + 3
    # |y/sqrt(x) - 1| <= 2^-rel_bits implies |y^2/x - 1| <= 3*2^-rel_bits
    assert abs(y * y - x) <= x * Rat(3, 1 << rel_bits)


def test_rat_sites_validate_arguments():
    with pytest.raises(DomainError):
        rat_exp_approx(Rat(1), 0)
    with pytest.raises(DomainError):
        rat_sqrt_approx(Rat(1), 0)
    with pytest.raises(DomainError):
        rat_sqrt_approx(Rat(0), 8)
    assert rat_exp_approx(Rat(0), 8) == Rat(1)
