"""p-bit float semantics: normalized pairs, correct rounding, exact two-ary ops.

The reference rounder below is built directly on Fraction and integer
shifts, independent of the package's own rounding cores, so "correctly
rounded" is never checked against itself.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exact_xformer import DomainError, PFloat, Rat, f_add, f_div, f_mul, round_p
from exact_xformer.pfloat import block_threshold, decimal_str, f_cmp, f_neg, float_to_rat


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


@given(any_p.flatmap(lambda p: _pfloats(p, -(10**6), 10**6)))
def test_json_round_trip(x):
    d = x.to_json_dict()
    assert set(d) == {"m", "e", "p"}
    assert isinstance(d["m"], str) and isinstance(d["e"], str)


def test_decimal_str_forms():
    assert decimal_str(PFloat.zero(8)) == "0"
    assert decimal_str(round_p(Rat(1, 4), 8)) == "2.50000000000e-1"
    assert decimal_str(PFloat(-160, -2, 8)) == "-4.00000000000e+1"


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
    # the exact-alignment path hands over to the sign-of-tail path at
    # gap 2p+4; both must agree with the rational oracle across the seam
    gap = 2 * p + 4 + gap_off
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


# --- comparison -----------------------------------------------------------------


def test_cmp_across_binades():
    assert f_cmp(PFloat(-7, 10, 3), PFloat(4, -10, 3)) == -1
    assert f_cmp(PFloat(4, -10, 3), PFloat(-7, 10, 3)) == 1
    assert f_cmp(PFloat.zero(3), PFloat.zero(3)) == 0


@given(any_p.flatmap(lambda p: st.tuples(_pfloats(p), _pfloats(p))))
def test_cmp_matches_rational_order(pair):
    x, y = pair
    fx, fy = _frac(x), _frac(y)
    assert f_cmp(x, y) == (fx > fy) - (fx < fy)


# --- block threshold ----------------------------------------------------------------


def test_block_threshold_values():
    assert block_threshold(3, 2) == 8
    assert block_threshold(3, 10) == 11
    assert block_threshold(8, 64) == 23
