"""Exact rational arithmetic, cross-checked against fractions.Fraction.

Fraction is only an oracle here; the implementation under test carries its
own cross-multiplication formulas and must stay canonical (gcd-reduced,
positive denominator) after every operation.
"""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exact_xformer import DomainError, Rat
from exact_xformer.rational import RAT_ONE, RAT_ZERO, rat_max, rat_sum

rats = st.builds(
    Rat,
    st.integers(min_value=-(10**12), max_value=10**12),
    st.integers(min_value=1, max_value=10**12),
)


def _frac(r: Rat) -> Fraction:
    return Fraction(r.num, r.den)


def _same_pair(x: Rat, f: Fraction) -> None:
    """x is f's canonical pair, not merely equal to f in value."""
    assert (x.num, x.den) == (f.numerator, f.denominator)


# Denominators and numerators built from shared small primes, so that operand
# denominators share factors and results need reducing; some of them thousands
# of bits wide.
smooth = st.lists(st.sampled_from((2, 3, 5, 7)), max_size=10).map(math.prod)
wide = st.integers(min_value=1, max_value=1 << 3000)
shared_rats = st.builds(
    Rat,
    st.one_of(st.just(0), st.builds(operator.mul, st.integers(-99, 99), smooth), st.builds(operator.mul, wide, smooth)),
    st.one_of(smooth, st.builds(operator.mul, wide, smooth)),
)


# --- canonical form ----------------------------------------------------------


@given(rats)
def test_canonical_form(r):
    assert r.den >= 1
    assert math.gcd(r.num, r.den) == 1
    if r.num == 0:
        assert r.den == 1


def test_constructor_reduces():
    assert Rat(6, 4) == Rat(3, 2)
    assert Rat(0, 9) == RAT_ZERO
    assert Rat(-6, 4).num == -3


@pytest.mark.parametrize("den", [0, -1, -4])
def test_constructor_rejects_nonpositive_denominator(den):
    with pytest.raises(DomainError):
        Rat(1, den)


def test_immutable():
    r = Rat(3, 4)
    with pytest.raises(AttributeError):
        r.num = 5


def test_equality_and_hash_on_value():
    assert Rat(5, 3) == Rat(10, 6)
    assert hash(Rat(1, 2)) == hash(Rat(2, 4))


# --- operations vs Fraction ---------------------------------------------------


@given(rats, rats)
def test_add_mul_sub_match_fraction(a, b):
    assert _frac(a + b) == _frac(a) + _frac(b)
    assert _frac(a * b) == _frac(a) * _frac(b)
    assert _frac(a - b) == _frac(a) - _frac(b)
    assert _frac(-a) == -_frac(a)


@given(rats, rats.filter(lambda r: r.num != 0))
def test_div_matches_fraction(a, b):
    assert _frac(a / b) == _frac(a) / _frac(b)


@given(shared_rats, shared_rats)
def test_binary_ops_return_canonical_pairs(a, b):
    fa, fb = _frac(a), _frac(b)
    _same_pair(a + b, fa + fb)
    _same_pair(a - b, fa - fb)
    _same_pair(a * b, fa * fb)
    if b:
        _same_pair(a / b, fa / fb)
        _same_pair(a / -abs(b), fa / -abs(fb))  # negative divisor


@given(shared_rats)
def test_zero_results_are_zero_over_one(a):
    for x in (a - a, a + -a, RAT_ZERO * a, a * RAT_ZERO):
        assert (x.num, x.den) == (0, 1)
    if a:
        assert ((RAT_ZERO / a).num, (RAT_ZERO / a).den) == (0, 1)


def test_wide_operands_with_shared_factors():
    big = 3**2000 + 2
    a = Rat(big * 35, (1 << 3000) * 3**7 * 11)
    b = Rat(-(big + 1) * 22, (1 << 2500) * 3**4 * 35)
    fa, fb = _frac(a), _frac(b)
    for x, f in ((a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb), (a / b, fa / fb), (b / a, fb / fa)):
        _same_pair(x, f)


def test_div_by_zero():
    with pytest.raises(DomainError):
        RAT_ONE / RAT_ZERO


@given(rats, rats)
def test_cmp_matches_fraction(a, b):
    fa, fb = _frac(a), _frac(b)
    assert (a < b) == (fa < fb)
    assert (a <= b) == (fa <= fb)
    assert (a == b) == (fa == fb)
    assert (a > b) == (fa > fb)
    assert (a >= b) == (fa >= fb)


@given(rats)
def test_sign(r):
    assert r.sign == (r.num > 0) - (r.num < 0)
    assert abs(r) == (r if r.sign >= 0 else -r)


# --- folds --------------------------------------------------------------------


@given(st.lists(rats, min_size=1, max_size=12))
def test_folds_match_fraction(xs):
    assert _frac(rat_sum(xs)) == sum(map(_frac, xs), Fraction(0))
    assert _frac(rat_max(xs)) == max(map(_frac, xs))
    assert rat_max(xs) in xs


@given(st.lists(shared_rats, min_size=1, max_size=8))
def test_sum_returns_canonical_pair(xs):
    _same_pair(rat_sum(xs), sum(map(_frac, xs), Fraction(0)))


def test_empty_folds():
    with pytest.raises(DomainError):
        rat_sum([])
    with pytest.raises(DomainError):
        rat_max([])


# --- string I/O ----------------------------------------------------------------


@given(rats)
def test_string_round_trip(r):
    assert Rat.from_string(str(r)) == r


def test_string_forms():
    assert str(Rat(-3, 7)) == "-3/7"
    assert str(Rat(5)) == "5"
    assert Rat.from_string("2/4") == Rat(1, 2)  # reduced on parse
    assert Rat.from_string("-3") == Rat(-3)


@pytest.mark.parametrize(
    "text",
    ["1/0", "-0/3", "2/-4", "1/+2", "", "1.5", "1 /2"]
    # integer literals: no sign on zero, no leading zeros, nothing int() alone would accept
    + ["-0", "007", "+5", " 5", "5 ", "1_0", "0x10", "3.0", "--2"]
    # past the int-string digit limit (4300 by default), where int() itself raises
    + [pytest.param("1" * 5001, id="long-num"), pytest.param("1/" + "1" * 5001, id="long-den")],
)
def test_string_rejects_malformed(text):
    with pytest.raises(DomainError):
        Rat.from_string(text)


# --- bit-size reporting ---------------------------------------------------------


def test_rat_bits():
    def bits(x):
        return abs(x.num).bit_length(), x.den.bit_length()

    assert bits(RAT_ZERO) == (0, 1)
    assert bits(Rat(-6, 4)) == (2, 2)  # reduced to -3/2 first
    assert bits(Rat(1, 1024)) == (1, 11)
