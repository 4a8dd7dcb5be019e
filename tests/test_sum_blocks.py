"""n-ary float summation: block partition, single rounding, the binade-bottom corner.

f_sum_oracle (convert to rationals, sum, round once) is the semantics;
f_sum_blocks must reproduce it without ever materializing cross-block
exponent gaps.  The directed cases pin the binade-bottom corner: a lead
pair that cancels to a single bit, with far addends straddling the
half-spacing breakpoint just below the binade boundary.  Their gap is
2p + ceil(log2 n), one bit under block_threshold, so they sum as one exact
block; a threshold without the guard bit would split them and round the
single bit alone.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_xformer import DomainError, PFloat, Rat, f_sum_blocks
from exact_xformer.pfloat import (
    block_threshold,
    f_neg,
    f_sum_oracle,
    float_to_rat,
    partition_blocks,
)


def _pf(m, e, p=3):
    return PFloat(m, e, p)


def _clustered_lists(p: int):
    """Lists whose exponents bunch around a few centers, so blocks and
    near-cancellation actually occur."""
    member = st.tuples(
        st.sampled_from((1, -1)),
        st.integers(min_value=1 << (p - 1), max_value=(1 << p) - 1),
        st.integers(min_value=0, max_value=2 * p + 6),
        st.integers(min_value=0, max_value=2),
    )
    centers = st.lists(
        st.integers(min_value=-60, max_value=60), min_size=1, max_size=3
    )
    return st.tuples(centers, st.lists(member, min_size=1, max_size=14)).map(
        lambda cm: [
            PFloat(s * m, cm[0][c % len(cm[0])] + off, p)
            for (s, m, off, c) in cm[1]
        ]
    )


# --- partition ---------------------------------------------------------------


def test_partition_frozen_examples():
    far = partition_blocks([_pf(4, 10), _pf(4, -10)])
    assert sorted(map(sorted, far)) == [[0], [1]]
    near = partition_blocks([_pf(4, 3), _pf(4, 0)])
    assert sorted(map(sorted, near)) == [[0, 1]]
    same = partition_blocks([_pf(5, 2), _pf(-6, 2), _pf(4, 2)])
    assert sorted(map(sorted, same)) == [[0, 1, 2]]


def test_partition_rejects_zeros_and_empty():
    with pytest.raises(DomainError):
        partition_blocks([_pf(4, 0), PFloat.zero(3)])
    with pytest.raises(DomainError):
        partition_blocks([])


@given(st.sampled_from((3, 8)).flatmap(_clustered_lists))
def test_partition_gap_law(xs):
    idx_blocks = partition_blocks(xs)
    assert sorted(i for b in idx_blocks for i in b) == list(range(len(xs)))
    theta = block_threshold(xs[0].p, len(xs))
    for block in idx_blocks:
        es = sorted(xs[i].e for i in block)
        for lo, hi in zip(es, es[1:]):
            assert hi - lo < theta
    spans = sorted((min(xs[i].e for i in b), max(xs[i].e for i in b)) for b in idx_blocks)
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        assert lo - hi >= theta


# --- frozen sums ----------------------------------------------------------------


def test_sum_frozen_examples():
    # block sum 9 is a breakpoint; a far tiny positive block forces the upper neighbor
    assert f_sum_blocks([_pf(4, 1), _pf(4, -2), _pf(4, -20)]) == _pf(5, 1)
    # same breakpoint with no far block: ties-to-even keeps 8
    assert f_sum_blocks([_pf(4, 1), _pf(4, -2)]) == _pf(4, 1)
    x = _pf(5, 7)
    assert f_sum_blocks([x, f_neg(x)]) == PFloat.zero(3)
    assert f_sum_blocks([_pf(4, 0)] * 3) == _pf(6, 1)
    assert f_sum_oracle([_pf(4, 0)] * 3) == _pf(6, 1)


def test_sum_identity_and_degenerate():
    x = _pf(-7, 5)
    assert f_sum_blocks([x]) == x
    assert f_sum_blocks([PFloat.zero(3), PFloat.zero(3)]) == PFloat.zero(3)
    with pytest.raises(DomainError):
        f_sum_blocks([])


# --- the binade-bottom corner ------------------------------------------------------
#
# Seven addends, theta = 10: <5|0> + <-4|0> cancels to exactly 1 = <4|-2>,
# whose breakpoint below lies at distance 2^-4, HALF the usual spacing.  Five
# addends of -7/512 pull the true sum to 477/512, across that breakpoint, so
# the correct answer drops into the binade below.  Their gap of 9 is one
# under theta, so all seven form one block and are summed exactly.


def test_corner_remainder_crosses_lower_breakpoint():
    xs = [_pf(5, 0), _pf(-4, 0)] + [_pf(-7, -9)] * 5
    assert float_to_rat(f_sum_oracle(xs)) == Rat(7, 8)
    assert f_sum_blocks(xs) == _pf(7, -3)


def test_corner_remainder_stays_inside():
    # four small addends: 28/512 < 2^-4, the lead survives
    xs = [_pf(5, 0), _pf(-4, 0)] + [_pf(-7, -9)] * 4
    assert f_sum_blocks(xs) == _pf(4, -2)
    assert f_sum_oracle(xs) == _pf(4, -2)


def test_corner_exact_tie_rounds_even():
    # the small addends sum to exactly -2^-4: the true sum lands on the
    # breakpoint and the tie goes to the even significand, the binade boundary
    xs = [_pf(5, 0), _pf(-4, 0)] + [_pf(-7, -9)] * 4 + [_pf(-4, -9)]
    exact = sum(Fraction(x.m) * Fraction(2) ** x.e for x in xs)
    assert exact == Fraction(15, 16)
    assert f_sum_oracle(xs) == _pf(4, -2)
    assert f_sum_blocks(xs) == _pf(4, -2)


def test_corner_negated_mirror():
    xs = [_pf(-5, 0), _pf(4, 0)] + [_pf(7, -9)] * 5
    assert f_sum_blocks(xs) == _pf(-7, -3)
    ys = [_pf(-5, 0), _pf(4, 0)] + [_pf(7, -9)] * 4
    assert f_sum_blocks(ys) == _pf(-4, -2)


def test_corner_tie_broken_by_third_block():
    # the lead block sums exactly to the breakpoint; a second block far below
    # decides the direction instead of the even-tie rule
    base = [_pf(5, 0), _pf(-4, 0)] + [_pf(-7, -9)] * 4 + [_pf(-4, -9)]
    push_down = base + [_pf(-4, -40)]
    assert f_sum_blocks(push_down) == f_sum_oracle(push_down) == _pf(7, -3)
    push_up = base + [_pf(4, -40)]
    assert f_sum_blocks(push_up) == f_sum_oracle(push_up) == _pf(4, -2)


def test_corner_away_from_zero_is_never_special():
    # small addends pushing away from zero, toward the breakpoint above at
    # the regular spacing
    xs = [_pf(5, 0), _pf(-4, 0)] + [_pf(7, -9)] * 5
    assert f_sum_blocks(xs) == f_sum_oracle(xs) == _pf(4, -2)


# --- equivalence with the oracle ------------------------------------------------------


@given(st.sampled_from((3, 8)).flatmap(_clustered_lists))
@settings(max_examples=300)
def test_blocks_equal_oracle(xs):
    assert f_sum_blocks(xs) == f_sum_oracle(xs)


@given(st.sampled_from((3, 8)).flatmap(_clustered_lists))
@settings(max_examples=300)
def test_remainder_gap_bound(xs):
    """Everything outside the leading nonzero block stays strictly below
    2^(anchor - p - 1), the least distance from that block's sum to another
    rounding breakpoint."""
    idx_blocks = partition_blocks(xs)
    p = xs[0].p
    sums = []
    for block in idx_blocks:
        exact = sum(
            (Fraction(xs[i].m) * Fraction(2) ** xs[i].e for i in block),
            Fraction(0),
        )
        anchor = min(xs[i].e for i in block)
        sums.append((exact, anchor, block))
    lead_at = next((k for k, (s, _, _) in enumerate(sums) if s != 0), None)
    if lead_at is None:
        return
    anchor = sums[lead_at][1]
    rest = sum(
        (s for k, (s, _, _) in enumerate(sums) if k != lead_at), Fraction(0)
    )
    assert abs(rest) < Fraction(2) ** (anchor - p - 1)
