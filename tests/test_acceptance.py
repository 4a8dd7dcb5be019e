"""Acceptance gate: each test pins one verification criterion, with the
scale and tolerance in its docstring.  Run with -v to get one pass/fail
line per criterion.

Independent oracles throughout: a Fraction-based reference rounder for the
two-ary ops, the direct-series exp enclosure and squared-integer sqrt
rounder inside the verify suites, and hand-derivable rationals for the
end-to-end evaluations.
"""

import random
from fractions import Fraction

import pytest

from exact_xformer import (
    Decision,
    PFloat,
    Rat,
    eval_ahat,
    eval_budgeted,
    f_add,
    f_div,
    f_mul,
    load_model,
    margin_recognize,
    run_suite,
)
from exact_xformer.evaluator import bit_growth_trace, fit_loglog_slope
from exact_xformer.verify import _case_rng
from reference_rounder import round_ref

pytestmark = pytest.mark.slow

SUM_PRECISIONS = (3, 8, 24, 53)
SUM_CASES_PER_P = 34_000  # 4 * 34000 * (19/25 random | 6/25 adversarial)


def _frac(x: PFloat) -> Fraction:
    return Fraction(x.m) * Fraction(2) ** x.e


@pytest.fixture(scope="module")
def sum_results():
    return {p: run_suite("sum", p=p, cases=SUM_CASES_PER_P, seed=0) for p in SUM_PRECISIONS}


# --- criterion 1: rounding, exhaustively over small precisions -----------------


@pytest.mark.parametrize("p", [2, 3, 4])
def test_c1_rounding_exhaustive(p):
    """Round-to-nearest, ties-to-even, on every gap between floats over e in [-8, 8]."""
    result = run_suite("round", p=p)
    assert result.cases > 0
    assert result.passed, result.failures[:5]


# --- criteria 2 and 3: n-ary summation at scale ----------------------------------


def test_c2_block_sum_equals_oracle(sum_results):
    """>= 1e5 random + >= 1e3 adversarial instances, four precisions."""
    for p in SUM_PRECISIONS:
        r = sum_results[p]
        assert r.cases == SUM_CASES_PER_P
        mismatches = [f for f in r.failures if f.kind == "mismatch"]
        assert mismatches == []
    # a case's kind is its generator's first draw, and the seed does not
    # depend on p, so every precision draws the same kinds
    random_per_p = sum(_case_rng(0, "sum", idx).randrange(25) < 19 for idx in range(SUM_CASES_PER_P))
    assert random_per_p * len(SUM_PRECISIONS) >= 100_000
    assert (SUM_CASES_PER_P - random_per_p) * len(SUM_PRECISIONS) >= 1_000


def test_c3_remainder_gap_bound(sum_results):
    """Non-leading blocks stay strictly below the lead anchor's breakpoint
    spacing on every instance of criterion 2."""
    for p in SUM_PRECISIONS:
        gaps = [f for f in sum_results[p].failures if f.kind == "gap"]
        assert gaps == []


# --- criterion 4: two-ary ops are correctly rounded -------------------------------


def test_c4_two_ary_ops_correctly_rounded():
    """1e5 random pairs per op at p in {8, 53}, plus exhaustive p=3 pairs."""
    for p in (8, 53):
        rng = random.Random(f"acceptance:arith:{p}")
        lo, hi = 1 << (p - 1), (1 << p) - 1
        for _ in range(100_000):
            x = PFloat(rng.choice((1, -1)) * rng.randint(lo, hi), rng.randint(-60, 60), p)
            y = PFloat(rng.choice((1, -1)) * rng.randint(lo, hi), rng.randint(-60, 60), p)
            fx, fy = _frac(x), _frac(y)
            assert f_add(x, y) == round_ref(fx + fy, p)
            assert f_mul(x, y) == round_ref(fx * fy, p)
            assert f_div(x, y) == round_ref(fx / fy, p)

    everything = [PFloat.zero(3)] + [
        PFloat(s * m, e, 3)
        for s in (1, -1)
        for m in (4, 5, 6, 7)
        for e in range(-4, 5)
    ]
    for x in everything:
        for y in everything:
            fx, fy = _frac(x), _frac(y)
            assert f_add(x, y) == round_ref(fx + fy, 3)
            assert f_mul(x, y) == round_ref(fx * fy, 3)
            if y.m != 0:
                assert f_div(x, y) == round_ref(fx / fy, 3)


# --- criterion 5: elementary functions at scale --------------------------------------


@pytest.mark.parametrize("p", [8, 24, 53])
def test_c5_exp_within_relative_tolerance(p):
    """1e4 cases per precision against the 4p-bit series enclosure."""
    r = run_suite("exp", p=p, cases=10_000, seed=0)
    assert r.passed, r.failures[:5]


@pytest.mark.parametrize("p", [8, 24, 53])
def test_c5_sqrt_correctly_rounded(p):
    """1e4 cases per precision against the squared-integer oracle."""
    r = run_suite("sqrt", p=p, cases=10_000, seed=0)
    assert r.passed, r.failures[:5]


# --- criterion 6: perturbation lemmas ---------------------------------------------------


def test_c6_softmax_delta_lemma():
    r = run_suite("softmax-delta", cases=10_000, seed=0)
    assert r.passed, r.failures[:5]


def test_c6_invsqrt_delta_lemma():
    r = run_suite("invsqrt-delta", cases=10_000, seed=0)
    assert r.passed, r.failures[:5]


# --- criterion 7: exact evaluation over a whole language --------------------------------


def test_c7_majority_exact_on_all_odd_words():
    """All 43690 binary words of odd length <= 15: the exact output is
    (ones - zeros) / (2 * length), and its sign decides membership."""
    maj = load_model("majority")
    total = 0
    for length in range(1, 16, 2):
        for bits in range(1 << length):
            w = format(bits, f"0{length}b")
            k = w.count("1")
            value = eval_ahat(maj, w)[0]
            assert value == Rat(2 * k - length, 2 * length)
            total += 1
    assert total == 43_690


# --- criterion 8: certified budgets end to end --------------------------------------------


def test_c8_budgeted_within_epsilon_and_margins():
    """100 inputs x epsilon in {2^-16, 2^-64, 2^-256}: certified outputs stay
    within epsilon of the true value; margin decisions are correct whenever
    the true margin exceeds epsilon, and exact zero reports below-margin."""
    m = load_model("softmax-uniform")
    rng = random.Random("acceptance:budget")
    words = []
    for _ in range(97):
        n = rng.randint(1, 12)
        words.append("".join(rng.choice("01") for _ in range(n)))
    words += ["10", "1100", "10010110"]  # exact even splits
    epsilons = [Rat(1, 1 << 16), Rat(1, 1 << 64), Rat(1, 1 << 256)]
    for w in words:
        truth = Rat(2 * w.count("1") - len(w), 2 * len(w))
        for eps in epsilons:
            got = eval_budgeted(m, w, eps)
            assert abs(got - truth) <= eps
            decision = margin_recognize(m, w, eps)
            if truth > eps:
                assert decision is Decision.ACCEPT
            elif -truth > eps:
                assert decision is Decision.REJECT
            if truth == Rat(0):
                assert decision is Decision.BELOW_MARGIN


# --- criterion 9: bit growth stays polynomial ------------------------------------------------


def test_c9_bit_growth_slope():
    """Exact evaluation over n in {4..256}: log-log slope of the widest
    intermediate stays at most 1.2."""
    maj = load_model("majority")
    rows = bit_growth_trace(maj, [4, 8, 16, 32, 64, 128, 256])
    slope = fit_loglog_slope(rows)
    assert slope <= 1.2, rows
