"""The self-check suites: independent oracles, determinism, failure reporting.

These tests run each suite at reduced counts (the acceptance tests run them
at full counts) and pin the oracle machinery itself: the direct-series exp
enclosure and the squared-integer sqrt rounder.
"""

import pytest

from exact_xformer import DomainError, PFloat, Rat, f_sqrt, run_suite
from exact_xformer.verify import SUITES, SuiteResult, exp_enclosure, run_all, sqrt_round_oracle


# --- oracle machinery ----------------------------------------------------------


@pytest.mark.parametrize(
    "x", [Rat(0), Rat(1), Rat(-1), Rat(7, 3), Rat(-32), Rat(1, 1 << 40)]
)
def test_exp_enclosure_brackets_and_inverts(x):
    lo, hi = exp_enclosure(x, 80)
    assert Rat(0) < lo <= hi
    assert (hi - lo) * Rat(1 << 70) <= hi  # relative width under 2^-70
    rlo, rhi = exp_enclosure(-x, 80)
    assert lo * rlo <= Rat(1) <= hi * rhi


def test_exp_enclosure_of_zero_is_one():
    lo, hi = exp_enclosure(Rat(0), 48)
    assert lo <= Rat(1) <= hi


def test_exp_enclosure_known_constant():
    # e = 2.718281828459045235360287... (truncated; true value just above)
    lo, hi = exp_enclosure(Rat(1), 120)
    e_floor = Rat(2718281828459045235360287, 10**24)
    assert lo < e_floor + Rat(1, 10**24)
    assert hi > e_floor


def test_sqrt_oracle_perfect_squares():
    assert sqrt_round_oracle(PFloat(9, 0, 4)) == f_sqrt(PFloat(9, 0, 4))
    assert sqrt_round_oracle(PFloat(4, 4, 3)) == PFloat(4, 1, 3)  # sqrt 64 = 8


# --- suite runner ------------------------------------------------------------------


def test_suite_names_and_unknown():
    assert SUITES == ("round", "sum", "exp", "sqrt", "softmax-delta", "invsqrt-delta")
    with pytest.raises(DomainError):
        run_suite("nope")


@pytest.mark.parametrize("suite", ["sum", "exp", "sqrt", "softmax-delta", "invsqrt-delta"])
def test_small_runs_pass_and_are_deterministic(suite):
    a = run_suite(suite, cases=40, seed=11)
    b = run_suite(suite, cases=40, seed=11)
    assert isinstance(a, SuiteResult)
    assert a.passed, a.failures[:3]
    assert a.to_json_dict() == b.to_json_dict()


@pytest.mark.parametrize("p", [256, 1024])
@pytest.mark.parametrize("suite", ["sum", "exp", "sqrt"])
def test_suites_pass_at_the_papers_precision(suite, p):
    # poly(n)-bit floats: a few cases each at p = 256 and 1024
    r = run_suite(suite, p=p, cases=8, seed=5)
    assert (r.p, r.cases) == (p, 8)
    assert r.passed, r.failures[:3]


@pytest.mark.parametrize("p", [0, -1])
@pytest.mark.parametrize(
    "suite, bound", [("round", "2 <= p <= 16"), ("sum", "p >= 2"), ("exp", "p >= 1"), ("sqrt", "p >= 1")]
)
def test_precision_below_the_least_is_a_domain_error(suite, bound, p):
    with pytest.raises(DomainError, match=f"^the {suite} suite needs {bound}, got {p}$"):
        run_suite(suite, p=p, cases=4)


def test_round_suite_is_exhaustive_per_precision():
    r = run_suite("round", p=2)
    assert r.passed
    assert r.cases > 0


def test_json_shape():
    d = run_suite("exp", p=8, cases=5, seed=1).to_json_dict()
    assert set(d) == {"suite", "p", "cases", "failures", "passed"}
    assert d["passed"] is True and d["failures"] == []


def test_run_all_covers_every_suite():
    res = run_all(cases=20, seed=2)
    assert [r.suite for r in res] == list(SUITES)
    assert all(r.passed for r in res)
