"""The self-check suites: independent oracles, determinism, failure reporting.

These tests run each suite at reduced counts (the acceptance tests run them
at full counts) and pin the oracle machinery itself: the halving-and-squaring
exp enclosure, the case draws and the squared-integer sqrt rounder.
"""

import hashlib
import random

import pytest

from exact_xformer import DomainError, PFloat, Rat, f_sqrt, run_suite, verify
from exact_xformer.verify import SUITES, SuiteResult, _below, exp_enclosure, run_all, sqrt_round_oracle


# --- oracle machinery ----------------------------------------------------------


def _series_reference(x: Rat, bits: int) -> tuple[Rat, Rat]:
    """The direct series on |x|, with no range reduction: the enclosure the
    oracle used before halving and squaring, kept as a reference."""
    shift = bits + 128
    one = 1 << shift
    a, b = abs(x.num), x.den
    lo = hi = t_lo = t_hi = one
    i = 1
    while True:
        t_lo = t_lo * a // (b * i)
        t_hi = -((-t_hi * a) // (b * i))
        lo += t_lo
        hi += t_hi
        i += 1
        if t_hi <= 4 and i * b > 2 * a:
            hi += 2 * t_hi + 2
            break
    if x.num >= 0:
        return Rat(lo, one), Rat(hi, one)
    return Rat((one * one) // hi, one), Rat((one * one) // lo + 1, one)


NEAR_64 = Rat(64) - Rat(1, 1 << 18)


@pytest.mark.parametrize(
    "x",
    [
        Rat(0),
        Rat(1),
        Rat(-1),
        Rat(7, 3),
        Rat(-32),
        Rat(1, 1 << 40),
        Rat(64),
        Rat(-64),
        NEAR_64,
        -NEAR_64,
        Rat(-200),
        Rat(-1000),
    ],
)
def test_exp_enclosure_brackets_and_inverts(x):
    for bits in (80, 4 * 53, 1024):
        lo, hi = exp_enclosure(x, bits)
        assert Rat(0) < lo <= hi
        assert (hi - lo) * Rat(1 << bits) <= lo  # relative width at most 2^-bits
        rlo, rhi = exp_enclosure(-x, bits)
        assert lo * rlo <= Rat(1) <= hi * rhi
        ref_lo, ref_hi = _series_reference(x, bits + 32)
        assert lo <= ref_hi and ref_lo <= hi


def test_exp_enclosure_works_at_a_width_that_follows_its_argument():
    # the guard is sized to bits and |x|: S = 96 + 15 + 4 fractional bits here
    lo, hi = exp_enclosure(Rat(1, 2), 96)
    assert lo.den <= 1 << (96 + 32) and hi.den <= 1 << (96 + 32)


def test_exp_enclosure_of_zero_is_one():
    lo, hi = exp_enclosure(Rat(0), 48)
    assert lo <= Rat(1) <= hi


def test_exp_enclosure_known_constant():
    # e = 2.718281828459045235360287... (truncated; true value just above)
    lo, hi = exp_enclosure(Rat(1), 120)
    e_floor = Rat(2718281828459045235360287, 10**24)
    assert lo < e_floor + Rat(1, 10**24)
    assert hi > e_floor


def test_below_draws_what_randrange_draws():
    # the cases stay the ones randint and choice drew, on this interpreter's random
    ns = sorted({*range(1, 3001), *(2**k + d for k in range(261) for d in (-1, 0, 1))} - {0})
    rng, ref = random.Random("below"), random.Random("below")
    for n in ns:
        assert [_below(rng, n) for _ in range(3)] == [ref.randrange(n) for _ in range(3)], n


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


# --- goldens: every case drawn and every verdict ---------------------------------------
#
# Pinned on the direct-series exp enclosure and the randint/choice draws; any
# faster oracle or draw must keep every case and every verdict byte for byte.

GOLDEN_SEEDS = (0, 1, 2)
GOLDEN_PS = (2, 3, 8, 24, 53, 256)
GOLDEN_CASES = {"sum": 200, "exp": 100, "sqrt": 100, "softmax-delta": 100, "invsqrt-delta": 100}
CASES_SHA256 = "3b454f5c1cb4ec96659b25cb3aa21595817dbd33e3b06b2996de054d18b8a1b0"
VERDICTS_SHA256 = "4c88fce9bb080312c289fcc459d504addd7bc572ac144ba74682eb51d786c855"


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _golden_runs():
    """(suite, p, cases, seed) of every golden run; round ignores the seed
    and the case count, so it runs once per precision in its range."""
    for p in GOLDEN_PS:
        if p <= 8:
            yield "round", p, None, 0
    for seed in GOLDEN_SEEDS:
        for p in GOLDEN_PS:
            for suite in ("sum", "exp", "sqrt"):
                yield suite, p, GOLDEN_CASES[suite], seed
        for suite in ("softmax-delta", "invsqrt-delta"):
            yield suite, None, GOLDEN_CASES[suite], seed


def test_case_streams_are_pinned(monkeypatch):
    """Every float the sum, exp and sqrt suites hand to the code under test."""
    lines = []

    def recording(fn):
        def wrapped(x):
            lines.append(" ".join(f"{f.m},{f.e}" for f in (x if isinstance(x, list) else [x])))
            return fn(x)

        return wrapped

    for name in ("f_sum_blocks", "f_exp", "f_sqrt"):
        monkeypatch.setattr(verify, name, recording(getattr(verify, name)))
    for suite, p, cases, seed in _golden_runs():
        if suite in ("sum", "exp", "sqrt"):
            lines.append(f"{suite} p={p} seed={seed}")
            run_suite(suite, p=p, cases=cases, seed=seed)
    assert _sha256(lines) == CASES_SHA256


def _nudged(x: PFloat) -> PFloat:
    """x with the low bit of its significand flipped: a neighbouring float."""
    return x if x.m == 0 else PFloat(x.sign * (abs(x.m) ^ 1), x.e, x.p)


def test_suite_verdicts_are_pinned(monkeypatch):
    """to_json_dict of all six suites; then of sum, exp and sqrt with the code
    under test fed a neighbouring input, so that some cases fail and their
    failure text is pinned too."""
    lines = [str(run_suite(*run).to_json_dict()) for run in _golden_runs()]
    f_sum_blocks, f_exp, f_sqrt = verify.f_sum_blocks, verify.f_exp, verify.f_sqrt
    monkeypatch.setattr(verify, "f_sum_blocks", lambda xs: f_sum_blocks([_nudged(xs[0]), *xs[1:]]))
    monkeypatch.setattr(verify, "f_exp", lambda x: f_exp(_nudged(x)))
    monkeypatch.setattr(verify, "f_sqrt", lambda x: f_sqrt(_nudged(x)))
    broken = [run_suite(*run).to_json_dict() for run in _golden_runs() if run[0] in ("sum", "exp", "sqrt")]
    assert any(d["failures"] for d in broken) and not all(d["passed"] is False for d in broken)
    lines += map(str, broken)
    assert _sha256(lines) == VERDICTS_SHA256


GAP_SHA256 = "ec30d5346aea2ddb1125ba7a0f3ad5e77e56210f8db305aeee2b0f6e103297d6"


def test_sum_gap_failures_are_pinned(monkeypatch):
    """The sum suite's gap check and its failure text: with a partition that
    splits at every exponent change, most cases break the remainder bound."""

    def split_everywhere(xs):
        return [[i for i, x in enumerate(xs) if x.e == e] for e in sorted({x.e for x in xs}, reverse=True)]

    monkeypatch.setattr(verify, "partition_blocks", split_everywhere)
    dicts = [run_suite("sum", p=p, cases=200, seed=seed).to_json_dict() for seed in GOLDEN_SEEDS for p in (3, 8, 24, 53)]
    failures = [f for d in dicts for f in d["failures"]]
    assert {f["kind"] for f in failures} == {"gap"} and 0 < len(failures) < 200 * len(dicts)
    assert _sha256(map(str, dicts)) == GAP_SHA256
