"""The four workloads: seeded operation lists and the checks on their results.

A workload's plan is built from the seed alone: model documents from the zoo
and a list of operations, each a call into one public entry point of the
`exact_xformer` package.  A run repeats the whole list (a round) until its
time is up.  Each operation uses its own seeded model, because model cost
varies from model to model: many distinct models per round, rather than
many rounds, are what keep a run's figures the same from seed to seed.
Operation counts per class are chosen so that the median and the 90th
percentile of operation latency each fall in the middle of many models of
about one cost: a percentile at the edge of a class, or among a few models,
moves with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import zoo

WORKLOADS = ("ahat-exact", "smat-pbit", "budgeted-cert", "verify-suites")

# ahat-exact: a sample of the words of acceptance criterion c7 (every word
# of odd length <= 15), stratified by length in c7's own proportions, so
# length 15 holds the median; beside them, wide-operand models.  The wide
# n=16 models cost from 7 to 70 ms, by layer count and masking; 396 words
# put the 90th percentile in the middle of those 72 models, where their
# costs lie closest together.
MAJORITY_WORDS = {15: 296, 13: 74, 11: 19, 9: 5, 7: 1, 5: 1}
AHAT_WIDE = {16: 12, 64: 2}  # models per (layers, masking) pair at each length

# smat-pbit: (p, n) -> models per round; each class alternates layernorm.
# p24-n16 and p53-n8 cost about the same and hold the median in the middle
# of their 36 models; p53-n12, the dearest, holds the 90th percentile in the
# middle of its 12.
SMAT_CLASSES = {(24, 8): 12, (24, 16): 12, (53, 8): 24, (53, 12): 12}
# With parameters up to 3, layer-2 scores of models without layernorm reach
# 1.2e7 on some seeds, beyond the 2^24 * ln 2 that f_exp accepts at p=24
# (FloatRangeError; see CHANGES.md).  Parameters up to 3/2 keep the largest
# score thousands of times below that limit.
SMAT_SCALE = 1

# budgeted-cert: (n, log2(1/eps)) -> models per round.  Model cost varies by
# about 15% within a class and grows with n and with log2(1/eps); value
# width grows with log2(1/eps) alone (26k-27k bits at eps = 2^-64).  Each
# percentile sits in the middle of many models of about one cost: the median
# among the 50 n4-eps16 models, the 90th percentile among the n8-eps16 and
# n2-eps64 models (about 0.22 s each).  One n4-eps64 model sits above.
BUDGET_CLASSES = {(2, 16): 15, (4, 16): 50, (8, 16): 7, (2, 64): 7, (4, 64): 1}

# Kept failures: budgeted mode never truncates, so these run for more than
# 60 s.  Their inputs do not depend on the seed; each runs under
# GUARD_SECONDS and counts as failed while the fault stands.
KEPT_FAILURES = (
    ("kept-failure:layernorm", 1, True, 2, 4),  # (rng key, layers, layernorm, n, log2(1/eps))
    ("kept-failure:two-layer", 2, False, 2, 16),
)
GUARD_SECONDS = 0.5

# verify-suites: (suite, p) -> batches per round, each of SUITE_CASES cases.
SUITE_CLASSES = {
    ("sqrt", 24): 3,
    ("sum", 24): 3,
    ("exp", 24): 6,
    ("sum", 53): 2,
    ("sqrt", 53): 2,
    ("exp", 53): 4,
}
SUITE_CASES = 48

# Re-check sample for verify-suites, computed after the timed phase.
SAMPLE_SUMS = 64
SAMPLE_EXPS = 64


@dataclass(frozen=True)
class Op:
    cls: str
    entry: str  # function name in the exact_xformer package
    model: Optional[int] = None  # index into Plan.docs
    word: str = ""
    p: Optional[int] = None
    eps_bits: Optional[int] = None
    suite: str = ""
    cases: int = 0
    seed: int = 0
    guarded: bool = False

    def call_args(self, lib, models) -> tuple[tuple, dict]:
        if self.entry == "run_suite":
            return (self.suite,), {"p": self.p, "cases": self.cases, "seed": self.seed}
        args = [models[self.model], self.word]
        if self.entry == "eval_smat_pbit":
            args.append(self.p)
        elif self.entry == "eval_budgeted":
            args.append(lib.Rat(1, 1 << self.eps_bits))
        return tuple(args), {}


@dataclass
class Plan:
    docs: list[dict]
    ops: list[Op]


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed,) + parts))


# Set-up warms up with one operation per class drawn from this fixed seed,
# so that set-up time does not depend on which models the run's seed draws.
WARMUP_SEED = -1


def warmup(workload: str) -> Plan:
    """The first operation of each class, guarded ones excepted."""
    pl = plan(workload, WARMUP_SEED)
    seen, ops = set(), []
    for op in pl.ops:
        if op.cls not in seen and not op.guarded:
            seen.add(op.cls)
            ops.append(op)
    return Plan(pl.docs, ops)


def plan(workload: str, seed: int) -> Plan:
    """The seed's plan, its operations in a seeded random order.

    Mixing the classes spreads each class's samples over the whole run, so a
    percentile does not hang on the few seconds in which one class would
    otherwise run; this machine's speed drifts on that time scale.
    """
    builders = {"ahat-exact": _plan_ahat, "smat-pbit": _plan_smat, "budgeted-cert": _plan_budgeted, "verify-suites": _plan_verify}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
    pl = builders[workload](seed)
    _rng(seed, workload, "order").shuffle(pl.ops)
    return pl


def _plan_ahat(seed: int) -> Plan:
    rng = _rng(seed, "ahat-exact")
    docs = [zoo.majority_doc()]
    ops = []
    for length, count in MAJORITY_WORDS.items():
        ops += [Op("majority", "eval_ahat", 0, zoo.random_word(rng, length)) for _ in range(count)]
    for n, count in AHAT_WIDE.items():
        for layers in (1, 2, 3):
            for masking in ("none", "causal"):
                for _ in range(count):
                    docs.append(zoo.random_model(rng, "average_hard", layers, masking, False))
                    ops.append(Op(f"wide-n{n}", "eval_ahat", len(docs) - 1, zoo.random_word(rng, n)))
    return Plan(docs, ops)


def _plan_smat(seed: int) -> Plan:
    rng = _rng(seed, "smat-pbit")
    docs, ops = [], []
    for (p, n), count in SMAT_CLASSES.items():
        for k in range(count):
            docs.append(zoo.random_model(rng, "softmax", 2, "mixed", k % 2 == 1, SMAT_SCALE))
            ops.append(Op(f"p{p}-n{n}", "eval_smat_pbit", len(docs) - 1, zoo.random_word(rng, n), p=p))
    return Plan(docs, ops)


def _plan_budgeted(seed: int) -> Plan:
    rng = _rng(seed, "budgeted-cert")
    docs, ops = [], []
    for (n, bits), count in BUDGET_CLASSES.items():
        for _ in range(count):
            docs.append(zoo.random_model(rng, "softmax", 1, "mixed", False))
            ops.append(Op(f"n{n}-eps{bits}", "eval_budgeted", len(docs) - 1, zoo.random_word(rng, n), eps_bits=bits))
    for key, layers, layernorm, n, bits in KEPT_FAILURES:
        fixed = random.Random(key)
        docs.append(zoo.random_model(fixed, "softmax", layers, "mixed", layernorm))
        ops.append(
            Op("kept-failure", "eval_budgeted", len(docs) - 1, zoo.random_word(fixed, n), eps_bits=bits, guarded=True)
        )
    return Plan(docs, ops)


def _plan_verify(seed: int) -> Plan:
    rng = _rng(seed, "verify-suites")
    ops = []
    for (suite, p), count in SUITE_CLASSES.items():
        for _ in range(count):
            ops.append(Op(f"{suite}-p{p}", "run_suite", suite=suite, p=p, cases=SUITE_CASES, seed=rng.randrange(1 << 30)))
    return Plan([], ops)


# --------------------------------------------------------------------------
# widths and checks
# --------------------------------------------------------------------------


def value_bits(value) -> int:
    """Bits of a returned value: |num| plus den for a Rat, |m| plus |e| for a PFloat."""
    if hasattr(value, "num"):
        return abs(value.num).bit_length() + value.den.bit_length()
    return abs(value.m).bit_length() + abs(value.e).bit_length()


def smat_tolerance_bits(p: int) -> int:
    """A p-bit result must lie within 2^(10-p) * max(1, A) of the reference,
    A being the largest activation magnitude of the reference pass."""
    return p - 10


def reference_prec(eps_bits: int) -> int:
    return 4 * eps_bits + 256


@dataclass
class CheckReport:
    errors: list[str]
    value_bits_max: int = 0
    cert_slack_bits_min: Optional[float] = None


def check_results(pl: Plan, results: list, lib) -> CheckReport:
    """Check every completed operation's result against the oracles.

    `results[i]` is the result of `pl.ops[i]`, or None when it failed.
    """
    import mpmath

    import oracles

    report = CheckReport([])
    for op, result in zip(pl.ops, results):
        if result is None:
            continue
        where = f"{op.cls} op {op.entry}({op.word!r})"
        if op.entry == "run_suite":
            if not result.passed:
                report.errors.append(f"{where}: suite {op.suite} p={op.p} seed={op.seed} failed")
            continue
        report.value_bits_max = max(report.value_bits_max, value_bits(result))
        doc = pl.docs[op.model]
        if op.entry == "eval_ahat":
            want = oracles.ahat_fraction(doc, op.word)
            if Fraction(result.num, result.den) != want:
                report.errors.append(f"{where}: {result} != Fraction pass {want}")
        elif op.entry == "eval_smat_pbit":
            ref, peak = oracles.softmax_mpmath(doc, op.word, 4 * op.p + 128)
            with mpmath.workprec(4 * op.p + 128):
                got = mpmath.ldexp(result.m, result.e)
                tol = mpmath.ldexp(max(peak, 1), -smat_tolerance_bits(op.p))
                if abs(got - ref) > tol:
                    report.errors.append(f"{where} p={op.p}: {got} vs mpmath {ref}")
        else:
            prec = reference_prec(op.eps_bits)
            ref, _ = oracles.softmax_mpmath(doc, op.word, prec)
            with mpmath.workprec(prec):
                err = abs(mpmath.mpf(result.num) / result.den - ref)
                floor = mpmath.ldexp(1, 64 - prec)  # the reference's own error, generously
                if err + floor > mpmath.ldexp(1, -op.eps_bits):
                    report.errors.append(f"{where} eps=2^-{op.eps_bits}: error {err} above eps")
                slack = float(mpmath.log(mpmath.ldexp(1, -op.eps_bits) / max(err, floor), 2))
            if report.cert_slack_bits_min is None or slack < report.cert_slack_bits_min:
                report.cert_slack_bits_min = slack
    return report


def _sample_sum(rng: random.Random, p: int) -> list[tuple[int, int]]:
    """2 to 64 terms in exponent clusters spaced near the block threshold."""
    n = rng.randint(2, 64)
    theta = 2 * p + (n - 1).bit_length()
    centers = [rng.randint(-2 * theta, 2 * theta)]
    for _ in range(rng.randint(0, 3)):
        centers.append(centers[-1] - rng.randint(theta - 2, theta + 2 * p))
    terms = []
    for _ in range(n):
        m = rng.randint(1 << (p - 1), (1 << p) - 1) * rng.choice((1, -1))
        terms.append((m, rng.choice(centers) + rng.randint(0, theta - 1)))
    if rng.random() < 0.25:  # cancel the leading term down to a few bits
        m, e = terms[0]
        terms.append((-(m - rng.choice((-1, 1)) * rng.randint(0, 3)), e))
        if abs(terms[-1][0]) >= 1 << p or abs(terms[-1][0]) < 1 << (p - 1):
            terms.pop()
    return terms


def check_sample(seed: int, lib) -> CheckReport:
    """Re-check f_sum_blocks with a Fraction rounder and f_exp with mpmath.

    The inputs mirror the verify suites: sums across wide exponent gaps,
    and exp arguments of magnitude up to about 64.
    """
    import mpmath

    import oracles

    report = CheckReport([])
    rng = _rng(seed, "verify-sample")
    for k in range(SAMPLE_SUMS):
        p = (24, 53)[k % 2]
        terms = _sample_sum(rng, p)
        got = lib.f_sum_blocks([lib.PFloat(m, e, p) for m, e in terms])
        want = oracles.round_fraction(sum((Fraction(m) * Fraction(2) ** e for m, e in terms), Fraction(0)), p)
        report.value_bits_max = max(report.value_bits_max, value_bits(got))
        if (got.m, got.e) != want:
            report.errors.append(f"f_sum_blocks({terms}) = {got}, Fraction rounder {want}")
    for k in range(SAMPLE_EXPS):
        p = (24, 53)[k % 2]
        m = rng.randint(1 << (p - 1), (1 << p) - 1) * rng.choice((1, -1))
        e = rng.randint(-p - 2, 6 - p)
        got = lib.f_exp(lib.PFloat(m, e, p))
        report.value_bits_max = max(report.value_bits_max, value_bits(got))
        with mpmath.workprec(4 * p + 64):
            truth = mpmath.exp(mpmath.ldexp(m, e))
            if abs(mpmath.ldexp(got.m, got.e) - truth) > mpmath.ldexp(truth, -p):
                report.errors.append(f"f_exp({m}*2^{e}) = {got} beyond 2^-{p} relative")
    return report
