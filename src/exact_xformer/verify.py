"""Property suites with independent oracles, behind the CLI's verify command.

Each suite draws its cases from per-case seeded generators (seed "S:name:i"),
so any failure is reproducible in isolation and sharding the index range
across workers cannot change the aggregate outcome.

Oracles are built from different machinery than the code under test:
rounding is checked against the enumerated floats themselves, exp uses an
integer-fixpoint series enclosure by halving and squaring (no log2
constant), sqrt a bisection on the significand with exact squaring, not
f_sqrt's math.isqrt, and the two perturbation-lemma suites check their
inequalities on rigorous interval enclosures.  Monotonicity is checked for
exp only, on the floats' exact rationals, not on float comparison.  The one
shared piece is the sum suite's rounding: its exact-rational total is
rounded by round_p, which goes through the same _round_pair as
f_sum_blocks; the round suite checks that _round_pair against the
enumerated floats at p <= 16.

The generators draw through _below, which draws as Random.randrange does;
the sum suite's clustered cases, most of its draws, make the same draws
inline.  The exp suite's error check and the sum suite's gap check are
decided on integers over one power of two; a failure's text still prints
the exact rationals.
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

from .budget import invsqrt_delta, softmax_delta, sqrt_bounds
from .elementary import f_exp, f_sqrt
from .errors import DomainError
from .pfloat import PFloat, f_sum_blocks, f_sum_oracle, float_to_rat, partition_blocks, round_p
from .rational import Rat, rat_sum


@dataclass
class CaseFailure:
    kind: str
    case_seed: str
    detail: str

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "case_seed": self.case_seed, "detail": self.detail}


@dataclass
class SuiteResult:
    suite: str
    p: Optional[int]
    cases: int
    failures: list[CaseFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "p": self.p,
            "cases": self.cases,
            "failures": sorted((f.to_json_dict() for f in self.failures), key=lambda d: d["case_seed"]),
            "passed": self.passed,
        }


# --------------------------------------------------------------------------
# oracle-side enclosures (independent of elementary.py's machinery)
# --------------------------------------------------------------------------


def exp_enclosure(x: Rat, bits: int) -> tuple[Rat, Rat]:
    """Rigorous lo <= exp(x) <= hi, with hi <= (1 + 2^-bits) lo.

    Halving and squaring in fixed point, at S = bits + g + s fractional
    bits, where y = |x| / 2^s < 2^-4 and the guard g is the bit length of
    bits + s, plus 8, plus floor(3|x|/2) + 6 when x < 0.  It uses no log 2
    constant and nothing of elementary.py, so it shares no machinery with
    f_exp.  Each step rounds one way: floors only ever lose value and
    ceilings only gain.

    Bracket.  The series of exp(y) is summed term by term, t_i = t_(i-1)
    y / i, floored into lo and ceiled into hi, until a ceiled term is at
    most 4 units.  Each later term is under 1/16 of the one before, so the
    rest of the series is under 4/15 of a unit, and hi adds one unit for
    it.  Squaring is increasing on positives, so s squarings, floored in lo
    and ceiled in hi, bracket exp(y)^(2^s) = exp(|x|).  For x < 0,
    floor(2^2S / hi) and floor(2^2S / lo) + 1 bracket 2^S exp(x).

    Width.  A floored and a ceiled term differ by under their parents'
    difference / 16 + 2 units, so by at most 2, and a ceiled term is under
    2^(S - 4i) + 2 units, so there are at most S/4 + 1 terms and the series
    leaves hi - lo <= S/2 + 3 units.  lo >= 2^S throughout, so hi/lo <=
    exp(u), u = (S/2 + 3) 2^-S.  A squaring squares hi/lo, and its two
    roundings add a factor under 1 + 3 2^-S, so after s of them hi/lo <=
    exp(2^s (u + 3 2^-S)) <= 1 + (S + 12) 2^-(bits + g).  With L the bit
    length of bits + s, S + 12 < 2^L + L + 20 + (g - L - 8), which is at
    most 2^(g - 1), so hi/lo <= 1 + 2^-(bits + 1).  Inverting adds a factor
    under 1 + 3 hi / 2^2S.  There hi / 2^S < 2 e^|x| < 2^(3|x|/2 + 1), as
    log2 e < 3/2, and g > 3|x|/2 + 13, so the factor is under
    1 + 2^-(bits + 2) and the two together under 1 + 2^-bits, for every x.
    The guard thus grows with the log of the width asked for, and with |x|
    only where the inversion needs it.
    """
    a, b = abs(x.num), x.den
    s = max(0, a.bit_length() - b.bit_length() + 5)
    guard = (bits + s).bit_length() + 8
    if x.num < 0:
        guard += 3 * a // (2 * b) + 6
    shift = bits + guard + s
    one = 1 << shift
    d = b << s
    lo = hi = t_lo = t_hi = one
    i = 0
    while t_hi > 4:
        i += 1
        di = d * i
        t_lo = t_lo * a // di
        t_hi = -(-t_hi * a // di)
        lo += t_lo
        hi += t_hi
    hi += 1
    for _ in range(s):
        lo = lo * lo >> shift
        hi = -(-hi * hi >> shift)
    if x.num >= 0:
        return Rat(lo, one), Rat(hi, one)
    inv_lo = (one * one) // hi
    inv_hi = (one * one) // lo + 1
    return Rat(inv_lo, one), Rat(inv_hi, one)


def sqrt_round_oracle(x: PFloat) -> PFloat:
    """round_p(sqrt(x)) by bounded search plus exact breakpoint squaring."""
    p = x.p
    if x.m < 0:
        raise DomainError("sqrt of a negative float")
    if x.m == 0:
        return PFloat(0, 0, p)
    m, e = x.m, x.e
    big_l = m.bit_length() - 1 + e  # floor(log2 value)
    t = big_l // 2  # floor(log2 sqrt(value))
    e_r = t - (p - 1)
    sh = e - 2 * e_r

    def sq_le(f: int) -> bool:
        # f^2 * 2^(2*e_r) <= m * 2^e
        if sh >= 0:
            return f * f <= m << sh
        return (f * f) << -sh <= m

    lo, hi = (1 << (p - 1)) - 1, 1 << p  # invariant: sq_le(lo), not sq_le(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sq_le(mid):
            lo = mid
        else:
            hi = mid
    f = lo
    # breakpoint (f + 1/2) * 2^e_r: compare (2f+1)^2 * 2^(2*e_r - 2) with m * 2^e
    sh2 = sh + 2
    bp_sq = (2 * f + 1) ** 2
    if sh2 >= 0:
        c = (bp_sq > m << sh2) - (bp_sq < m << sh2)
    else:
        c = (bp_sq << -sh2 > m) - (bp_sq << -sh2 < m)
    if c > 0:
        m_r = f
    elif c < 0:
        m_r = f + 1
    else:
        m_r = f if f % 2 == 0 else f + 1
    if m_r == 1 << p:
        return PFloat(1 << (p - 1), e_r + 1, p)
    return PFloat(m_r, e_r, p)


# --------------------------------------------------------------------------
# case generators
# --------------------------------------------------------------------------


def _case_rng(seed: int, suite: str, idx: int) -> random.Random:
    return random.Random(f"{seed}:{suite}:{idx}")


def _cases(seed: int, suite: str, cases: int):
    """Each case's index, generator and tag (the generator's seed)."""
    for idx in range(cases):
        yield idx, _case_rng(seed, suite, idx), f"{seed}:{suite}:{idx}"


def _below(rng: random.Random, n: int) -> int:
    """An integer in [0, n), drawn as Random.randrange(n) draws it: n's bit
    length of getrandbits, drawn again while not below n.  randint(a, b) is
    a + _below(rng, b - a + 1) and choice(seq) is seq[_below(rng, len(seq))],
    so the cases are the ones those calls drew, without their layers of
    Python calls.  _sum_case's clustered branch makes these same draws
    inline, without this call either.  n >= 1."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _rand_sig(rng: random.Random, p: int) -> int:
    half = 1 << (p - 1)
    return (half + _below(rng, half)) * (1, -1)[_below(rng, 2)]


def _sum_case(rng: random.Random, p: int) -> list[PFloat]:
    kind = _below(rng, 25)
    if kind < 19:
        # clustered random: a few exponent clusters, spacing around the threshold
        n = 2 + _below(rng, 63)
        theta = 2 * p + (n - 1).bit_length()
        ncl = 1 + _below(rng, 4)
        centers = []
        base = -2 * theta + _below(rng, 4 * theta + 1)
        for _ in range(ncl):
            centers.append(base)
            base += theta + _below(rng, 2 * p + 1)
        # each term draws as PFloat(_rand_sig(rng, p), centers[_below(rng,
        # ncl)] + _below(rng, theta), p) would, inline: the same bit lengths
        # and the same redraws, so the same stream
        getrandbits = rng.getrandbits
        half = 1 << (p - 1)
        k_ncl, k_theta = ncl.bit_length(), theta.bit_length()
        xs = []
        for _ in range(n):
            m = getrandbits(p)
            while m >= half:
                m = getrandbits(p)
            sign = getrandbits(2)
            while sign >= 2:
                sign = getrandbits(2)
            c = getrandbits(k_ncl)
            while c >= ncl:
                c = getrandbits(k_ncl)
            t = getrandbits(k_theta)
            while t >= theta:
                t = getrandbits(k_theta)
            xs.append(PFloat(-half - m if sign else half + m, centers[c] + t, p))
        return xs
    if kind < 21:
        # leading block summing exactly to a breakpoint, optional far blocks
        e = -8 + _below(rng, 17)
        m1 = (1 << (p - 1)) + _below(rng, (1 << (p - 1)) - 1)
        sign = (1, -1)[_below(rng, 2)]
        xs = [PFloat(sign * m1, e, p), PFloat(sign * (1 << (p - 1)), e - p, p)]
        n_far = _below(rng, 3)
        theta = 2 * p + (len(xs) + n_far - 1).bit_length()
        drop = e - p - theta
        for _ in range(n_far):
            drop -= _below(rng, p + 1)
            xs.append(PFloat(_rand_sig(rng, p), drop, p))
            drop -= theta
        rng.shuffle(xs)
        return xs
    if kind < 23:
        # binade-bottom straddle: lead pair cancels to one bit, far mass lands
        # within a few units of the lower breakpoint distance 2^(e-p-1), or
        # (deep) exactly on it with one more term below to settle the side.
        # Each gap is 2p + ceil(log2 n), one bit under block_threshold, so
        # the list sums as one exact block; without that guard bit it would
        # split at the straddle
        big_l = 3 + _below(rng, 3)
        deep = _below(rng, 3) == 0
        n_far = (1 << (big_l - 1)) + 1 + _below(rng, (1 << (big_l - 1)) - (3 if deep else 2))
        theta = 2 * p + big_l
        e = -8 + _below(rng, 17)
        sign = (1, -1)[_below(rng, 2)]
        m1 = (1 << (p - 1)) + 1 + _below(rng, (1 << (p - 1)) - 1)
        xs = [PFloat(sign * m1, e, p), PFloat(-sign * (m1 - 1), e, p)]
        units = (1 << (p + big_l - 1)) + (0 if deep else _below(rng, 7) - 3)
        base, extra = divmod(units, n_far)
        cs = [base + 1] * extra + [base] * (n_far - extra)
        if all((1 << (p - 1)) <= c < (1 << p) for c in cs):
            xs += [PFloat(-sign * c, e - theta, p) for c in cs]
        else:
            xs.append(PFloat(-sign * (1 << (p - 1)), e - theta, p))
        if deep:
            xs.append(PFloat((1, -1)[_below(rng, 2)] * (1 << (p - 1)), e - 2 * theta, p))
        rng.shuffle(xs)
        return xs
    # cancellation: leading block collapses to a one-or-two-bit sum (or to zero)
    e = -8 + _below(rng, 17)
    m1 = (1 << (p - 1)) + 1 + _below(rng, (1 << (p - 1)) - 1)
    residue = _below(rng, min(3, m1 - (1 << (p - 1))) + 1)
    xs = [PFloat(m1, e, p), PFloat(-(m1 - residue), e, p)]
    n_far = (0 if residue else 1) + _below(rng, 3 if residue else 2)
    theta = 2 * p + (len(xs) + n_far - 1).bit_length()
    drop = e - 2 * p - theta
    for _ in range(n_far):
        xs.append(PFloat(_rand_sig(rng, p), drop, p))
        drop -= theta + _below(rng, p + 1)
    rng.shuffle(xs)
    return xs


# --------------------------------------------------------------------------
# suites
# --------------------------------------------------------------------------


def _run_round(p: int, cases: int, seed: int) -> SuiteResult:
    """Exhaustive round-to-nearest, ties-to-even, over e in [-8, 8].

    For each gap between neighbouring floats a = m * 2^e < b = (m + 1) * 2^e,
    the probes (8m + k) * 2^(e-3), exact as p+3-bit floats, are a (k = 0),
    an eighth below the midpoint (k = 3), the midpoint (k = 4) and an eighth
    above it (k = 5).  They must round to a, a, whichever of a and b has the
    even significand, and b; the negated probes to the negated floats: 8
    cases per gap.  The top float must round to itself too, uncounted.
    """
    floats = [
        PFloat(m, e, p)
        for e in range(-8, 9)
        for m in range(1 << (p - 1), 1 << p)
    ]  # ascending: (2^p - 1) * 2^e < 2^(p-1) * 2^(e+1)
    res = SuiteResult("round", p, 8 * (len(floats) - 1))

    def nearest(k: int, a: PFloat, want: PFloat) -> None:
        for s in (1, -1):
            val = float_to_rat(PFloat(s * (8 * a.m + k), a.e - 3, p + 3))
            got, expected = round_p(val, p), PFloat(s * want.m, want.e, p)
            if got != expected:
                res.failures.append(
                    CaseFailure("not-nearest", f"{p}:{val}", f"round_p({val}) = {got}, want {expected}")
                )

    for a, b in zip(floats, floats[1:]):
        for k, want in ((0, a), (3, a), (4, b if a.m & 1 else a), (5, b)):
            nearest(k, a, want)
    nearest(0, floats[-1], floats[-1])
    return res


def _run_sum(p: int, cases: int, seed: int) -> SuiteResult:
    res = SuiteResult("sum", p, cases)
    for idx, rng, tag in _cases(seed, "sum", cases):
        xs = _sum_case(rng, p)
        got = f_sum_blocks(xs)
        want = f_sum_oracle(xs)
        if got != want:
            res.failures.append(CaseFailure("mismatch", tag, f"blocks={got} oracle={want}"))
        # remainder gap bound: all non-leading blocks together stay below
        # 2^(e1-p-1), the least distance from the leading block-sum to any
        # other rounding breakpoint
        nonzero = [x for x in xs if x.m != 0]
        if not nonzero:
            continue
        blocks = partition_blocks(nonzero)
        for lead_at, block in enumerate(blocks):
            e1 = min(nonzero[i].e for i in block)
            if sum(nonzero[i].m << (nonzero[i].e - e1) for i in block):
                break
        else:
            continue
        rest = [nonzero[i] for j, block in enumerate(blocks) if j != lead_at for i in block]
        if not rest:
            continue
        # the rest is r * 2^low, so |rest| < 2^(e1-p-1) iff |r| < 2^k
        low = min(x.e for x in rest)
        r = sum(x.m << (x.e - low) for x in rest)
        k = e1 - p - 1 - low
        if not (abs(r) < 1 << k if k >= 0 else r == 0):
            text = Rat(r << low) if low >= 0 else Rat(r, 1 << -low)
            res.failures.append(CaseFailure("gap", tag, f"|r|={text} !< 2^({e1}-{p}-1)"))
    return res


def _run_exp(p: int, cases: int, seed: int) -> SuiteResult:
    res = SuiteResult("exp", p, cases)
    top = min(6 - p, -1)  # |x| < 2^min(6, p-1), inside f_exp's range
    for idx, rng, tag in _cases(seed, "exp", cases):
        x = PFloat(_rand_sig(rng, p), -p - 2 + _below(rng, top + p + 3), p)
        y = f_exp(x)
        lo, hi = exp_enclosure(float_to_rat(x), 4 * p)
        # lo and hi have power-of-two denominators, so y, lo and hi are F, L
        # and H units of 2^-k, and |y - lo|, |y - hi| <= 2^-p lo runs on integers
        k = max(lo.den.bit_length(), hi.den.bit_length(), 1 - y.e) - 1
        F = y.m << (k + y.e)
        L = lo.num << (k + 1 - lo.den.bit_length())
        H = hi.num << (k + 1 - hi.den.bit_length())
        if max(abs(F - L), abs(F - H)) << p > L:
            res.failures.append(CaseFailure("rel-error", tag, f"exp({x}) = {y} deviates"))
        if idx % 8 == 0:
            x2 = PFloat(_rand_sig(rng, p), -p - 2 + _below(rng, top + p + 3), p)
            a, b = (x, x2) if float_to_rat(x) <= float_to_rat(x2) else (x2, x)
            if float_to_rat(f_exp(a)) > float_to_rat(f_exp(b)):
                res.failures.append(CaseFailure("not-monotone", tag, f"exp({a}) > exp({b})"))
    return res


def _run_sqrt(p: int, cases: int, seed: int) -> SuiteResult:
    res = SuiteResult("sqrt", p, cases)
    for idx, rng, tag in _cases(seed, "sqrt", cases):
        x = PFloat((1 << (p - 1)) + _below(rng, 1 << (p - 1)), -64 + _below(rng, 129), p)
        got = f_sqrt(x)
        want = sqrt_round_oracle(x)
        if got != want:
            res.failures.append(CaseFailure("mismatch", tag, f"sqrt({x}) = {got}, oracle {want}"))
    return res


def _rand_frac(rng: random.Random, bound: Rat) -> Rat:
    num = rng.randint(-16, 16)
    return bound * Rat(num, 16)


def _run_softmax_delta(p: Optional[int], cases: int, seed: int) -> SuiteResult:
    """The perturbed-softmax inequality: score errors and exp relative errors
    within delta keep every weight within 16*delta of the true softmax."""
    res = SuiteResult("softmax-delta", None, cases)
    for idx, rng, tag in _cases(seed, "softmax-delta", cases):
        n = rng.randint(2, 6)
        scores = [Rat(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(n)]
        eps = Rat(rng.randint(1, 15), 1 << rng.randint(0, 12))
        delta = softmax_delta(eps)
        hs = [_rand_frac(rng, delta) for _ in range(n)]
        etas = [_rand_frac(rng, delta) for _ in range(n)]
        if not _softmax_dev_within(scores, hs, etas, delta * Rat(16), 96):
            if not _softmax_dev_within(scores, hs, etas, delta * Rat(16), 256):
                res.failures.append(CaseFailure("bound", tag, "deviation above 16*delta"))
    return res


def _softmax_dev_within(scores, hs, etas, limit: Rat, bits: int) -> bool:
    true_enc = [exp_enclosure(s, bits) for s in scores]
    pert_enc = []
    for s, h, eta in zip(scores, hs, etas):
        lo, hi = exp_enclosure(s + h, bits)
        one = Rat(1)
        pert_enc.append(((one + eta) * lo, (one + eta) * hi))
    t_lo = rat_sum([lo for lo, _ in true_enc])
    t_hi = rat_sum([hi for _, hi in true_enc])
    p_lo = rat_sum([lo for lo, _ in pert_enc])
    p_hi = rat_sum([hi for _, hi in pert_enc])
    for (ylo, yhi), (qlo, qhi) in zip(true_enc, pert_enc):
        y_int = (ylo / t_hi, yhi / t_lo)
        q_int = (qlo / p_hi, qhi / p_lo)
        dev = max(abs(q_int[1] - y_int[0]), abs(y_int[1] - q_int[0]))
        if not dev <= limit:
            return False
    return True


def _run_invsqrt_delta(p: Optional[int], cases: int, seed: int) -> SuiteResult:
    """The inverse-sqrt inequality: input error within the planned delta and
    sqrt relative error within the site's production envelope keep 1/sqrt
    within eps.

    The budgeted sqrt site always carries at least two relative bits, so its
    relative error is bounded by min(delta/2, 1/4); delta itself can exceed 1
    (the c/2 clamp at large c), where a full-delta relative perturbation
    would be meaningless (1 + eta <= 0).
    """
    res = SuiteResult("invsqrt-delta", None, cases)
    c_choices = (Rat(1, 4), Rat(1), Rat(4))
    for idx, rng, tag in _cases(seed, "invsqrt-delta", cases):
        c = c_choices[idx % 3]
        x = c + Rat(rng.randint(0, 64), rng.randint(1, 8))
        eps = Rat(rng.randint(1, 15), 1 << rng.randint(0, 12))
        delta = invsqrt_delta(c, eps)
        h = _rand_frac(rng, delta)
        eta = _rand_frac(rng, min(delta * Rat(1, 2), Rat(1, 4)))
        if not _invsqrt_dev_within(x, h, eta, eps, 96):
            if not _invsqrt_dev_within(x, h, eta, eps, 256):
                res.failures.append(CaseFailure("bound", tag, f"c={c} x={x} deviation above eps"))
    return res


def _invsqrt_dev_within(x: Rat, h: Rat, eta: Rat, eps: Rat, bits: int) -> bool:
    one = Rat(1)
    s_lo, s_hi = sqrt_bounds(x, bits)
    y_int = (one / s_hi, one / s_lo)
    t_lo, t_hi = sqrt_bounds(x + h, bits)
    q_int = (one / (t_hi * (one + eta)), one / (t_lo * (one + eta)))
    dev = max(abs(q_int[1] - y_int[0]), abs(y_int[1] - q_int[0]))
    return dev <= eps


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


# Each suite's run(p, cases, seed), default case count and p, and least and
# greatest p (None: unbounded, or precision-free).  round enumerates 17*2^(p-1)
# floats and a 1-bit significand is odd; exp and sqrt shift by p - 1.
_Suite = namedtuple("_Suite", "run cases p least_p greatest_p", defaults=(None, None, None))
_TABLE = {
    "round": _Suite(_run_round, 0, 3, 2, 16),
    "sum": _Suite(_run_sum, 10000, 3, 2),
    "exp": _Suite(_run_exp, 1000, 8, 1),
    "sqrt": _Suite(_run_sqrt, 1000, 8, 1),
    "softmax-delta": _Suite(_run_softmax_delta, 1000),
    "invsqrt-delta": _Suite(_run_invsqrt_delta, 1000),
}
SUITES = tuple(_TABLE)


def _p_problem(name: str, p: Optional[int]) -> Optional[str]:
    """Why suite `name` cannot run at precision p, or None if it can."""
    least, greatest = _TABLE[name].least_p, _TABLE[name].greatest_p
    if least is None or least <= p and (greatest is None or p <= greatest):
        return None
    bound = f"p >= {least}" if greatest is None else f"{least} <= p <= {greatest}"
    return f"the {name} suite needs {bound}, got {p}"


def run_suite(name: str, p: Optional[int] = None, cases: Optional[int] = None, seed: int = 0) -> SuiteResult:
    if name not in _TABLE:
        raise DomainError(f"unknown suite {name!r} (choose from {', '.join(SUITES)})")
    suite = _TABLE[name]
    if p is None:
        p = suite.p
    problem = _p_problem(name, p)
    if problem:
        raise DomainError(problem)
    return suite.run(p, suite.cases if cases is None else cases, seed)


def run_all(p: Optional[int] = None, cases: Optional[int] = None, seed: int = 0) -> list[SuiteResult]:
    """Every suite at p, or at its default precision where p is out of its range."""
    return [
        run_suite(name, p=_TABLE[name].p if p is not None and _p_problem(name, p) else p, cases=cases, seed=seed)
        for name in SUITES
    ]
