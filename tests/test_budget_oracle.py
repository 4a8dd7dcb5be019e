"""Budgeted outputs of seeded random models against an mpmath reference.

The models come from the benchmark zoo (`perfbench/zoo.py`): dim 4, one
causal and one unmasked softmax head per layer, parameters k/2^j, so the
scores differ and every exp site is approximated.  The reference is
`perfbench/oracles.softmax_mpmath` at 4*log2(1/eps) + 256 bits.  Each case
checks the certificate |value - truth| <= eps and the output rounding:
a value whose denominator exceeds 2^g (2^-g <= eps) is rounded to the 2^-g
grid, anything coarser is returned exactly.

Random 2-layer models are drawn with and without layernorm.  Without it,
layer-2 scores reach about 10^6 on some draws; `softmax_budgeted` flushes
exp terms that far below their row maximum, which would otherwise carry a
denominator of millions of bits.  The benchmark's two kept operations are
included.
"""

import random
import sys
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(BENCH)]

import oracles  # noqa: E402
import zoo  # noqa: E402
from exact_xformer import Rat, budget, eval_budgeted, parse_model  # noqa: E402

# (rng key, layers, layernorm, n, log2(1/eps)), as perfbench/workloads.py
# builds its kept failures
KEPT = [
    ("kept-failure:layernorm", 1, True, 2, 4),
    ("kept-failure:two-layer", 2, False, 2, 16),
]
DRAWN = [
    (f"budget-oracle:{layers}:{layernorm}:{n}:{bits}", layers, layernorm, n, bits)
    for layers in (1, 2)
    for layernorm in (False, True)
    for n in (2, 4)
    for bits in (4, 16, 64)
]


@pytest.mark.parametrize("key, layers, layernorm, n, bits", KEPT + DRAWN, ids=[c[0] for c in KEPT + DRAWN])
def test_budgeted_within_epsilon_of_mpmath(monkeypatch, key, layers, layernorm, n, bits):
    rng = random.Random(key)
    doc = zoo.random_model(rng, "softmax", layers, "mixed", layernorm)
    word = zoo.random_word(rng, n)

    rows, unrounded = [], []
    softmax, round_to_grid = budget.softmax_budgeted, budget._round_to_grid

    def recording_softmax(scores, delta):
        rows.append(list(scores))
        return softmax(scores, delta)

    def recording_round(x, g):
        unrounded.append((x, g))
        return round_to_grid(x, g)

    monkeypatch.setattr(budget, "softmax_budgeted", recording_softmax)
    monkeypatch.setattr(budget, "_round_to_grid", recording_round)
    eps = Rat(1, 1 << bits)
    value = eval_budgeted(parse_model(zoo.to_text(doc)), word, eps)

    assert any(len(set(row)) > 1 for row in rows), "every score row is uniform"

    [(exact, g)] = unrounded
    assert g == bits
    if exact.den <= 1 << g:
        assert value == exact
    else:
        assert value.den & (value.den - 1) == 0 and value.den <= 1 << g
        assert abs(value - exact) <= Rat(1, 1 << (g + 1))

    prec = 4 * bits + 256
    truth, _ = oracles.softmax_mpmath(doc, word, prec)
    with mpmath.workprec(prec):
        assert abs(mpmath.mpf(value.num) / value.den - truth) <= mpmath.ldexp(1, -bits)
