"""Pinned outputs of the three evaluators on small seeded models.

The models are drawn here from fixed integer seeds, with small parameters
k/2^j (zeros included, so the zero-skipping paths run).  Any change to
the order or number of rounding steps, or to the exact arithmetic, shows
up as a mismatch.
"""

import random

import pytest

from exact_xformer import Rat, eval_ahat, eval_budgeted, eval_smat_pbit
from exact_xformer.model_ir import (
    AttentionHead,
    FFNN,
    Layer,
    LayerNorm,
    Model,
    OutputHead,
    PositionRule,
)

DIM = 3
HIDDEN = 4


def _model(seed: int, kind: str, layers: int, layernorm: bool) -> Model:
    """Two heads per layer (one causal, one unmasked), ReLU FFNN, residuals on,
    and coordinate DIM-1 carrying the scaled position i/n."""
    rng = random.Random(seed)

    def rat():
        return Rat(rng.randint(-3, 3), 1 << rng.randint(0, 2))

    def vec(n):
        return tuple(rat() for _ in range(n))

    def mat(rows, cols):
        return tuple(vec(cols) for _ in range(rows))

    def norm():
        if not layernorm:
            return None
        return LayerNorm(tuple(Rat(rng.randint(1, 4), 2) for _ in range(DIM)), vec(DIM), Rat(1, 2))

    def layer():
        heads = tuple(
            AttentionHead(mat(DIM, DIM), mat(DIM, DIM), mat(DIM, DIM), mat(DIM, DIM), kind, masking)
            for masking in ("causal", "none")
        )
        ffnn = FFNN(mat(HIDDEN, DIM), vec(HIDDEN), "relu", mat(DIM, HIDDEN), vec(DIM))
        return Layer(heads, ffnn, norm(), norm(), True, True)

    embeddings = {sym: vec(DIM) for sym in "abc"}
    body = tuple(layer() for _ in range(layers))
    return Model(("a", "b", "c"), DIM, embeddings, PositionRule("scaled_index", DIM - 1), body, OutputHead(vec(DIM), rat()))


# Seed 15 has tied score rows, so some attention weights are not dyadic.
AHAT = {
    # word: (value, embedding_bits, layer_bits)
    "abcabbca": ("1393145/4096", (5, 4), [(15, 10), (24, 15)]),
    "ccbaabac": ("971425/3072", (5, 4), [(15, 11), (22, 16)]),
    "aaaaaaaa": ("-7021189/4096", (5, 4), [(16, 11), (25, 15)]),
}

SMAT = {
    # (word, p): (m, e)
    ("bacaab", 24): (-15174219, -23),
    ("bacaab", 53): (-8146595564546128, -52),
    ("cabbac", 24): (-15173768, -23),
    ("cabbac", 53): (-8146354737207753, -52),
}

# Budgeted at eps = 2^-16 and 2^-64: each output is rounded to the epsilon
# grid; both lie within eps of an mpmath pass at 4*log2(1/eps) + 256 bits.
BUDGETED = {
    "cbab": "-2454041/32768",
    "abca": "-8809873/65536",
}

BUDGETED_WIDE = ("cbab", "Rat(-690751130419813345715, 9223372036854775808)")


@pytest.mark.parametrize("word", sorted(AHAT))
def test_ahat_two_layers_mixed_masks(word):
    value, trace = eval_ahat(_model(15, "average_hard", 2, False), word)
    assert (str(value), trace.embedding_bits, trace.layer_bits) == AHAT[word]


@pytest.mark.parametrize("word, p", sorted(SMAT))
def test_smat_two_layers_with_layernorm(word, p):
    value = eval_smat_pbit(_model(12, "softmax", 2, True), word, p)
    assert (value.m, value.e, value.p) == SMAT[word, p] + (p,)


@pytest.mark.parametrize("word", sorted(BUDGETED))
def test_budgeted_one_layer_mixed_masks(word):
    value = eval_budgeted(_model(13, "softmax", 1, False), word, Rat(1, 1 << 16))
    assert str(value) == BUDGETED[word]


def test_budgeted_one_layer_wide_epsilon():
    word, want = BUDGETED_WIDE
    value = eval_budgeted(_model(13, "softmax", 1, False), word, Rat(1, 1 << 64))
    assert repr(value) == want
