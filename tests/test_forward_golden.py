"""Pinned outputs of the three evaluators on small seeded models.

The models are drawn here from fixed integer seeds, with small parameters
k/2^j (zeros included, so the zero-skipping paths run).  Any change to
the order or number of rounding steps, or to the exact arithmetic, shows
up as a mismatch.
"""

import hashlib
import json
import random

import pytest

from exact_xformer import Rat, eval_ahat, eval_budgeted, eval_smat_pbit
from exact_xformer.budget import _eval_planned, plan_budget
from exact_xformer.evaluator import _eval_smat
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


def _model(seed: int, kind: str, layers: int, layernorm: bool, rule: str = "scaled_index") -> Model:
    """Two heads per layer (one causal, one unmasked), ReLU FFNN, residuals on,
    and coordinate DIM-1 carrying the position under `rule` (i/n by default)."""
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
    return Model(("a", "b", "c"), DIM, embeddings, PositionRule(rule, DIM - 1), body, OutputHead(vec(DIM), rat()))


# Seed 15 has tied score rows, so some attention weights are not dyadic.
AHAT = {
    # word: (value, embedding_bits, layer_bits)
    "abcabbca": ("1393145/4096", (5, 4), [(15, 10), (24, 15)]),
    "ccbaabac": ("971425/3072", (5, 4), [(15, 11), (22, 16)]),
    "aaaaaaaa": ("-7021189/4096", (5, 4), [(16, 11), (25, 15)]),
}

# Three layers over the inverse position 1/i at n = 12, so the inputs carry
# denominators up to lcm(1..12) and the vectors' common denominators have
# odd factors to cancel.
AHAT_INVERSE = {
    # word: (value, embedding_bits, layer_bits)
    "abcabbcacbaa": ("-5534508465/4194304", (4, 4), [(19, 15), (29, 20), (39, 25)]),
    "ccbaabacabcb": ("6143231215859/2076180480", (4, 4), [(19, 14), (34, 26), (40, 29)]),
    "aaaaaaaaaaaa": ("133870895135/6291456", (4, 4), [(17, 10), (26, 16), (36, 23)]),
}

SMAT = {
    # (word, p): (m, e)
    ("bacaab", 24): (-15174219, -23),
    ("bacaab", 53): (-8146595564546128, -52),
    ("cabbac", 24): (-15173768, -23),
    ("cabbac", 53): (-8146354737207753, -52),
}

# The smat trace's widths at p = 24, each checked against the canonical
# Fractions of its floats' m * 2^e: numerators fill the 24-bit significand,
# and the embedded inputs i/6 round to floats with more bits below the point.
SMAT_TRACE = {
    # word: (embedding_bits, layer_bits)
    "bacaab": ((24, 27), [(24, 24), (24, 26)]),
    "cabbac": ((24, 26), [(24, 24), (24, 26)]),
}

# p = 256 and 1024 on five-letter words: poly(n)-bit precision, where
# f_exp rather than the dot products dominates the run.
SMAT_WIDE = {
    # (word, p): (hex digits of |m|, sign of m, e)
    ("abcca", 256): (
        "e78913027a9e3233b79060b35cc9ee13bdce400837623d6242c15172760b111b",
        -1,
        -255,
    ),
    ("abcca", 1024): (
        (
            "e78913027a9e3233b79060b35cc9ee13bdce400837623d6242c15172760b111d"
            "600684f974a36e8ca424dc0c2ee5cc644ef8a0b9d1466be80fa00fdfe9685ad8"
            "05f90d5f459f2a67e55258cf6f9db59c3a6efab16ca252debd10ef6af9d31790"
            "e9f7b0df61343cb54db1c53afef84c1721ed48205812a387b6effdb55c3d6322"
        ),
        -1,
        -1023,
    ),
    ("cbaac", 256): (
        "e7888c3136165121ff04012713d3927a27a014d6a45595d8dc6a32aef272b598",
        -1,
        -255,
    ),
    ("cbaac", 1024): (
        (
            "e7888c3136165121ff04012713d3927a27a014d6a45595d8dc6a32aef272b598"
            "bda946cb8ec6bde9ee9ec98afc2dce950503050174f4ab51ea6fefcbe9465dc1"
            "e99141c569967f183bb8ee96577014ec47625464fc1f59e7d0abf867f004352d"
            "2a151d3ae23036d6866adafd75f69a249667774e478e34eb81cef9354deaeb7b"
        ),
        -1,
        -1023,
    ),
}

# Budgeted at eps = 2^-16 and 2^-64: each output is rounded to the epsilon
# grid; both lie within eps of an mpmath pass at 4*log2(1/eps) + 256 bits.
BUDGETED = {
    "cbab": "-2454041/32768",
    "abca": "-8809873/65536",
}

BUDGETED_WIDE = ("cbab", "Rat(-690751130419813345715, 9223372036854775808)")

# Budgeted on the smat model (two layers, layernorm, mixed masks) at
# eps = 2^-64, so both layernorm sites of both layers run; each lies within
# eps of the same mpmath pass.
BUDGETED_LAYERNORM = {
    "bacaab": "Rat(-33368455432380939619, 18446744073709551616)",
    "cabbac": "Rat(-33367469003602950399, 18446744073709551616)",
}

# plan_budget's site deltas and stage tolerances, one sha256 of the sorted
# "key: value" lines of both dicts.  The layernorm plans run both sites of
# every layer, so each layer's magnitude bounds feed the next one's.
PLANS = {
    # (seed, layers, layernorm, n, log2(1/eps)): sha256
    (12, 2, True, 5, 64): "97b853183d5afd3e9cce637820a4a1d28860b2727da752dd0e1c4f024f76f959",
    (13, 1, False, 4, 16): "969b05e8077535d729cd85c984c434130ecd8233a79b643756d204684de6a23f",
    (12, 3, True, 6, 64): "bf96d404379693dc28d7a8717ed5b33d3c1bac48abe778f683b60d574a46a535",
}

# Two layers and no position rule, so each letter's layer-0 query is the
# same at every position where it occurs: the unmasked head of layer 0 sees
# repeated queries, and each must get its own context.  Budgeted pins its
# value and a sha256 of its trace's JSON, plan included.
REPEATED_WORDS = ("abcabbca", "ccbaabac")

AHAT_REPEATED = {
    # word: (value, embedding_bits, layer_bits), seed 15
    "abcabbca": ("-438423/2048", (2, 3), [(13, 8), (22, 12)]),
    "ccbaabac": ("-483591/2048", (2, 3), [(13, 8), (17, 11)]),
}

SMAT_REPEATED = {
    # (word, p): ((m, e), embedding_bits, layer_bits), seed 12 with layernorm
    ("abcabbca", 24): ((-15173710, -23), (2, 2), [(24, 24), (24, 26)]),
    ("abcabbca", 53): ((-8146323766839775, -52), (2, 2), [(53, 53), (53, 55)]),
    ("ccbaabac", 24): ((-15174702, -23), (2, 2), [(24, 24), (24, 26)]),
    ("ccbaabac", 53): ((-8146854100948359, -52), (2, 2), [(53, 53), (53, 55)]),
}

BUDGETED_REPEATED = {
    # (word, log2(1/eps)): (value, sha256 of the trace JSON), seed 12 with layernorm
    ("abcabbca", 16): (
        "Rat(-118545, 65536)",
        "89089b71a5a3e86d48ae5a37606128a7c037d27c5ead5752484acb759f0fcee3",
    ),
    ("abcabbca", 64): (
        "Rat(-33367342148975709157, 18446744073709551616)",
        "cf3a62fda9a02476e9abab2f3c725161f41f4ea7b264c1a4574df22955224733",
    ),
    ("ccbaabac", 16): (
        "Rat(-14819, 8192)",
        "5ff59fce3148bacf6eb6aa4dbc36e25e79e6dd56a2b44c743a267aa0e47fed47",
    ),
    ("ccbaabac", 64): (
        "Rat(-8342378599371117565, 4611686018427387904)",
        "359c7a7bad8d5fa48061a5a96db9d8691bf7c0f8d5e7816e97e10a9477203064",
    ),
}


@pytest.mark.parametrize("word", sorted(AHAT))
def test_ahat_two_layers_mixed_masks(word):
    value, trace = eval_ahat(_model(15, "average_hard", 2, False), word)
    assert (str(value), trace.embedding_bits, trace.layer_bits) == AHAT[word]


@pytest.mark.parametrize("word", sorted(AHAT_INVERSE))
def test_ahat_three_layers_inverse_index(word):
    value, trace = eval_ahat(_model(27, "average_hard", 3, False, "inverse_index"), word)
    assert (str(value), trace.embedding_bits, trace.layer_bits) == AHAT_INVERSE[word]


@pytest.mark.parametrize("word, p", sorted(SMAT))
def test_smat_two_layers_with_layernorm(word, p):
    value = eval_smat_pbit(_model(12, "softmax", 2, True), word, p)
    assert (value.m, value.e, value.p) == SMAT[word, p] + (p,)


@pytest.mark.parametrize("word", sorted(SMAT_TRACE))
def test_smat_two_layers_with_layernorm_trace(word):
    value, trace = _eval_smat(_model(12, "softmax", 2, True), word, 24)
    assert (value.m, value.e) == SMAT[word, 24]
    assert (trace.embedding_bits, trace.layer_bits) == SMAT_TRACE[word]


@pytest.mark.parametrize("word, p", sorted(SMAT_WIDE))
def test_smat_two_layers_with_layernorm_wide(word, p):
    value = eval_smat_pbit(_model(12, "softmax", 2, True), word, p)
    digits, sign, e = SMAT_WIDE[word, p]
    assert (value.m, value.e, value.p) == (sign * int(digits, 16), e, p)


@pytest.mark.parametrize("word", sorted(BUDGETED))
def test_budgeted_one_layer_mixed_masks(word):
    value = eval_budgeted(_model(13, "softmax", 1, False), word, Rat(1, 1 << 16))
    assert str(value) == BUDGETED[word]


def test_budgeted_one_layer_wide_epsilon():
    word, want = BUDGETED_WIDE
    value = eval_budgeted(_model(13, "softmax", 1, False), word, Rat(1, 1 << 64))
    assert repr(value) == want


@pytest.mark.parametrize("word", sorted(BUDGETED_LAYERNORM))
def test_budgeted_two_layers_with_layernorm(word):
    value = eval_budgeted(_model(12, "softmax", 2, True), word, Rat(1, 1 << 64))
    assert repr(value) == BUDGETED_LAYERNORM[word]


@pytest.mark.parametrize("seed, layers, layernorm, n, bits", sorted(PLANS))
def test_plan_budget_sites_and_tolerances(seed, layers, layernorm, n, bits):
    budget = plan_budget(_model(seed, "softmax", layers, layernorm), n, Rat(1, 1 << bits))
    lines = sorted(f"{key}: {value}" for d in (budget.site_deltas, budget.stage_tolerances) for key, value in d.items())
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PLANS[seed, layers, layernorm, n, bits]


@pytest.mark.parametrize("word", REPEATED_WORDS)
def test_ahat_repeated_queries(word):
    value, trace = eval_ahat(_model(15, "average_hard", 2, False, "none"), word)
    assert (str(value), trace.embedding_bits, trace.layer_bits) == AHAT_REPEATED[word]


@pytest.mark.parametrize("word, p", sorted(SMAT_REPEATED))
def test_smat_repeated_queries(word, p):
    value, trace = _eval_smat(_model(12, "softmax", 2, True, "none"), word, p)
    assert ((value.m, value.e), trace.embedding_bits, trace.layer_bits) == SMAT_REPEATED[word, p]


@pytest.mark.parametrize("word, bits", sorted(BUDGETED_REPEATED))
def test_budgeted_repeated_queries(word, bits):
    value, trace = _eval_planned(_model(12, "softmax", 2, True, "none"), word, Rat(1, 1 << bits))
    digest = hashlib.sha256(json.dumps(trace.to_json_dict(), sort_keys=True).encode()).hexdigest()
    assert (repr(value), digest) == BUDGETED_REPEATED[word, bits]
