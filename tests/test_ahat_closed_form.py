"""Exact average-hard growth against a closed form: the prefix-mean model.

Two causal average-hard layers with zero queries and keys tie every score,
so each position averages the values at and before it.  With token values
1 for "1" and 0 for "0", layer one gives c_j / j at position j, where c_j
counts the 1s among the first j symbols, and layer two reads out

    (1/n) * sum_{j=1..n} c_j / j

at the last position.  Its denominator divides lcm(1..n) * n, so the exact
width grows with n, unlike `majority`'s.  The expected value is computed in
`Fraction` from the word alone and shares no code with the evaluator.
"""

import json
import random
from fractions import Fraction

import pytest

from exact_xformer import eval_ahat, parse_model

ZERO, ONE = ["0", "0"], ["1", "0"]
_ZEROS = [ZERO, ZERO]
_IDENTITY = [ONE, ["0", "1"]]


def _layer() -> dict:
    head = {"kind": "average_hard", "masking": "causal", "w_q": _ZEROS, "w_k": _ZEROS, "w_v": _IDENTITY, "w_o": _IDENTITY}
    ffnn = {"activation": "relu", "w1": _ZEROS, "b1": ZERO, "w2": _ZEROS, "b2": ZERO}
    return {
        "heads": [head],
        "ffnn": ffnn,
        "layernorm_attn": None,
        "layernorm_ffnn": None,
        "residual_attn": False,
        "residual_ffnn": True,
    }


PREFIX_MEAN = {
    "format_version": 1,
    "alphabet": ["0", "1"],
    "dim": 2,
    "token_embeddings": {"0": ZERO, "1": ONE},
    "position_rule": {"kind": "none"},
    "layers": [_layer(), _layer()],
    "output_head": {"weights": ONE, "bias": "0"},
}


def prefix_mean(word: str) -> Fraction:
    total, ones = Fraction(0), 0
    for j, symbol in enumerate(word, 1):
        ones += symbol == "1"
        total += Fraction(ones, j)
    return total / len(word)


_RNG = random.Random("prefix-mean")
WORDS = ["0", "1", "01", "10", "111", "1" * 256, "0" * 255 + "1"] + [
    "".join(_RNG.choice("01") for _ in range(n)) for n in list(range(2, 17)) + [31, 32, 33, 64, 65, 100, 127, 128, 129, 200, 255, 256, 256, 256]
]


@pytest.fixture(scope="module")
def model():
    return parse_model(json.dumps(PREFIX_MEAN))


@pytest.mark.parametrize("word", WORDS, ids=[f"n{len(w)}-{i}" for i, w in enumerate(WORDS)])
def test_prefix_mean_matches_closed_form(model, word):
    value = eval_ahat(model, word)[0]
    assert Fraction(value.num, value.den) == prefix_mean(word)


def test_prefix_mean_grows_with_n(model):
    value = eval_ahat(model, "0" * 255 + "1")[0]
    assert (value.num, value.den) == (1, 256**2)
    word = "1" + "0" * 255
    value = eval_ahat(model, word)[0]
    assert Fraction(value.num, value.den) == prefix_mean(word)
    assert value.den.bit_length() > 300
