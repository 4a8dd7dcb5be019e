"""Exact average-hard outputs of sparse seeded models against a Fraction pass.

`eval_ahat` runs on compiled weight rows: a zero row is never multiplied,
a unit row hands back its input coordinate, an all-zero query ties every
key without a score dot, and an unmasked head's all-zero queries share
one context.  Each shortcut returns the same canonical rational, so the
output must equal `perfbench/oracles.ahat_fraction`, an independent pass
over the model document in `Fraction`s.

The models start from the benchmark zoo's average-hard models (dim 4, one
causal and one unmasked head per layer in "mixed") and are then thinned:
rows are replaced by zero and unit rows, some query matrices are zeroed,
every FFNN bias is nonzero, and half the models drop the position rule, so
repeated letters give repeated queries and tied scores.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(BENCH)]

import oracles  # noqa: E402
import zoo  # noqa: E402
from exact_xformer import eval_ahat, evaluator, parse_model  # noqa: E402


def _thin(rng: random.Random, doc: dict, no_position: bool) -> dict:
    """Zero and unit rows in every matrix, some zero query matrices, nonzero biases."""

    def row(old: list[str]) -> list[str]:
        kind = rng.random()
        if kind < 0.25:
            return ["0"] * len(old)
        if kind < 0.5:
            k = rng.randrange(len(old))
            return ["1" if c == k else "0" for c in range(len(old))]
        return old

    for layer in doc["layers"]:
        for head in layer["heads"]:
            for name in ("w_q", "w_k", "w_v", "w_o"):
                head[name] = [row(r) for r in head[name]]
            if rng.random() < 0.3:
                head["w_q"] = [["0"] * zoo.DIM for _ in range(zoo.DIM)]
        ffnn = layer["ffnn"]
        ffnn["w1"] = [row(r) for r in ffnn["w1"]]
        ffnn["w2"] = [row(r) for r in ffnn["w2"]]
        ffnn["b1"] = [zoo.dyadic(rng) for _ in ffnn["b1"]]
        ffnn["b2"] = [zoo.dyadic(rng) for _ in ffnn["b2"]]
    if no_position:
        doc["position_rule"] = {"kind": "none"}
    return doc


CASES = [
    (f"ahat-oracle:{layers}:{masking}:{no_position}:{i}", layers, masking, no_position)
    for layers in (1, 2, 3)
    for masking in ("none", "causal", "mixed")
    for no_position in (False, True)
    for i in range(3)
]


def _case(key: str, layers: int, masking: str, no_position: bool):
    """(model document, words) of one case."""
    rng = random.Random(key)
    doc = _thin(rng, zoo.random_model(rng, "average_hard", layers, masking, False), no_position)
    return doc, [zoo.random_word(rng, n) for n in (1, 3, 7)]


@pytest.mark.parametrize("key, layers, masking, no_position", CASES, ids=[c[0] for c in CASES])
def test_ahat_matches_fraction_pass(key, layers, masking, no_position):
    doc, words = _case(key, layers, masking, no_position)
    model = parse_model(zoo.to_text(doc))
    for word in words:
        value = eval_ahat(model, word)[0]
        assert Fraction(value.num, value.den) == oracles.ahat_fraction(doc, word)


def test_cases_reach_every_shortcut(monkeypatch):
    """Across the cases: single maximizers and ties, all-zero queries, and
    unmasked heads given two or more all-zero queries, which share one
    tie."""
    seen = set()
    weights, forward = evaluator.ahardmax_weights, evaluator.forward

    def recording_weights(scores):
        out = weights(scores)
        seen.add("tie" if sum(1 for a in out if a) > 1 else "unique")
        return out

    def recording_forward(model, xs, backend):
        def attend(qs, ks, vs, layer, head, causal):
            zeros = sum(1 for ints, _ in qs if not any(ints))  # (integers, denominator) pairs
            if zeros:
                seen.add("zero query")
            if zeros > 1 and not causal:
                seen.add("shared tie")
            return backend.attend(qs, ks, vs, layer, head, causal)

        return forward(model, xs, backend._replace(attend=attend))

    monkeypatch.setattr(evaluator, "ahardmax_weights", recording_weights)
    monkeypatch.setattr(evaluator, "forward", recording_forward)
    for case in CASES:
        doc, words = _case(*case)
        model = parse_model(zoo.to_text(doc))
        for word in words:
            eval_ahat(model, word)
    assert seen == {"unique", "tie", "zero query", "shared tie"}
