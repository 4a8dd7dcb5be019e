"""The final layer runs at the last position only.

`forward` makes the final layer's keys and values at every position and
the rest at the last one, the only one the output head reads; the trace
runs that layer again at every position when its widths are first read.
These tests hold the pruned pass to a full pass, in every mode.
"""

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(BENCH)]

import zoo  # noqa: E402
from exact_xformer import Rat, budget, evaluator, parse_model, round_p  # noqa: E402
from exact_xformer.model_ir import FFNN, AttentionHead, Layer, Model, OutputHead, PositionRule  # noqa: E402


def _full_forward(model, xs, backend):
    """`forward` with every layer, the final one too, at every position."""
    states = []
    for li, layer in enumerate(model.layers):
        xs = evaluator._layer(layer, li, xs, backend, False)
        states.append(xs)
    head = model.output_head
    return backend.matmul(head.weights, [xs[-1]], head.bias)[0], states, None


def _runs(model, word: str) -> list:
    """(value, trace) of each mode the model's heads take: ahat, or smat at
    p = 24 and 53 and budgeted at 2^-16 and 2^-64."""
    if model.layers and model.layers[0].heads[0].kind == "average_hard":
        return [evaluator.eval_ahat(model, word)]
    smat = [evaluator._eval_smat(model, word, p) for p in (24, 53)]
    return smat + [budget._eval_planned(model, word, Rat(1, 1 << bits)) for bits in (16, 64)]


CASES = [
    (kind, layers, layernorm, n)
    for kind in ("average_hard", "softmax")
    for layers in (1, 2, 3)
    for layernorm in (False, True)
    for n in (1, 2, 5, 16)
    if not (kind == "average_hard" and layernorm)  # ahat forbids layernorm
    # budgeted's full pass of a 3-layer layernorm model at n = 16 takes ~30 s
    and not (layernorm and layers > 2 and n == 16)
]


@pytest.mark.parametrize("kind, layers, layernorm, n", CASES)
def test_pruned_pass_equals_full_pass(monkeypatch, kind, layers, layernorm, n):
    # mixed masking: head 0 of every layer is causal, head 1 unmasked; the
    # parameters halved, as smat-pbit's, keep p = 24's scores within f_exp's range
    rng = random.Random(f"final-layer:{kind}:{layers}:{layernorm}:{n}")
    model = parse_model(zoo.to_text(zoo.random_model(rng, kind, layers, "mixed", layernorm, 1)))
    word = zoo.random_word(rng, n)
    pruned = _runs(model, word)
    with monkeypatch.context() as patch:
        patch.setattr(evaluator, "forward", _full_forward)
        patch.setattr(budget, "forward", _full_forward)
        full = _runs(model, word)
    for (value, trace), (want, want_trace) in zip(pruned, full, strict=True):
        assert value == want
        assert len(trace.layer_bits) == layers
        assert trace.to_json_dict() == want_trace.to_json_dict()


def _prefix_mean_model(kind: str, masking: str) -> Model:
    """One layer, one head with zero queries, so every key ties and the
    context is the mean of the values a query sees.  Embeddings a = 1 and
    b = 2; the FFNN is zero and both residuals are on, so the output is the
    last position's context plus its embedding."""
    one, zero = (Rat(1),), (Rat(0),)
    head = AttentionHead((zero,), (one,), (one,), (one,), kind, masking)
    layer = Layer((head,), FFNN((zero,), zero, "relu", (zero,), zero), None, None, True, True)
    emb = {"a": one, "b": (Rat(2),)}
    return Model(("a", "b"), 1, emb, PositionRule("none"), (layer,), OutputHead(one, Rat(0)))


@pytest.mark.parametrize("word", ["ab", "abab"])
@pytest.mark.parametrize("masking", ["causal", "none"])
def test_last_query_of_a_causal_head_sees_every_key(word, masking):
    # the mean of the values is 3/2, plus b's 2: 7/2.  A last query that saw
    # key 0 alone would give a's 1 plus 2, that is 3.
    ahat = evaluator.eval_ahat(_prefix_mean_model("average_hard", masking), word)[0]
    softmax = _prefix_mean_model("softmax", masking)
    smat = evaluator.eval_smat_pbit(softmax, word, 24)
    assert ahat == Rat(7, 2)
    assert smat == round_p(Rat(7, 2), 24)
    assert budget.eval_budgeted(softmax, word, Rat(1, 1 << 16)) == Rat(7, 2)


def _counting_forward(calls: list):
    """`forward` that records ("attend", layer, head, queries, keys, causal)
    for every attend call, and (name, vectors) for every matmul on a weight
    matrix of the model's final layer, named as in the model."""
    forward = evaluator.forward

    def counting(model, xs, backend):
        final = model.layers[-1]
        names = {id(getattr(h, w)): f"{w}[{hi}]" for hi, h in enumerate(final.heads) for w in ("w_q", "w_k", "w_v", "w_o")}
        names.update({id(final.ffnn.w1): "w1", id(final.ffnn.w2): "w2"})

        def attend(qs, ks, vs, layer, head, causal):
            calls.append(("attend", layer, head, len(qs), len(ks), causal))
            return backend.attend(qs, ks, vs, layer, head, causal)

        def matmul(rows, vecs, biases=None):
            if id(rows) in names:
                calls.append((names[id(rows)], len(vecs)))
            return backend.matmul(rows, vecs, biases)

        return forward(model, xs, backend._replace(attend=attend, matmul=matmul))

    return counting


@pytest.mark.parametrize("kind", ["average_hard", "softmax"])
@pytest.mark.parametrize("layers", [1, 2])
def test_final_layer_runs_one_query(monkeypatch, kind, layers):
    rng = random.Random(f"final-layer-count:{kind}:{layers}")
    model = parse_model(zoo.to_text(zoo.random_model(rng, kind, layers, "mixed", False)))
    word = zoo.random_word(rng, 7)
    calls: list = []
    counting = _counting_forward(calls)
    monkeypatch.setattr(evaluator, "forward", counting)
    monkeypatch.setattr(budget, "forward", counting)
    runs = [lambda: evaluator.eval_ahat(model, word)]
    if kind == "softmax":
        runs = [lambda: evaluator.eval_smat_pbit(model, word, 24), lambda: budget.eval_budgeted(model, word, Rat(1, 1 << 16))]
    last = layers - 1
    heads = range(len(model.layers[-1].heads))

    def final_layer(n):
        per_head = [((f"w_q[{h}]", 1), (f"w_k[{h}]", n), (f"w_v[{h}]", n), ("attend", last, h, 1, n, False), (f"w_o[{h}]", 1)) for h in heads]
        return [c for head_calls in per_head for c in head_calls] + [("w1", 1), ("w2", 1)]

    for run in runs:
        calls.clear()
        run()
        # budgeted's plan first runs `forward` on one position's magnitude bound
        want = final_layer(1) + final_layer(7) if run is runs[-1] and kind == "softmax" else final_layer(7)
        assert [c for c in calls if c[0] != "attend" or c[1] == last] == want
