"""Certified-error evaluation: site tolerances, perturbation lemmas, end-to-end bounds.

The reference for end-to-end checks is the p-bit evaluator at p=200, whose
own relative error (~2^-200 per operation over a handful of operations) is
negligible against every epsilon used here.
"""

import copy
import json
import pickle
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact_xformer import (
    DomainError,
    Rat,
    eval_ahat,
    eval_budgeted,
    eval_smat_pbit,
    load_model,
    parse_model,
    plan_budget,
)
from exact_xformer.budget import (
    invsqrt_delta,
    layernorm_budgeted,
    softmax_budgeted,
    softmax_delta,
    sqrt_bounds,
)
from exact_xformer import budget, evaluator
from exact_xformer.evaluator import _compile_matrix, compile_rows
from exact_xformer.model_ir import LayerNorm
from exact_xformer.pfloat import float_to_rat

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "perfbench")]
import zoo  # noqa: E402

EPS16 = Rat(1, 1 << 16)


def _directed_model():
    """Two symbols, identity q/k/v/o, so scores are 0/1 dot products and the
    softmax weights are genuinely non-uniform."""
    ident = [["1", "0"], ["0", "1"]]
    zero2 = [["0", "0"], ["0", "0"]]
    doc = {
        "format_version": 1,
        "alphabet": ["a", "b"],
        "dim": 2,
        "token_embeddings": {"a": ["1", "0"], "b": ["0", "1"]},
        "position_rule": {"kind": "none"},
        "layers": [
            {
                "heads": [
                    {
                        "kind": "softmax",
                        "masking": "none",
                        "w_q": ident,
                        "w_k": ident,
                        "w_v": ident,
                        "w_o": ident,
                    }
                ],
                "ffnn": {
                    "activation": "relu",
                    "w1": zero2,
                    "b1": ["0", "0"],
                    "w2": zero2,
                    "b2": ["0", "0"],
                },
                "layernorm_attn": None,
                "layernorm_ffnn": None,
                "residual_attn": False,
                "residual_ffnn": True,
            }
        ],
        "output_head": {"weights": ["1", "-1"], "bias": "1/8"},
    }
    return parse_model(json.dumps(doc))


# --- site tolerances -----------------------------------------------------------


def test_softmax_delta_form():
    assert softmax_delta(Rat(1)) == Rat(1, 16)
    assert softmax_delta(Rat(1, 4)) == Rat(1, 64)
    assert softmax_delta(Rat(100)) == Rat(1, 2)  # clamp


def test_invsqrt_delta_brackets_irrational_factor():
    # at c=1 the factor is 1/(3*sqrt(2)) = 0.23570...; the implementation
    # must under-approximate it but not by much
    eps = Rat(1, 1 << 20)
    d = invsqrt_delta(Rat(1), eps)
    assert Rat(2356, 10**4) * eps < d < Rat(2358, 10**4) * eps


def test_invsqrt_delta_clamps_at_half_c():
    assert invsqrt_delta(Rat(4), Rat(1000)) == Rat(2)
    assert invsqrt_delta(Rat(1, 4), Rat(1000)) == Rat(1, 8)


def test_invsqrt_delta_validates():
    with pytest.raises(DomainError):
        invsqrt_delta(Rat(0), Rat(1))
    with pytest.raises(DomainError):
        invsqrt_delta(Rat(1), Rat(0))


@pytest.mark.parametrize("x", [Rat(2), Rat(7, 3), Rat(1, 1000), Rat(10**12)])
def test_sqrt_bounds_invariants(x):
    lo, hi = sqrt_bounds(x, 96)
    assert Rat(0) < lo <= hi
    assert lo * lo <= x <= hi * hi
    assert (hi - lo) * Rat(1 << 90) < hi  # relative width well under 2^-90


def _inf_norm_fold(mat):
    """Largest row sum of |entries|, folded one Rat addition at a time."""
    best = Rat(0)
    for row in mat:
        total = Rat(0)
        for x in row:
            total = total + abs(x)
        best = max(best, total)
    return best


_entries = st.builds(
    Rat,
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
    st.one_of(st.integers(min_value=1, max_value=1 << 80), st.sampled_from((1, 2, 3, 4, 6, 12, 1 << 40))),
)


@given(st.lists(st.lists(_entries, max_size=6), max_size=5))
@example([[Rat(0)] * 3] * 2)
@settings(max_examples=200)
def test_inf_norm_matches_rat_fold(mat):
    got, want = _compile_matrix(mat).norm, _inf_norm_fold(mat)
    assert (got.num, got.den) == (want.num, want.den)


# --- the budget plan --------------------------------------------------------------


def test_plan_budget_structure():
    m = load_model("softmax-uniform")
    b = plan_budget(m, 4, EPS16)
    assert b.epsilon == EPS16 and b.n == 4
    assert b.stage_tolerances[("output",)] == EPS16
    sm = b.site_deltas[("layer", 0, "head", 0, "softmax")]
    assert Rat(0) < sm <= softmax_delta(EPS16)


def _zoo_model(key: str, layers: int, layernorm: bool):
    return parse_model(zoo.to_text(zoo.random_model(random.Random(key), "softmax", layers, "mixed", layernorm)))


@pytest.mark.parametrize("layers, layernorm", [(1, False), (2, True)])
def test_plan_budget_same_on_fresh_filled_and_cloned_models(layers, layernorm):
    # the norms come from the compiled rows, made by a model's first plan or
    # eval and kept with it, its pickles and its deep copies
    key = f"plan-cache:{layers}:{layernorm}"
    for eps in (EPS16, Rat(1, 1 << 64)):
        fresh = _zoo_model(key, layers, layernorm)
        assert fresh.compiled is None
        want = plan_budget(fresh, 5, eps)
        filled = _zoo_model(key, layers, layernorm)
        eval_budgeted(filled, "0110", eps)
        clones = pickle.loads(pickle.dumps(filled)), copy.deepcopy(filled)
        for model in (fresh, filled, *clones):
            got = plan_budget(model, 5, eps)
            assert model.compiled is not None
            assert got.site_deltas == want.site_deltas
            assert got.stage_tolerances == want.stage_tolerances


def test_plan_budget_tightens_with_epsilon():
    m = load_model("softmax-uniform")
    loose = plan_budget(m, 4, Rat(1, 1 << 8))
    tight = plan_budget(m, 4, Rat(1, 1 << 32))
    key = ("layer", 0, "head", 0, "softmax")
    assert tight.site_deltas[key] < loose.site_deltas[key]


def _within(vec, c):
    """Every entry of the exact vector (ints, D) is at most c in magnitude."""
    ints, d = vec
    return max(map(abs, ints)) * c.den <= c.num * d


def _checking(backend, records, checks):
    """backend whose attend and layernorm first check every input vector
    against the magnitude pass's records, appending one bool per vector."""

    def attend(qs, ks, vs, layer, head, causal):
        for vecs, c in zip((qs, ks, vs), records[layer, head]):
            checks.extend(_within(vec, c) for vec in vecs)
        return backend.attend(qs, ks, vs, layer, head, causal)

    def layernorm(x, ln, layer, site):
        checks.append(_within(x, records[layer, site]))
        return backend.layernorm(x, ln, layer, site)

    return backend._replace(attend=attend, layernorm=layernorm)


def _tight_model(kind):
    """Every weight 1/2, every bias 1, every embedding (1, 1): each vector's
    entries are equal and meet the magnitude pass's bound exactly."""
    half = [["1/2", "1/2"], ["1/2", "1/2"]]
    heads = [{"kind": kind, "masking": m, "w_q": half, "w_k": half, "w_v": half, "w_o": half} for m in ("causal", "none")]
    layer = {
        "heads": heads,
        "ffnn": {"activation": "relu", "w1": half, "b1": ["1", "1"], "w2": half, "b2": ["1", "1"]},
        "layernorm_attn": None,
        "layernorm_ffnn": None,
        "residual_attn": True,
        "residual_ffnn": True,
    }
    doc = {
        "format_version": 1,
        "alphabet": ["0", "1"],
        "dim": 2,
        "token_embeddings": {"0": ["1", "1"], "1": ["1", "1"]},
        "position_rule": {"kind": "none"},
        "layers": [layer, layer],
        "output_head": {"weights": ["1", "1"], "bias": "0"},
    }
    return parse_model(json.dumps(doc))


@pytest.mark.parametrize("kind", ["softmax", "average_hard"])
def test_magnitude_bounds_cover_evaluated_vectors(kind, monkeypatch):
    # Every q, k and v vector an attend step is given, and every layernorm
    # input, lies within the bound that plan_budget's magnitude pass records
    # for it: budgeted at 2^-16 (weights nonnegative with sum exactly 1, the
    # approximate 1/sqrt within the 1.5x that _ln_bound allows) and ahat.
    # The tight model's vectors meet their bounds, so any smaller bound fails.
    records, checks = {}, []
    if kind == "softmax":
        made = budget.exact_backend
        monkeypatch.setattr(budget, "exact_backend", lambda *steps: _checking(made(*steps), records, checks))
        run, layernorms, lengths = (lambda model, w: eval_budgeted(model, w, EPS16)), (False, True), (1, 2, 4)
    else:
        monkeypatch.setattr(evaluator, "_AHAT", _checking(evaluator._AHAT, records, checks))
        run, layernorms, lengths = eval_ahat, (False,), (1, 2, 4, 8, 16)
    rng = random.Random(f"magnitudes:{kind}")
    models = [_tight_model(kind)]
    for layers in (1, 2, 3):
        for masking in ("none", "causal", "mixed"):
            for layernorm in layernorms:
                models.append(parse_model(zoo.to_text(zoo.random_model(rng, kind, layers, masking, layernorm))))
    for model in models:
        records.clear()
        records.update(budget._magnitudes(compile_rows(model)))
        for n in lengths:
            run(model, zoo.random_word(rng, n))
    assert len(checks) > 1000 and all(checks)


# --- budgeted primitives --------------------------------------------------------------


def test_softmax_budgeted_sums_to_one_exactly():
    w = softmax_budgeted([Rat(1), Rat(0)], Rat(1, 1 << 30))
    assert sum(w, Rat(0)) == Rat(1)
    assert w[0] > w[1] > Rat(0)


def test_softmax_budgeted_uniform_is_exact():
    w = softmax_budgeted([Rat(3)] * 3, Rat(1, 100))
    assert w == [Rat(1, 3)] * 3


def test_softmax_budgeted_near_true_weights():
    # scores (1, 0): true weights (e/(e+1), 1/(e+1)); sandwich e between
    # rational bounds tight to 1e-8 and allow the site delta on top
    delta = Rat(1, 1 << 20)
    w = softmax_budgeted([Rat(1), Rat(0)], delta)
    e_lo, e_hi = Rat(271828182, 10**8), Rat(271828183, 10**8)
    lo = e_lo / (e_hi + Rat(1))
    hi = e_hi / (e_lo + Rat(1))
    assert lo - Rat(17) * delta <= w[0] <= hi + Rat(17) * delta


def test_softmax_budgeted_flushes_only_terms_below_threshold():
    # delta = 2^-20 and n = 3 give T = 22: a term is flushed iff
    # 10*(s - top) <= -154, and exp(-15.4) < 2^-22 < exp(-15)
    delta = Rat(1, 1 << 20)
    kept = softmax_budgeted([Rat(0), Rat(-15), Rat(-1, 2)], delta)
    flushed = softmax_budgeted([Rat(0), Rat(-77, 5), Rat(-1, 2)], delta)
    assert kept[1] > Rat(0)
    assert flushed[1] == Rat(0)
    assert sum(flushed, Rat(0)) == Rat(1)


def test_softmax_budgeted_far_term_is_narrow_and_within_bound():
    # exp(-10^6) as a dyadic would carry a ~1.44M-bit denominator into every
    # weight; flushed, the row stays narrow and within 16*delta of the truth
    import mpmath

    delta = Rat(1, 1 << 20)
    scores = [Rat(1, 3), Rat(-10**6), Rat(-2, 7)]
    w = softmax_budgeted(scores, delta)
    assert max(x.den.bit_length() for x in w) < 200
    with mpmath.workprec(256):
        ex = [mpmath.exp(mpmath.mpf(s.num) / s.den) for s in scores]
        for wi, ei in zip(w, ex):
            assert abs(mpmath.mpf(wi.num) / wi.den - ei / sum(ex)) <= 16 * mpmath.mpf(delta.num) / delta.den


def test_layernorm_budgeted_tracks_exact_form():
    ln = LayerNorm(gamma=(Rat(1), Rat(1)), beta=(Rat(0), Rat(0)), c=Rat(1))
    eps = Rat(1, 1 << 24)
    delta = invsqrt_delta(Rat(1), eps)
    out = layernorm_budgeted([Rat(1), Rat(-1)], ln, delta)
    # exact result is +/- 1/sqrt(2); enclose via sqrt_bounds at high width
    lo, hi = sqrt_bounds(Rat(2), 200)
    assert Rat(1) / hi - eps <= out[0] <= Rat(1) / lo + eps
    assert out[1] == -out[0]


# --- end-to-end certificates ------------------------------------------------------------


def test_budgeted_uniform_scores_are_exact():
    m = load_model("softmax-uniform")
    assert eval_budgeted(m, "1101", EPS16) == Rat(1, 4)
    assert eval_budgeted(m, "10", EPS16) == Rat(0)


def test_budgeted_requires_softmax_heads():
    from exact_xformer import EvalModeError

    with pytest.raises(EvalModeError):
        eval_budgeted(load_model("majority"), "10", EPS16)


def test_budgeted_self_consistent_across_epsilons():
    m = _directed_model()
    coarse = eval_budgeted(m, "abba", EPS16)
    fine = eval_budgeted(m, "abba", Rat(1, 1 << 40))
    assert abs(coarse - fine) <= EPS16 + Rat(1, 1 << 39)


def test_budgeted_matches_high_precision_reference():
    m = _directed_model()
    ref = float_to_rat(eval_smat_pbit(m, "abba", 200))
    for k in (16, 64, 256):
        eps = Rat(1, 1 << k)
        got = eval_budgeted(m, "abba", eps)
        assert abs(got - ref) <= eps + Rat(1, 1 << 190)


def test_budgeted_length_one_is_exact():
    # a single position forces weight 1, so the whole pipeline is rational
    m = _directed_model()
    assert eval_budgeted(m, "a", EPS16) == Rat(1) + Rat(1, 8)
