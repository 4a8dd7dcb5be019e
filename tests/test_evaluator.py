"""End-to-end evaluation in the exact and p-bit regimes.

The exact regime (averaging attention) produces rationals a hand
computation can pin; the p-bit regime is checked against those rationals
through its stated precision, plus exact special cases where every float
step happens to be lossless.
"""

import copy
import dataclasses
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from exact_xformer import (
    Decision,
    DomainError,
    EvalModeError,
    FloatRangeError,
    PFloat,
    Rat,
    eval_ahat,
    eval_budgeted,
    eval_smat_pbit,
    f_div,
    f_sqrt,
    load_model,
    margin_recognize,
    round_p,
)
from exact_xformer import budget, evaluator
from exact_xformer.evaluator import (
    _add,
    _ahat_attend,
    _bias,
    _compile_matrix,
    _exact_matmul,
    _pbit_backend,
    _relu,
    _total,
    _vector,
    ahardmax_weights,
    bit_growth_trace,
    embed_input,
    exact_backend,
    fit_loglog_slope,
    layernorm_pbit,
    softmax_pbit,
)
from exact_xformer.model_ir import FFNN, AttentionHead, Layer, Model, OutputHead, PositionRule, parse_model, serialize_model
from exact_xformer.pfloat import f_dot, float_to_rat
from exact_xformer.rational import rat_sum


@pytest.fixture(scope="module")
def majority():
    return load_model("majority")


@pytest.fixture(scope="module")
def uniform():
    return load_model("softmax-uniform")


# --- exact averaging regime --------------------------------------------------------


def test_majority_values(majority):
    assert eval_ahat(majority, "1101")[0] == Rat(1, 4)
    assert eval_ahat(majority, "100")[0] == Rat(-1, 6)
    assert eval_ahat(majority, "1")[0] == Rat(1, 2)


def test_majority_value_is_count_margin(majority):
    for w in ("10110", "0001", "111", "01"):
        k, n = w.count("1"), len(w)
        assert eval_ahat(majority, w)[0] == Rat(2 * k - n, 2 * n)


def test_margin_recognize(uniform):
    assert margin_recognize(uniform, "10", Rat(1, 8)) is Decision.BELOW_MARGIN
    assert margin_recognize(uniform, "110", Rat(1, 64)) is Decision.ACCEPT
    assert margin_recognize(uniform, "001", Rat(1, 64)) is Decision.REJECT


def test_embed_input_validates(majority):
    with pytest.raises(DomainError):
        embed_input(majority, "10x")
    with pytest.raises(DomainError):
        embed_input(majority, "")


# --- attention primitives ------------------------------------------------------------


def test_ahardmax_uniform_over_argmax_set():
    w = ahardmax_weights([Rat(1), Rat(2), Rat(2)])
    assert w == [Rat(0), Rat(1, 2), Rat(1, 2)]


def test_ahardmax_invariances():
    base = [Rat(1), Rat(5), Rat(5), Rat(-2)]
    shifted = [s + Rat(7, 3) for s in base]
    scaled = [s * Rat(3, 2) for s in base]
    assert ahardmax_weights(base) == ahardmax_weights(shifted)
    assert ahardmax_weights(base) == ahardmax_weights(scaled)
    with pytest.raises(DomainError):
        ahardmax_weights([])


# Shared small-prime factors make the products' denominators overlap, so the
# lcm is smaller than their product and the one final reduction has work to do.
smooth = st.lists(st.sampled_from((2, 3, 5, 7)), max_size=8).map(math.prod)
rats = st.builds(
    Rat,
    st.one_of(st.just(0), st.builds(operator.mul, st.integers(-99, 99), smooth), st.integers(-(1 << 2000), 1 << 2000)),
    st.one_of(smooth, st.builds(operator.mul, st.integers(1, 1 << 2000), smooth)),
)


def _frac(r: Rat) -> Fraction:
    return Fraction(r.num, r.den)


def _fracs(vec: tuple) -> list[Fraction]:
    """The entries of a vector in the exact (integers, denominator) form,
    which must be reduced: its denominator the lcm of the canonical ones."""
    ints, d = vec
    out = [Fraction(x, d) for x in ints]
    assert isinstance(ints, tuple) and d >= 1 and d == math.lcm(*[f.denominator for f in out])
    return out


def _fraction_dot(u, v, bias=None) -> Fraction:
    """The exact rational dot product (plus bias), in Fractions."""
    out = sum((_frac(a) * _frac(b) for a, b in zip(u, v)), Fraction(0))
    return out if bias is None else out + _frac(bias)


_ZEROS, _U = [Rat(0)] * 3, [Rat(1, 6), Rat(-5, 4), Rat(7, 10)]


# The examples are zero and empty vectors, with and without a bias, and
# nonzero products that cancel: 1/6*3/2 - 5/4*1/5 = 0.
@example(list(zip(_ZEROS, _U)), None, -1)
@example(list(zip(_U, _ZEROS)), Rat(0), -1)
@example(list(zip(_ZEROS, _ZEROS)), Rat(-3, 8), -1)
@example([], None, -1)
@example([], Rat(5, 6), -1)
@example([(Rat(1, 6), Rat(3, 2)), (Rat(0), Rat(9)), (Rat(-5, 4), Rat(1, 5))], None, -1)
@given(st.lists(st.tuples(rats, rats), min_size=1, max_size=8), st.one_of(st.none(), rats), st.integers(-1, 7))
def test_matvec_matches_rat_dot(pairs, bias, unit):
    # unit >= 0 makes u the unit vector e_(unit mod len), the shortcut row
    u, v = [a for a, _ in pairs], [b for _, b in pairs]
    if unit >= 0:
        u = [Rat(int(k == unit % len(u))) for k in range(len(u))]
    [got] = _exact_matmul(_compile_matrix([u]), [_vector(v)], None if bias is None else _bias([bias]))
    assert _fracs(got) == [_fraction_dot(u, v, bias)]


def test_matvec_zero_and_unit_rows():
    v = _vector([Rat(3, 4), Rat(-5, 6), Rat(0)])
    zero, unit = _compile_matrix([[Rat(0)] * 3]), _compile_matrix([[Rat(0), Rat(1), Rat(0)]])
    w = _vector([Rat(1, 9), Rat(0), Rat(2)])
    shared = _exact_matmul(zero, [v, w])
    assert shared == [((0,), 1)] * 2 and shared[0] is shared[1]
    assert _fracs(_exact_matmul(zero, [v], _bias([Rat(-7, 8)]))[0]) == [Fraction(-7, 8)]
    assert _fracs(_exact_matmul(unit, [v])[0]) == [Fraction(-5, 6)]
    assert _exact_matmul(_compile_matrix([[Rat(int(r == c)) for c in range(3)] for r in range(3)]), [v])[0] is v
    assert _fracs(_exact_matmul(unit, [v], _bias([Rat(1, 3)]))[0]) == [Fraction(-1, 2)]
    row = _compile_matrix([[Rat(1, 6), Rat(-3, 4), Rat(2)]])
    assert _fracs(_exact_matmul(row, [v])[0]) == [Fraction(1, 8) + Fraction(5, 8)]


# A weight row of dim 4: zero, unit, or drawn (with zero coordinates).
DIM = 4
_row = st.one_of(
    st.just([Rat(0)] * DIM),
    st.integers(0, DIM - 1).map(lambda k: [Rat(int(c == k)) for c in range(DIM)]),
    st.lists(st.one_of(st.just(Rat(0)), rats), min_size=DIM, max_size=DIM),
)


_IDENT = [[Rat(int(r == c)) for c in range(DIM)] for r in range(DIM)]


@given(
    st.lists(_row, min_size=1, max_size=6),
    st.lists(st.one_of(st.just(Rat(0)), rats), min_size=DIM, max_size=DIM),
    st.one_of(st.none(), st.lists(st.one_of(st.just(Rat(0)), rats), min_size=6, max_size=6)),
)
@example(_IDENT, [Rat(1, 3), Rat(0), Rat(-5, 6), Rat(7)], None)
@example(_IDENT, [Rat(1, 3), Rat(0), Rat(-5, 6), Rat(7)], [Rat(0)] * 6)
def test_matvec_matches_rat_dot_row_by_row(rows, v, biases):
    # a matrix mixing zero rows, unit rows with and without bias, and rows
    # and coordinates over unrelated denominators
    vec = _vector(v)
    [got] = _exact_matmul(_compile_matrix(rows), [vec], None if biases is None else _bias(biases[: len(rows)]))
    entries = _fracs(got)
    assert len(entries) == len(rows)
    for i, (row, out) in enumerate(zip(rows, entries)):
        assert out == _fraction_dot(row, v, None if biases is None else biases[i])
    if rows == _IDENT and (biases is None or not any(b.num for b in biases[:DIM])):
        assert got is vec


def _unit(k: int, n: int) -> list[Rat]:
    return [Rat(int(c == k)) for c in range(n)]


# A matrix (at most 4 x 4) that takes a matmul shortcut or just misses one: all
# zero, the identity, unit rows permuted, unit rows in a non-square matrix, or
# drawn rows.
_matrices = st.integers(1, 4).flatmap(
    lambda n: st.one_of(
        st.integers(1, 4).map(lambda m: [[Rat(0)] * n] * m),
        st.just([_unit(i, n) for i in range(n)]),
        st.permutations(range(n)).map(lambda ks: [_unit(k, n) for k in ks]),
        st.integers(1, 4).filter(lambda m: m != n).map(lambda m: [_unit(i % n, n) for i in range(m)]),
        st.lists(st.lists(st.one_of(st.just(Rat(0)), rats), min_size=n, max_size=n), min_size=1, max_size=4),
    )
)


@given(st.data())
def test_matmul_equals_matvec_per_vector(data):
    rows = data.draw(_matrices)
    m, n = len(rows), len(rows[0])
    vecs = data.draw(st.lists(st.lists(st.one_of(st.just(Rat(0)), rats), min_size=n, max_size=n), min_size=1, max_size=4))
    drawn = st.lists(st.one_of(st.just(Rat(0)), rats), min_size=m, max_size=m)
    biases = data.draw(st.one_of(st.none(), st.just([Rat(0)] * m), drawn))
    compiled = _compile_matrix(rows)
    forms, bias = [_vector(v) for v in vecs], None if biases is None else _bias(biases)
    got = _exact_matmul(compiled, forms, bias)
    assert got == [_exact_matmul(compiled, [v], bias)[0] for v in forms]
    for out, v in zip(got, vecs):
        assert _fracs(out) == [_fraction_dot(row, v, None if biases is None else biases[i]) for i, row in enumerate(rows)]
    if compiled.identity and bias is None:
        assert all(out is v for out, v in zip(got, forms))
    if compiled.zero and bias is None:
        assert all(out is got[0] for out in got)


def test_compiled_flags_and_matmul_shortcuts():
    ident = [_unit(i, 3) for i in range(3)]
    zero = _compile_matrix([[Rat(0)] * 3] * 2)
    assert zero.zero and not zero.identity
    assert _compile_matrix(ident).identity and not _compile_matrix(ident).zero
    for rows in (ident[::-1], ident[:2], ident + [_unit(0, 3)], [_unit(0, 1)] * 2):
        assert not _compile_matrix(rows).identity
    assert _compile_matrix([[Rat(1, 2), Rat(0)], [Rat(0), Rat(1, 3)]]).den == 6
    vecs = [_vector([Rat(1, 2), Rat(-3), Rat(0)]), _vector([Rat(5, 7), Rat(0), Rat(1)])]
    out = _exact_matmul(_compile_matrix(ident), vecs)
    assert out[0] is vecs[0] and out[1] is vecs[1]
    assert _bias([Rat(0)] * 3) is None  # a zero bias is no bias
    assert _exact_matmul(_compile_matrix(ident), vecs, _bias([Rat(0)] * 3))[1] is vecs[1]
    biased = _exact_matmul(_compile_matrix(ident), vecs, _bias([Rat(1, 3), Rat(0), Rat(0)]))
    assert biased[0] is not vecs[0] and biased[0] == ((5, -18, 0), 6)
    zeros = _exact_matmul(zero, vecs)
    assert zeros[0] is zeros[1] and zeros[0] == ((0, 0), 1)
    assert _exact_matmul(zero, vecs, _bias([Rat(0), Rat(-1, 4)])) == [((0, -1), 4)] * 2


def test_eval_ahat_compiles_each_model_once(monkeypatch):
    model = load_model("majority")
    text, shown = serialize_model(model), repr(model)
    calls = []
    compile_matrix = evaluator._compile_matrix
    monkeypatch.setattr(evaluator, "_compile_matrix", lambda rows: calls.append(rows) or compile_matrix(rows))

    def rows_compiled():
        return sum(map(len, calls))

    assert eval_ahat(model, "0110")[0] == Rat(0)
    assert rows_compiled() == 13  # q, k, v, o, w1, w2 of dim 2, and the output head
    assert eval_ahat(model, "100")[0] == Rat(-1, 6)
    assert rows_compiled() == 13
    assert model.compiled is not None
    assert model == load_model("majority") and repr(model) == shown
    assert serialize_model(model) == text and parse_model(text) == model
    assert eval_ahat(copy.copy(model), "110")[0] == Rat(1, 6)  # a copy keeps the compile
    assert rows_compiled() == 13
    assert eval_ahat(load_model("majority"), "1")[0] == Rat(1, 2)
    assert rows_compiled() == 26  # an equal model is compiled for itself
    # budgeted mode fills and reads the same cache; its attend step
    # compiles nothing
    calls.clear()
    model = load_model("softmax-uniform")
    text, shown = serialize_model(model), repr(model)
    assert eval_budgeted(model, "110", Rat(1, 64)) == Rat(1, 6)
    assert len(calls) == 7  # q, k, v, o, w1, w2, and the output head
    compiled = model.compiled
    assert eval_budgeted(model, "0010", Rat(1, 64)) == Rat(-1, 4)
    assert len(calls) == 7 and model.compiled is compiled
    assert model == load_model("softmax-uniform") and repr(model) == shown
    assert serialize_model(model) == text and parse_model(text) == model


def test_eval_ahat_keeps_no_compile_of_a_refused_model():
    model = load_model("softmax-uniform")
    for _ in range(2):
        with pytest.raises(EvalModeError):
            eval_ahat(model, "01")
    assert model.compiled is None


def test_smat_eval_compiles_nothing():
    # smat rounds the model's own parameters; with no position rule its
    # inputs come from the token embeddings, not from compiled exact rows
    for model, word in ((load_model("softmax-uniform"), "1101"), (_letter_query_model("softmax"), "abcabbca")):
        assert model.position_rule.kind == "none"
        eval_smat_pbit(model, word, 24)
        assert model.compiled is None
    # an exact mode's compile, once made, gives the same smat value
    model = load_model("softmax-uniform")
    want = eval_smat_pbit(model, "1101", 24)
    eval_budgeted(model, "1101", Rat(1, 64))
    assert model.compiled is not None and eval_smat_pbit(model, "1101", 24) == want


def test_round_model_rounds_each_distinct_value_once(monkeypatch):
    # the result is the model with each parameter rounded by round_p; a
    # value that repeats is rounded once per call, and a second call rounds
    # again (nothing is kept between calls)
    model = load_model("softmax-uniform")
    params = []
    evaluator._map_params(model, lambda rows: [params.extend(r) for r in rows], params.extend, params.extend, params.append)
    assert len(set(params)) < len(params)
    rv = lambda vec: tuple(round_p(x, 24) for x in vec)
    want = evaluator._map_params(model, lambda rows: tuple(map(rv, rows)), rv, rv, lambda x: round_p(x, 24))
    seen = []
    monkeypatch.setattr(evaluator, "round_p", lambda x, p: seen.append(x) or round_p(x, p))
    assert evaluator.round_model(model, 24) == want
    assert sorted(seen) == sorted(set(params))
    assert evaluator.round_model(model, 24) == want and len(seen) == 2 * len(set(params))
    with pytest.raises(DomainError):
        evaluator.round_model(model, 0)


def test_a_filled_cache_skips_no_mode_check(majority):
    # each mode checks the heads before it reads the compile the other made
    uniform = load_model("softmax-uniform")
    eval_budgeted(uniform, "01", Rat(1, 64))
    assert uniform.compiled is not None
    with pytest.raises(EvalModeError):
        eval_ahat(uniform, "01")
    eval_ahat(majority, "01")
    assert majority.compiled is not None
    with pytest.raises(EvalModeError):
        eval_budgeted(majority, "01", Rat(1, 64))


# Small values over a few denominators, so scores tie often and go negative.
small = st.builds(Rat, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6)))


def _fraction_attend(q, ks, vs) -> list[Fraction]:
    """The average-hard attend step in Fractions: every score q.k, equal
    weight on the maximizers, then one weights-by-values dot per context
    coordinate."""
    scores = [_fraction_dot(q, k) for k in ks]
    top = max(scores)
    hits = [v for s, v in zip(scores, vs) if s == top]
    return [sum(map(_frac, col), Fraction(0)) / len(hits) for col in zip(*hits)]


def _pairs(vecs) -> list[list[tuple[int, int]]]:
    """Canonical (num, den) entries of exact vectors or Fraction lists."""
    fracs = (_fracs(v) if isinstance(v, tuple) else v for v in vecs)
    return [[(x.numerator, x.denominator) for x in vec] for vec in fracs]


def _forms(vecs) -> list[tuple]:
    return [_vector(v) for v in vecs]


@given(
    st.lists(small, min_size=3, max_size=3),
    st.lists(st.tuples(st.lists(small, min_size=3, max_size=3), st.lists(rats, min_size=2, max_size=2)), min_size=1, max_size=7),
)
def test_ahat_attend_matches_rat_scores(q, kvs):
    ks, vs = [k for k, _ in kvs], [v for _, v in kvs]
    got = _ahat_attend([_vector(q)] * len(ks), _forms(ks), _forms(vs), 0, 0, True)  # every causal prefix
    assert _pairs(got) == _pairs(_fraction_attend(q, ks[:i], vs[:i]) for i in range(1, len(ks) + 1))


def test_ahat_attend_ties_across_denominators():
    # the first two keys both score 1/2, from entries over 4 and over 4 and
    # 3; the third scores -1/6
    q = [Rat(2, 3), Rat(1, 2)]
    ks = [[Rat(3, 4), Rat(0)], [Rat(1, 4), Rat(2, 3)], [Rat(1, 4), Rat(-2, 3)]]
    assert [_fraction_dot(q, k) for k in ks] == [Fraction(1, 2), Fraction(1, 2), Fraction(-1, 6)]
    vs = [[Rat(1), Rat(-3, 5)], [Rat(1, 3), Rat(1, 7)], [Rat(9), Rat(9)]]
    qf, kf, vf = _vector(q), _forms(ks), _forms(vs)
    got = _ahat_attend([qf] * 3, kf, vf, 0, 0, True)
    assert _fracs(got[2]) == [Fraction(2, 3), Fraction(-8, 35)]
    assert got[0] is vf[0]  # the first prefix has one key
    assert _pairs(got) == _pairs(_fraction_attend(q, ks[:i], vs[:i]) for i in (1, 2, 3))
    assert _ahat_attend([qf], kf, vf, 0, 0, False) == [got[2]]
    # every score negative (-7/6, -17/72, -1/2): the one maximizer's values
    neg = [[Rat(-1), Rat(-1)], [Rat(-1, 6), Rat(-1, 4)], [Rat(-1, 2), Rat(-1, 3)]]
    assert _ahat_attend([qf], _forms(neg), vf, 0, 0, False)[0] is vf[1]


def _counting_totals(monkeypatch) -> list:
    """Record the vector count of every `_total` call made through the
    module (ahat's means and `_add`)."""
    calls, total = [], evaluator._total

    def counting_total(vecs, parts=1):
        calls.append(len(vecs))
        return total(vecs, parts)

    monkeypatch.setattr(evaluator, "_total", counting_total)
    return calls


_TIE_KS = [[Rat(1, 2), Rat(0)], [Rat(-1, 3), Rat(2)], [Rat(0), Rat(1, 5)]]
_TIE_VS = [[Rat(1), Rat(-3, 5)], [Rat(1, 3), Rat(1, 7)], [Rat(9), Rat(-2)]]


@pytest.mark.parametrize("k", [2, 5])
def test_unmasked_zero_queries_share_one_tie(monkeypatch, k):
    # every all-zero query of an unmasked head ties all keys: one context,
    # the mean of all values, made once and handed to each
    totals = _counting_totals(monkeypatch)
    zero = _vector([Rat(0)] * 2)
    got = _ahat_attend([zero] * k, _forms(_TIE_KS), _forms(_TIE_VS), 0, 0, False)
    assert len(got) == k and all(g is got[0] for g in got)
    assert _fracs(got[0]) == [sum(map(_frac, col), Fraction(0)) / 3 for col in zip(*_TIE_VS)]
    assert totals == [3]


def test_causal_zero_queries_take_each_prefix_mean():
    zero = _vector([Rat(0)] * 2)
    vf = _forms(_TIE_VS)
    got = _ahat_attend([zero] * 3, _forms(_TIE_KS), vf, 0, 0, True)
    assert got[0] is vf[0]  # the first prefix has one value
    assert [_fracs(g) for g in got] == [[sum(map(_frac, col), Fraction(0)) / i for col in zip(*_TIE_VS[:i])] for i in (1, 2, 3)]


def test_bit_growth_makes_one_tie_per_head(monkeypatch):
    # inverse-index's one unmasked head has an all-zero query matrix; its
    # traced pass shares one tie per evaluation, so the `_total` count does
    # not grow with n
    model = load_model("inverse-index")
    totals = _counting_totals(monkeypatch)
    bit_growth_trace(model, (4, 8))
    short = len(totals)
    bit_growth_trace(model, (128, 256))
    assert len(totals) == 2 * short


def _square_weights(scores, layer, head) -> list[Rat]:
    """A rational normalizer: weights in proportion to 1 + score^2."""
    ws = [Rat(1) + s * s for s in scores]
    total = rat_sum(ws)
    return [w / total for w in ws]


def _fraction_square_attend(q, ks, vs) -> list[Fraction]:
    ws = [1 + _fraction_dot(q, k) ** 2 for k in ks]
    return [sum((w * _frac(x) for w, x in zip(ws, col)), Fraction(0)) / sum(ws) for col in zip(*vs)]


_ZERO_Q = [Rat(0)] * 3
_query = st.one_of(st.just(_ZERO_Q), st.lists(small, min_size=3, max_size=3))
_row = st.tuples(_query, st.lists(small, min_size=3, max_size=3), st.lists(rats, min_size=2, max_size=2))


@given(st.lists(_row, min_size=1, max_size=6), st.booleans())
@example([(_ZERO_Q, [Rat(1, 2), Rat(0), Rat(-1, 3)], [Rat(1), Rat(-2, 3)])], True)  # n = 1
@example([(_ZERO_Q, [Rat(1, 2), Rat(0), Rat(-1, 3)], [Rat(1), Rat(-2, 3)])], False)
@example(  # the second and third keys tie at 1/2 over denominators 4 and 3
    [
        ([Rat(2, 3), Rat(1, 2), Rat(0)], [Rat(1, 4), Rat(0), Rat(5)], [Rat(1, 3), Rat(1)]),
        (_ZERO_Q, [Rat(3, 4), Rat(0), Rat(1, 6)], [Rat(-1, 2), Rat(2)]),
        ([Rat(2, 3), Rat(1, 2), Rat(0)], [Rat(1, 4), Rat(2, 3), Rat(-4)], [Rat(7), Rat(1, 5)]),
    ],
    False,
)
def test_attend_per_head_matches_per_prefix_reference(rows, causal):
    # each backend's attend over a whole head, against a reference that
    # attends one query at a time on the keys and values it sees
    qs, ks, vs = ([row[j] for row in rows] for j in range(3))
    seen = [i + 1 if causal else len(ks) for i in range(len(qs))]
    forms = [_forms(vecs) for vecs in (qs, ks, vs)]
    got = _ahat_attend(*forms, 0, 0, causal)
    assert _pairs(got) == _pairs(_fraction_attend(q, ks[:m], vs[:m]) for q, m in zip(qs, seen))
    got = exact_backend(_square_weights, None).attend(*forms, 0, 0, causal)
    assert _pairs(got) == _pairs(_fraction_square_attend(q, ks[:m], vs[:m]) for q, m in zip(qs, seen))
    p = 24
    qs, ks, vs = ([[round_p(x, p) for x in vec] for vec in vecs] for vecs in (qs, ks, vs))
    want = []
    for q, m in zip(qs, seen):
        alphas = softmax_pbit([f_dot(q, k, p) for k in ks[:m]], p)
        want.append([f_dot(alphas, col, p) for col in zip(*vs[:m])])
    assert _pbit_backend(p).attend(qs, ks, vs, 0, 0, causal) == want


# Vectors of width 1 to 3 (all-zero ones among them) for the vector-form
# steps; small entries over a few denominators, so sums cancel and ReLU
# leaves entries that share a factor with the denominator.
_entry = st.one_of(st.just(Rat(0)), small, rats)
_vectors = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.one_of(st.just([Rat(0)] * n), st.lists(_entry, min_size=n, max_size=n)), min_size=1, max_size=5)
)


@given(_vectors)
@example([[Rat(0)]])
@example([[Rat(1, 6), Rat(-1, 2)], [Rat(1, 3), Rat(1, 2)]])  # sums to 1/2, 0: D falls from 6 to 2
@example([[Rat(1, 2), Rat(-1, 3)]])  # ReLU gives 1/2, 0: D falls from 6 to 2
def test_vector_form_matches_fractions(vecs):
    forms = _forms(vecs)
    for v, form in zip(vecs, forms):
        assert _fracs(form) == list(map(_frac, v))  # D is the lcm; entries round-trip
        assert _fracs(_relu(form)) == [max(_frac(x), Fraction(0)) for x in v]
    assert _fracs(_total(forms)) == [sum(map(_frac, col), Fraction(0)) for col in zip(*vecs)]
    assert _fracs(_total(forms, len(vecs))) == [sum(map(_frac, col), Fraction(0)) / len(vecs) for col in zip(*vecs)]
    u, v = forms[0], forms[-1]
    assert _fracs(_add(u, v)) == [_frac(a) + _frac(b) for a, b in zip(vecs[0], vecs[-1])]
    zero = ((0,) * len(u[0]), 1)
    assert _add(u, zero) is u and _add(zero, v) is (v if any(v[0]) else zero)
    # matmul of the vectors stacked as rows, with and without biases; as a
    # matrix of zeros, and (square) as the identity
    rows = vecs[: len(u[0])] + [[Rat(0)] * len(u[0])] * (len(u[0]) - len(vecs))
    for biases in (None, [Rat(0)] * len(rows), vecs[0][: len(rows)] + [Rat(1, 5)] * (len(rows) - len(vecs[0]))):
        for matrix in (rows, [[Rat(0)] * len(u[0])] * len(rows), [_unit(i, len(rows)) for i in range(len(rows))]):
            bias = None if biases is None else _bias(biases)
            got = _exact_matmul(_compile_matrix(matrix), forms, bias)
            for out, x in zip(got, vecs):
                want = [_fraction_dot(row, x, None if biases is None else biases[i]) for i, row in enumerate(matrix)]
                assert _fracs(out) == want


@given(st.lists(rats, min_size=1, max_size=8))
def test_total_returns_reduced_vector(terms):
    # one-entry vectors, so the sum is the canonical pair
    assert _fracs(_total(_forms([[x] for x in terms]))) == [sum(map(_frac, terms), Fraction(0))]


def test_softmax_pbit_symmetric_scores_are_exact_halves():
    p = 8
    w = softmax_pbit([PFloat.zero(p), PFloat.zero(p)], p)
    assert w == [round_p(Rat(1, 2), p)] * 2


def test_softmax_pbit_monotone_in_score():
    p = 16
    zero = PFloat.zero(p)
    firsts = []
    for t in (round_p(Rat(1, 4), p), round_p(Rat(1), p), round_p(Rat(2), p)):
        firsts.append(float_to_rat(softmax_pbit([t, zero], p)[0]))
    assert firsts[0] < firsts[1] < firsts[2]
    assert all(Rat(1, 2) < f < Rat(1) for f in firsts)


# e/(1 + e) and 1/(1 + e) to 30 digits
E_OVER_1PE = Fraction("0.731058578630004879251159241822")
ONE_OVER_1PE = Fraction("0.268941421369995120748840758178")


@pytest.mark.xfail(strict=True, raises=FloatRangeError, reason="softmax_pbit exponentiates raw scores; no row-max shift")
def test_softmax_pbit_large_scores():
    # the weights depend only on the score gap, 1, but exp(2^26) is out of range at p = 24
    p = 24
    w = softmax_pbit([round_p(2**26, p), round_p(2**26 - 1, p)], p)
    for got, want in zip(w, (E_OVER_1PE, ONE_OVER_1PE)):
        assert abs(_frac(float_to_rat(got)) - want) <= want / (1 << (p - 3))


def test_layernorm_pbit_two_point_composition():
    p = 8
    one, minus = round_p(Rat(1), p), round_p(Rat(-1), p)
    out = layernorm_pbit(
        [one, minus], [one, one], [PFloat.zero(p)] * 2, one, p
    )
    expected = f_div(one, f_sqrt(round_p(Rat(2), p)))
    assert out[0] == expected
    assert out[1] == PFloat(-expected.m, expected.e, p)
    # 1/sqrt(2) = 0.70710678...; the p=8 rounding sits within one ulp
    got = float_to_rat(out[0])
    assert abs(got - Rat(70710678, 10**8)) < Rat(1, 1 << (p - 1))


# --- p-bit softmax regime --------------------------------------------------------------


def test_smat_requires_softmax_heads(majority):
    with pytest.raises(EvalModeError):
        eval_smat_pbit(majority, "1101", 16)


@pytest.mark.parametrize("p", [16, 32])
def test_smat_uniform_scores_recover_exact_margin(uniform, p):
    # all scores equal: exp values coincide, the sum and divisions are
    # lossless, and the final margin is exactly k/n - 1/2
    assert eval_smat_pbit(uniform, "1101", p) == round_p(Rat(1, 4), p)
    assert eval_smat_pbit(uniform, "1", p) == round_p(Rat(1, 2), p)
    got = float_to_rat(eval_smat_pbit(uniform, "100", p))
    assert abs(got - Rat(-1, 6)) < Rat(1, 1 << (p - 6))


# --- attend calls -------------------------------------------------------------------


def _counting_attends(monkeypatch) -> list:
    """Record (layer, head, queries, keys, causal) for every attend call of
    `forward`."""
    calls, forward = [], evaluator.forward

    def counting_forward(model, xs, backend):
        def attend(qs, ks, vs, layer, head, causal):
            calls.append((layer, head, len(qs), len(ks), causal))
            return backend.attend(qs, ks, vs, layer, head, causal)

        return forward(model, xs, backend._replace(attend=attend))

    monkeypatch.setattr(evaluator, "forward", counting_forward)
    return calls


def _letter_query_model(kind: str) -> Model:
    """One layer, a causal and an unmasked head, both with identity queries;
    no position rule, so a position's query is its letter's embedding."""
    one, zero = Rat(1), Rat(0)
    ident = tuple(tuple(one if r == c else zero for c in range(3)) for r in range(3))
    keys = ((one, Rat(1, 2), zero), (zero, one, Rat(-1)), (Rat(1, 4), zero, one))
    heads = tuple(AttentionHead(ident, keys, ident, ident, kind, masking) for masking in ("causal", "none"))
    layer = Layer(heads, FFNN(ident, (zero,) * 3, "relu", ident, (Rat(1, 2),) * 3), None, None, True, True)
    emb = {"a": (one, zero, zero), "b": (zero, Rat(1, 2), zero), "c": (zero, zero, Rat(-1))}
    return Model(("a", "b", "c"), 3, emb, PositionRule("none"), (layer,), OutputHead((one, one, one), zero))


@pytest.mark.parametrize("kind", ["average_hard", "softmax"])
def test_each_head_attends_once_on_all_its_queries(monkeypatch, kind):
    # layer 0 runs at every position, and its unmasked head gets every
    # query, repeated letters' included; the final layer, layer 1, runs at
    # the last one, where either head's one query sees every key
    calls = _counting_attends(monkeypatch)
    one = _letter_query_model(kind)
    model = dataclasses.replace(one, layers=one.layers * 2)
    word = "abcabbca"
    if kind == "average_hard":
        eval_ahat(model, word)
    else:
        eval_smat_pbit(model, word, 24)
    n = len(word)
    assert calls == [(0, 0, n, n, True), (0, 1, n, n, False), (1, 0, 1, n, False), (1, 1, 1, n, False)]


def test_majority_attends_once_per_word(monkeypatch, majority):
    calls = _counting_attends(monkeypatch)
    eval_ahat(majority, "110100101011011")
    assert calls == [(0, 0, 1, 15, False)]  # its one layer is the final one: one query


# --- traces -------------------------------------------------------------------------


def _fraction_bits(values) -> tuple[int, int]:
    """(max numerator bits, max denominator bits), at least (1, 1), of
    Fractions, which are canonical."""
    values = list(values)
    return max([1] + [abs(x.numerator).bit_length() for x in values]), max([1] + [x.denominator.bit_length() for x in values])


exact_vectors = st.tuples(st.lists(st.integers(-(1 << 80), 1 << 80), min_size=1, max_size=4), st.integers(1, 1 << 80))


@st.composite
def pfloat_vectors(draw):
    p = draw(st.integers(1, 64))
    mag = st.integers(1 << (p - 1), (1 << p) - 1)
    entry = st.one_of(st.just(PFloat.zero(p)), st.builds(lambda m, s, e: PFloat(s * m, e, p), mag, st.sampled_from((1, -1)), st.integers(-300, 300)))
    return draw(st.lists(entry, min_size=1, max_size=4))


def _exact_fractions(vec):
    ints, d = vec
    return [Fraction(x, d) for x in ints]


def _float_fractions(vec):
    return [Fraction(f.m) * Fraction(2) ** f.e for f in vec]


@given(st.lists(exact_vectors, min_size=1, max_size=3), st.lists(st.lists(exact_vectors, min_size=1, max_size=3), max_size=3))
def test_trace_widths_of_exact_vectors_match_fractions(inputs, states):
    trace = evaluator.EvalTrace(inputs, states)
    assert trace.embedding_bits == _fraction_bits(x for v in inputs for x in _exact_fractions(v))
    assert trace.layer_bits == [_fraction_bits(x for v in s for x in _exact_fractions(v)) for s in states]


@given(st.lists(pfloat_vectors(), min_size=1, max_size=3), st.lists(st.lists(pfloat_vectors(), min_size=1, max_size=3), max_size=3))
def test_trace_widths_of_pfloat_vectors_match_fractions(inputs, states):
    trace = evaluator.EvalTrace(inputs, states)
    assert trace.embedding_bits == _fraction_bits(x for v in inputs for x in _float_fractions(v))
    assert trace.layer_bits == [_fraction_bits(x for v in s for x in _float_fractions(v)) for s in states]


def test_no_width_is_computed_unless_read(monkeypatch, majority, uniform):
    def refuse(vecs):
        raise AssertionError("a width was computed")

    monkeypatch.setattr(evaluator, "_bits_of", refuse)
    assert eval_ahat(majority, "1101")[0] == Rat(1, 4)
    assert eval_smat_pbit(uniform, "1101", 24) == PFloat(8388608, -25, 24)
    assert eval_budgeted(uniform, "1101", Rat(1, 1 << 16)) == Rat(1, 4)
    traces = evaluator._eval_smat(uniform, "1101", 24)[1], budget._eval_planned(uniform, "1101", Rat(1, 1 << 16))[1]
    for trace in (eval_ahat(majority, "1101")[1], *traces):
        with pytest.raises(AssertionError, match="width"):
            trace.layer_bits


# --- matmul calls -------------------------------------------------------------------


def _counting_matmuls(monkeypatch) -> list:
    """Record (model, matmul calls) for every `forward` call, budgeted's
    two (its budget plan's magnitude pass, then its evaluation) too."""
    calls, forward = [], evaluator.forward

    def counting_forward(model, xs, backend):
        count = [0]

        def matmul(*args):
            count[0] += 1
            return backend.matmul(*args)

        out = forward(model, xs, backend._replace(matmul=matmul))
        calls.append((model, count[0]))
        return out

    monkeypatch.setattr(evaluator, "forward", counting_forward)
    monkeypatch.setattr(budget, "forward", counting_forward)
    return calls


@pytest.mark.parametrize("n", [1, 4, 15])
def test_forward_makes_one_matmul_per_weight_matrix(monkeypatch, majority, n):
    # layers x (q, k, v, o per head + w1, w2) + the output head, whatever n is
    calls = _counting_matmuls(monkeypatch)
    word = ("cab" * n)[:n]
    eval_ahat(majority, ("011" * n)[:n])
    for kind in ("average_hard", "softmax"):
        one = _letter_query_model(kind)
        two = dataclasses.replace(one, layers=one.layers * 2)
        for model in (one, two):
            if kind == "average_hard":
                eval_ahat(model, word)
            else:
                eval_smat_pbit(model, word, 24)
                budget.eval_budgeted(model, word, Rat(1, 1 << 16))
    assert len(calls) == 9
    for model, count in calls:
        assert count == sum(4 * len(layer.heads) + 2 for layer in model.layers) + 1


# --- bit growth ---------------------------------------------------------------------


def test_bit_growth_rows_shape(majority):
    rows = bit_growth_trace(majority, [4, 8, 16])
    assert [r["n"] for r in rows] == [4, 8, 16]
    for r in rows:
        assert set(r) == {"n", "embedding_bits", "layer_bits", "max_bits"}
        assert r["max_bits"] >= 1


def test_bit_growth_majority_is_flat(majority):
    rows = bit_growth_trace(majority, [4, 8, 16, 32, 64])
    slope = fit_loglog_slope(rows)
    assert abs(slope) < 0.3


def test_bit_growth_inverse_index_is_near_linear():
    rows = bit_growth_trace(load_model("inverse-index"), [4, 8, 16, 32, 64])
    assert [(r["n"], r["max_bits"]) for r in rows] == [
        (4, 6),
        (8, 12),
        (16, 24),
        (32, 53),
        (64, 93),
    ]
    assert 0.9 < fit_loglog_slope(rows) < 1.1


def test_fit_loglog_slope_needs_two_rows(majority):
    rows = bit_growth_trace(majority, [4])
    with pytest.raises(DomainError):
        fit_loglog_slope(rows)
    with pytest.raises(DomainError):  # two rows, one length: no slope
        fit_loglog_slope([{"n": 8, "max_bits": 3}, {"n": 8, "max_bits": 5}])


def _centered_slope(rows) -> Fraction:
    """sum (x - mean x)(y - mean y) / sum (x - mean x)^2, exact over the float logs."""
    xs = [Fraction(math.log2(r["n"])) for r in rows]
    ys = [Fraction(math.log2(r["max_bits"])) for r in rows]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


DEFAULT_LENGTHS = [4, 8, 16, 32, 64, 128, 256]


def test_fit_loglog_slope_is_the_exact_least_squares_slope(majority):
    flat = bit_growth_trace(majority, DEFAULT_LENGTHS)
    assert len({r["max_bits"] for r in flat}) == 1
    assert fit_loglog_slope(flat) == 0.0  # a flat fit is exactly zero
    growing = bit_growth_trace(load_model("inverse-index"), DEFAULT_LENGTHS)
    assert fit_loglog_slope(growing) == float(_centered_slope(growing)) == 0.9925024140255357
    rng = random.Random(11)
    for _ in range(200):
        rows = [{"n": rng.randint(1, 1 << 20), "max_bits": rng.randint(1, 1 << 20)} for _ in range(rng.randint(2, 9))]
        if len({r["n"] for r in rows}) > 1:
            assert fit_loglog_slope(rows) == float(_centered_slope(rows))
