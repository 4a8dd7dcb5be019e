"""Model file format: strict parsing, bit-exact round trips, position rules.

Every parse error must carry the JSON path of the offending field, and
serialize(parse(text)) must reproduce the document exactly (rationals are
stored canonically, so equality is string equality).
"""

import copy
import hashlib
import json
import pickle
import random

import pytest

from exact_xformer import (
    DomainError,
    ModelLoadError,
    Rat,
    eval_ahat,
    eval_budgeted,
    eval_smat_pbit,
    load_model,
    parse_model,
    serialize_model,
)
from exact_xformer.model_ir import (
    BUILTIN_MODELS,
    FFNN,
    AttentionHead,
    Layer,
    LayerNorm,
    Model,
    OutputHead,
    PositionRule,
    position_embedding,
)


@pytest.fixture()
def doc():
    return json.loads(serialize_model(load_model("softmax-uniform")))


def _expect_error(doc, path_prefix):
    with pytest.raises(ModelLoadError) as exc_info:
        parse_model(json.dumps(doc))
    assert str(exc_info.value).startswith(path_prefix)
    return exc_info.value


# --- round trips -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
def test_builtin_round_trip(name):
    text = serialize_model(load_model(name))
    assert serialize_model(parse_model(text)) == text


# A corpus over every part of the format: each position kind, layernorm on
# and off, param_bits set and unset, both activations, causal and unmasked
# heads with two heads in one layer.  Parameters are seeded draws from a few
# small rationals, so every entry fits in 4 bits.
_RATS = tuple(Rat.from_string(t) for t in ("0", "1", "-1", "1/2", "-3/4", "2/3", "5", "-7/8", "1/3"))


def _corpus_model(seed, dim, rule, layers, param_bits=None):
    """`layers` lists (head (kind, masking) pairs, activation, hidden, ln_attn, ln_ffnn)."""
    rng = random.Random(seed)

    def vec(n):
        return tuple(rng.choice(_RATS) for _ in range(n))

    def mat(rows, cols):
        return tuple(vec(cols) for _ in range(rows))

    def ln(on):
        return LayerNorm(vec(dim), vec(dim), rng.choice((Rat(1, 4), Rat(1), Rat(2, 3)))) if on else None

    built = []
    for i, (heads, activation, hidden, ln_attn, ln_ffnn) in enumerate(layers):
        hs = tuple(AttentionHead(mat(dim, dim), mat(dim, dim), mat(dim, dim), mat(dim, dim), k, m) for k, m in heads)
        ffnn = FFNN(mat(hidden, dim), vec(hidden), activation, mat(dim, hidden), vec(dim))
        built.append(Layer(hs, ffnn, ln(ln_attn), ln(ln_ffnn), residual_attn=i % 2 == 0, residual_ffnn=True))
    alphabet = ("a", "b", "c")
    emb = {s: vec(dim) for s in alphabet}
    return Model(alphabet, dim, emb, rule, tuple(built), OutputHead(vec(dim), rng.choice(_RATS)), param_bits)


_AH, _SM = "average_hard", "softmax"
CORPUS = {
    "scaled-ln-bits": _corpus_model(
        1, 3, PositionRule("scaled_index", coordinate=2), [(((_AH, "causal"), (_AH, "none")), "relu", 2, True, True)], 4
    ),
    "table-bits": _corpus_model(
        2,
        2,
        PositionRule("table", n_max=3, vectors=((Rat(1), Rat(-1, 2)), (Rat(0), Rat(2, 3)), (Rat(5), Rat(0)))),
        [(((_SM, "causal"), (_SM, "none")), "identity", 3, True, False)],
        4,
    ),
    "inverse-2layer": _corpus_model(
        3,
        2,
        PositionRule("inverse_index", coordinate=0),
        [(((_AH, "none"),), "relu", 1, False, False), (((_AH, "causal"), (_AH, "causal")), "identity", 2, False, False)],
    ),
    "none-softmax-ln": _corpus_model(
        4, 2, PositionRule("none"), [(((_SM, "none"),), "identity", 2, False, True), (((_SM, "causal"),), "relu", 3, True, False)]
    ),
}
CORPUS_SHA256 = "5b3f6fc4d8e1f9f7353782440affed9ecc661c332e6a24babda04cc1b44ebd89"


def test_corpus_bytes_pinned():
    models = [BUILTIN_MODELS[name]() for name in sorted(BUILTIN_MODELS)] + [CORPUS[name] for name in sorted(CORPUS)]
    text = "\n".join(serialize_model(m) for m in models)
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_SHA256


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_round_trip(name):
    text = serialize_model(CORPUS[name])
    assert parse_model(text) == CORPUS[name]
    assert serialize_model(parse_model(text)) == text


def _parts(doc):
    """(path, object) for every object of a model document but the embeddings."""
    yield "", doc
    yield "position_rule", doc["position_rule"]
    yield "output_head", doc["output_head"]
    for i, layer in enumerate(doc["layers"]):
        yield f"layers[{i}]", layer
        yield f"layers[{i}].ffnn", layer["ffnn"]
        for j, head in enumerate(layer["heads"]):
            yield f"layers[{i}].heads[{j}]", head
        for ln in ("layernorm_attn", "layernorm_ffnn"):
            if layer[ln] is not None:
                yield f"layers[{i}].{ln}", layer[ln]


def _load_error(doc) -> str:
    with pytest.raises(ModelLoadError) as exc_info:
        parse_model(json.dumps(doc))
    return str(exc_info.value)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_missing_and_unknown_keys(name):
    doc = json.loads(serialize_model(CORPUS[name]))
    for path, node in _parts(doc):
        prefix = f"{path}: " if path else ""
        for key in list(node):
            value = node.pop(key)
            if path == "" and key == "param_bits":
                assert parse_model(json.dumps(doc)).param_bits is None
            elif path == "position_rule" and key == "kind":
                assert _load_error(doc) == "position_rule: expected an object with a 'kind' field"
            else:
                assert _load_error(doc) == f"{prefix}missing field {key!r}"
            node[key] = value
        node["extra"] = "0"
        assert _load_error(doc) == (f"{path}.extra" if path else "extra") + ": unknown field"
        del node["extra"]
    assert serialize_model(parse_model(json.dumps(doc))) == serialize_model(CORPUS[name])


def test_missing_field_names_its_part():
    doc = json.loads(serialize_model(CORPUS["scaled-ln-bits"]))
    del doc["layers"][0]["ffnn"]["b1"]
    assert _load_error(doc) == "layers[0].ffnn: missing field 'b1'"


def test_model_survives_pickle_and_deepcopy():
    model = load_model("majority")
    for clone in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert clone == model
        assert serialize_model(clone) == serialize_model(model)
    # with its compiled rows filled: the clone keeps them, flags and the
    # norms already worked out included
    assert eval_ahat(model, "0111")[0] == Rat(1, 4)
    head = model.compiled.layers[0].heads[0]
    assert [w.norm for w in (head.w_q, head.w_v)] == [Rat(0), Rat(1)]
    for clone in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert clone == model and clone.compiled is not None
        head = clone.compiled.layers[0].heads[0]
        mats = (head.w_q, head.w_k, head.w_v, head.w_o)
        assert [(w.zero, w.identity) for w in mats] == [(True, False)] * 2 + [(False, True)] * 2
        assert [vars(w).get("norm") for w in mats] == [Rat(0), None, Rat(1), None]
        assert [w.norm for w in mats] == [Rat(0), Rat(0), Rat(1), Rat(1)]
        assert eval_ahat(clone, "0111")[0] == Rat(1, 4)


def test_load_model_from_path(tmp_path):
    text = serialize_model(load_model("majority"))
    f = tmp_path / "m.json"
    f.write_text(text)
    assert serialize_model(load_model(str(f))) == text


def test_load_model_unknown_builtin():
    with pytest.raises(ModelLoadError):
        load_model("no-such-model")


def _get(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def _set(doc, keys, value):
    _get(doc, keys[:-1])[keys[-1]] = value


# --- field-path errors ----------------------------------------------------------


def test_rejects_wrong_format_version(doc):
    # True and 1.0 compare equal to 1, but only the int 1 is version 1
    for version in (2, True, 1.0, "1"):
        doc["format_version"] = version
        err = _expect_error(doc, "format_version")
        assert str(err) == f"format_version: unsupported version {version!r}"


def test_rejects_unknown_top_level_field(doc):
    doc["extra"] = 1
    _expect_error(doc, "extra")


def test_rejects_unknown_nested_field(doc):
    doc["layers"][0]["heads"][0]["w_x"] = [["0"]]
    err = _expect_error(doc, "layers[0].heads[0].w_x")
    assert "unknown" in str(err)


@pytest.mark.parametrize(
    "path, key, value, matrix",
    [
        ("layers[0].heads[0]", "kind", "bogus", "w_q"),
        ("layers[0].heads[0]", "masking", "left", "w_q"),
        ("layers[0].ffnn", "activation", "tanh", "w1"),
    ],
)
def test_unknown_choice_is_reported_before_the_matrices(doc, path, key, value, matrix):
    # with a bad matrix beside it, the bad choice is still the error reported
    node = doc["layers"][0]["heads"][0] if "heads" in path else doc["layers"][0]["ffnn"]
    node[key] = value
    node[matrix][0][0] = "x"
    err = _expect_error(doc, f"{path}.{key}")
    assert str(err) == f"{path}.{key}: unknown {key} {value!r}"


def test_rejects_noncanonical_rational(doc):
    doc["token_embeddings"]["0"][0] = "2/4"
    err = _expect_error(doc, "token_embeddings.0[0]")
    assert "non-canonical" in str(err)


def test_rejects_zero_denominator(doc):
    doc["token_embeddings"]["0"][0] = "1/0"
    _expect_error(doc, "token_embeddings.0[0]")


@pytest.mark.parametrize("alphabet", [["0", "0"], ["ab", "c"], [], ["0", 1]])
def test_rejects_bad_alphabet(doc, alphabet):
    doc["alphabet"] = alphabet
    _expect_error(doc, "alphabet")


def test_rejects_embedding_key_mismatch(doc):
    doc["token_embeddings"]["x"] = ["0", "0"]
    _expect_error(doc, "token_embeddings")
    del doc["token_embeddings"]["x"]
    del doc["token_embeddings"]["0"]
    _expect_error(doc, "token_embeddings")


@pytest.mark.parametrize("bad", [0, -3, True, "8"])
def test_rejects_bad_param_bits(doc, bad):
    doc["param_bits"] = bad
    _expect_error(doc, "param_bits")


def test_param_bits_bounds_every_parameter(doc):
    # at 4 bits: numerators in [-16, 16), denominators below 16
    doc["param_bits"] = 4
    parse_model(json.dumps(doc))  # all entries fit in 4 bits
    for keys in (("token_embeddings", "1", 0), ("layers", 0, "heads", 0, "w_q", 1, 0), ("output_head", "bias")):
        old = _get(doc, keys)
        for text in ("-16", "15", "1/15", "-15/14"):
            _set(doc, keys, text)
            assert parse_model(json.dumps(doc)).param_bits == 4
        path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")
        for text in ("-17", "16", "17", "1/16", "-1/17"):
            _set(doc, keys, text)
            assert _load_error(doc) == f"{path}: rational exceeds the 4-bit parameter range"
        _set(doc, keys, old)


def test_huge_param_bits_parses_at_once(doc):
    # the bound is checked by bit length: 2^(2^64) is never built
    doc["param_bits"] = 2**64
    text = json.dumps(doc, indent=2, sort_keys=True)
    model = parse_model(text)
    assert model.param_bits == 2**64
    assert serialize_model(model) == text


def test_rejects_malformed_json():
    with pytest.raises(ModelLoadError):
        parse_model("{not json")


# --- one check per distinct literal ---------------------------------------------


def test_literals_are_checked_again_in_each_document(doc):
    doc["token_embeddings"]["1"][0] = "16"
    parse_model(json.dumps(doc))
    doc["param_bits"] = 4
    assert _load_error(doc) == "token_embeddings.1[0]: rational exceeds the 4-bit parameter range"


def test_seen_literal_keeps_layernorm_floor_check():
    doc = json.loads(serialize_model(CORPUS["scaled-ln-bits"]))
    for text in ("0", "-7/8"):
        assert text in _literals(doc["token_embeddings"])  # already seen as a weight
        doc["layers"][0]["layernorm_attn"]["c"] = text
        assert _load_error(doc) == "layers[0].layernorm_attn.c: variance floor must be strictly positive"


def test_bad_literal_after_repeats_fails_at_its_index(doc):
    for node in doc["layers"][0]["heads"][0].values():
        if isinstance(node, list):
            for row in node:
                row[:] = ["1/2"] * len(row)
    doc["layers"][0]["heads"][0]["w_v"][1][1] = "2/4"
    assert _load_error(doc) == "layers[0].heads[0].w_v[1][1]: non-canonical rational '2/4'"


@pytest.mark.parametrize("entry", [1, [], None, {}, True, 0.5])
def test_non_string_among_repeats_fails_at_its_path(entry):
    doc = json.loads(serialize_model(CORPUS["table-bits"]))
    ffnn = doc["layers"][0]["ffnn"]
    ffnn["b1"] = ["1/2", "1/2", entry]
    assert _load_error(doc) == "layers[0].ffnn.b1[2]: rationals must be strings"
    ffnn["b1"] = ["1/2", entry, "1/2"]
    assert _load_error(doc) == "layers[0].ffnn.b1[1]: rationals must be strings"


def test_first_out_of_range_occurrence_is_reported(doc):
    doc["param_bits"] = 4
    _set(doc, ("token_embeddings", "1", 1), "17")
    _set(doc, ("layers", 0, "heads", 0, "w_k", 0, 0), "17")
    assert _load_error(doc) == "token_embeddings.1[1]: rational exceeds the 4-bit parameter range"
    _set(doc, ("token_embeddings", "1", 1), "0")
    assert _load_error(doc) == "layers[0].heads[0].w_k[0][0]: rational exceeds the 4-bit parameter range"


def _map_literals(node, f, key=None):
    """Replace every rational literal of a model document by f(literal)."""
    if isinstance(node, dict):
        return {k: _map_literals(v, f, k) for k, v in node.items()}
    if isinstance(node, list):
        return node if key == "alphabet" else [_map_literals(v, f, key) for v in node]
    if isinstance(node, str) and key not in ("kind", "masking", "activation"):
        return f(node)
    return node


def _literals(doc) -> list[str]:
    found = []
    _map_literals(doc, found.append)
    return found


# Outputs of the two extremes, the same as when every literal was parsed on its own.
_DISTINCT_AHAT = (
    "35751716447913146163687798358412061386691373/28182409280372598939569512247397580800000",
    "585643208240067386462948911430878205658863/461443110139505688161319236479795200000",
)
_EXTREMES = {
    # every literal distinct: k/(k+1) for the k-th
    "distinct": (_DISTINCT_AHAT, ((11348042, -19), (11348041, -19)), ("1418505/65536",) * 2),
    # one literal fills every numeric field
    "one": (("33/2", "33/2"), ((12582912, -22),) * 2, ("3", "3")),
}


@pytest.mark.parametrize("extreme", sorted(_EXTREMES))
def test_memo_extremes_round_trip_and_evaluate(extreme):
    ahat, smat, budgeted = _EXTREMES[extreme]
    for name in ("inverse-2layer", "none-softmax-ln"):
        ks = iter(range(1, 1000))
        relabel = (lambda _: str(Rat(k := next(ks), k + 1))) if extreme == "distinct" else (lambda _: "1/2")
        doc = _map_literals(json.loads(serialize_model(CORPUS[name])), relabel)
        literals = _literals(doc)
        assert len(set(literals)) == (len(literals) if extreme == "distinct" else 1)
        text = json.dumps(doc, indent=2, sort_keys=True)
        model = parse_model(text)
        assert serialize_model(model) == text
        for i, w in enumerate(("a", "cbbacab")):
            if name == "inverse-2layer":
                assert str(eval_ahat(model, w)[0]) == ahat[i]
            else:
                out = eval_smat_pbit(model, w, 24)
                assert (out.m, out.e, out.p) == (*smat[i], 24)
                assert str(eval_budgeted(model, w, Rat(1, 2**16))) == budgeted[i]


# --- position rules -----------------------------------------------------------------


def test_position_none_is_zero_vector():
    rule = PositionRule(kind="none", coordinate=0, n_max=0, vectors=None)
    assert position_embedding(rule, 3, 5, 2) == (Rat(0), Rat(0))


def test_position_scaled_index():
    rule = PositionRule(kind="scaled_index", coordinate=1, n_max=0, vectors=None)
    assert position_embedding(rule, 2, 8, 3) == (Rat(0), Rat(1, 4), Rat(0))


def test_position_inverse_index():
    rule = PositionRule(kind="inverse_index", coordinate=0, n_max=0, vectors=None)
    assert position_embedding(rule, 3, 9, 2) == (Rat(1, 3), Rat(0))
    assert position_embedding(rule, 1, 9, 2) == (Rat(1), Rat(0))


def test_position_is_one_based():
    rule = PositionRule(kind="scaled_index", coordinate=0, n_max=0, vectors=None)
    with pytest.raises(DomainError):
        position_embedding(rule, 0, 4, 1)
    with pytest.raises(DomainError):
        position_embedding(rule, 5, 4, 1)


def test_position_table_respects_n_max():
    vecs = ((Rat(1),), (Rat(2),))
    rule = PositionRule(kind="table", coordinate=0, n_max=2, vectors=vecs)
    assert position_embedding(rule, 2, 2, 1) == (Rat(2),)
    with pytest.raises(DomainError):
        position_embedding(rule, 1, 3, 1)


def test_builtin_inverse_index_uses_rule():
    m = load_model("inverse-index")
    assert m.position_rule.kind == "inverse_index"
    v = position_embedding(m.position_rule, 2, 8, m.dim)
    assert v[m.position_rule.coordinate] == Rat(1, 2)
