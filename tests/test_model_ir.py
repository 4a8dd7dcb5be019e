"""Model file format: strict parsing, bit-exact round trips, position rules.

Every parse error must carry the JSON path of the offending field, and
serialize(parse(text)) must reproduce the document exactly (rationals are
stored canonically, so equality is string equality).
"""

import copy
import json
import pickle

import pytest

from exact_xformer import DomainError, ModelLoadError, Rat, eval_ahat, load_model, parse_model, serialize_model
from exact_xformer.model_ir import BUILTIN_MODELS, PositionRule, position_embedding


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


# --- field-path errors ----------------------------------------------------------


def test_rejects_wrong_format_version(doc):
    doc["format_version"] = 2
    _expect_error(doc, "format_version")


def test_rejects_unknown_top_level_field(doc):
    doc["extra"] = 1
    _expect_error(doc, "extra")


def test_rejects_unknown_nested_field(doc):
    doc["layers"][0]["heads"][0]["w_x"] = [["0"]]
    err = _expect_error(doc, "layers[0].heads[0].w_x")
    assert "unknown" in str(err)


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
    doc["param_bits"] = 4
    parse_model(json.dumps(doc))  # all entries fit in 4 bits
    doc["token_embeddings"]["1"][0] = "17"
    _expect_error(doc, "token_embeddings.1[0]")
    doc["token_embeddings"]["1"][0] = "1/17"
    _expect_error(doc, "token_embeddings.1[0]")


def test_rejects_malformed_json():
    with pytest.raises(ModelLoadError):
        parse_model("{not json")


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
