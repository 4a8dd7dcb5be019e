"""Transformer encoder description: typed IR, strict JSON form, fixtures.

Every numeric parameter is an exact rational, serialized as a canonical
string ("a", or "a/b" with b >= 2 and gcd 1).  Loading is strict: unknown
fields, malformed or non-canonical rationals, shape mismatches, and a
nonpositive layernorm floor are all rejected with the offending field path.
An optional "param_bits" field restricts every parameter to numerator in
[-2^bits, 2^bits) and denominator in [1, 2^bits), checked by bit length, so
a huge bits value costs nothing.  Each distinct literal string is checked
once per document: its later occurrences share the first one's Rat, and a
literal that fails is reported at its first occurrence.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, Optional

from .errors import DomainError, ModelLoadError
from .rational import RAT_ZERO, Rat

Vector = tuple[Rat, ...]
Matrix = tuple[Vector, ...]

HEAD_KINDS = ("average_hard", "softmax")
MASKINGS = ("none", "causal")
ACTIVATIONS = ("relu", "identity")
_POSITION_KEYS = {
    "none": ("kind",),
    "scaled_index": ("kind", "coordinate"),
    "inverse_index": ("kind", "coordinate"),
    "table": ("kind", "n_max", "vectors"),
}
POSITION_KINDS = tuple(_POSITION_KEYS)
FORMAT_VERSION = 1


@dataclass(frozen=True)
class AttentionHead:
    w_q: Matrix
    w_k: Matrix
    w_v: Matrix
    w_o: Matrix
    kind: str
    masking: str


@dataclass(frozen=True)
class FFNN:
    w1: Matrix
    b1: Vector
    activation: str
    w2: Matrix
    b2: Vector


@dataclass(frozen=True)
class LayerNorm:
    gamma: Vector
    beta: Vector
    c: Rat  # strictly positive variance floor


@dataclass(frozen=True)
class Layer:
    heads: tuple[AttentionHead, ...]
    ffnn: FFNN
    layernorm_attn: Optional[LayerNorm]
    layernorm_ffnn: Optional[LayerNorm]
    residual_attn: bool
    residual_ffnn: bool


@dataclass(frozen=True)
class PositionRule:
    kind: str
    coordinate: int = 0
    n_max: int = 0
    vectors: Optional[tuple[Vector, ...]] = None


@dataclass(frozen=True)
class OutputHead:
    weights: Vector
    bias: Rat


@dataclass(frozen=True)
class Model:
    alphabet: tuple[str, ...]
    dim: int
    token_embeddings: dict[str, Vector]
    position_rule: PositionRule
    layers: tuple[Layer, ...]
    output_head: OutputHead
    param_bits: Optional[int] = None
    # Not a parameter: the compiled form of this model that both exact modes
    # run on (evaluator.compile_rows: weight matrices over one denominator
    # each, biases and token embeddings as integer vectors), kept on its
    # first exact evaluation; it takes no part in ==, repr or serialization.
    compiled: Optional["Model"] = field(default=None, init=False, compare=False, repr=False)


# The JSON keys of each part are its dataclass's init fields, for the parser
# and the writer alike; the document adds format_version, and param_bits is
# optional.  A position rule's keys are those of its kind.
_KEYS = {
    cls: tuple(f.name for f in fields(cls) if f.init)
    for cls in (AttentionHead, FFNN, LayerNorm, Layer, OutputHead, Model)
}
_MODEL_KEYS = ("format_version",) + tuple(k for k in _KEYS[Model] if k != "param_bits")


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------


def _check_keys(node, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    if not isinstance(node, dict):
        raise ModelLoadError(path, f"expected an object, got {type(node).__name__}")
    for key in node:
        if key not in required and key not in optional:
            raise ModelLoadError(f"{path}.{key}" if path else key, "unknown field")
    for key in required:
        if key not in node:
            raise ModelLoadError(path, f"missing field {key!r}")


def _choice(node: dict, key: str, choices: tuple[str, ...], path: str) -> str:
    """node[key], which must be one of `choices`."""
    value = node[key]
    if value not in choices:
        raise ModelLoadError(f"{path}.{key}", f"unknown {key} {value!r}")
    return value


class _Loader:
    def __init__(self, param_bits: Optional[int]):
        self.param_bits = param_bits
        # Every literal that has passed rat() in this document.  param_bits
        # is fixed per document, so a literal that passes once passes
        # everywhere, and a Rat is immutable, so one object serves each use.
        self.seen: dict[str, Rat] = {}

    def rat(self, node, path: str) -> Rat:
        if not isinstance(node, str):
            raise ModelLoadError(path, "rationals must be strings")
        try:
            value = Rat.from_string(node)
        except DomainError as exc:
            raise ModelLoadError(path, str(exc)) from None
        if str(value) != node:
            raise ModelLoadError(path, f"non-canonical rational {node!r}")
        bits = self.param_bits
        if bits is not None:
            # -2^bits <= num < 2^bits and den < 2^bits, by bit length: ~num
            # is -num - 1, and 2^bits itself is never built
            num = value.num
            if (num if num >= 0 else ~num).bit_length() > bits or value.den.bit_length() > bits:
                raise ModelLoadError(path, f"rational exceeds the {bits}-bit parameter range")
        self.seen[node] = value
        return value

    def vector(self, node, path: str, dim: int) -> Vector:
        if not isinstance(node, list) or len(node) != dim:
            raise ModelLoadError(path, f"expected a list of {dim} rationals")
        seen = self.seen
        out = []
        for i, v in enumerate(node):
            # a non-string, unhashable or not, never reaches the dict; a miss
            # goes through rat() with its own path
            value = seen.get(v) if isinstance(v, str) else None
            out.append(value if value is not None else self.rat(v, f"{path}[{i}]"))
        return tuple(out)

    def matrix(self, node, path: str, rows: int, cols: int) -> Matrix:
        if not isinstance(node, list) or len(node) != rows:
            raise ModelLoadError(path, f"expected {rows} rows")
        return tuple(self.vector(row, f"{path}[{r}]", cols) for r, row in enumerate(node))

    def boolean(self, node, path: str) -> bool:
        if not isinstance(node, bool):
            raise ModelLoadError(path, "expected true or false")
        return node


def parse_model(text: str) -> Model:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelLoadError("", f"invalid JSON: {exc}") from None

    _check_keys(doc, "", _MODEL_KEYS, ("param_bits",))
    # only the int itself: True and 1.0 compare equal to 1
    if type(doc["format_version"]) is not int or doc["format_version"] != FORMAT_VERSION:
        raise ModelLoadError("format_version", f"unsupported version {doc['format_version']!r}")

    param_bits = None
    if "param_bits" in doc:
        param_bits = doc["param_bits"]
        if not isinstance(param_bits, int) or isinstance(param_bits, bool) or param_bits < 1:
            raise ModelLoadError("param_bits", "expected a positive integer")
    ld = _Loader(param_bits)

    alphabet = doc["alphabet"]
    if (
        not isinstance(alphabet, list)
        or not alphabet
        or any(not isinstance(s, str) or len(s) != 1 for s in alphabet)
        or len(set(alphabet)) != len(alphabet)
    ):
        raise ModelLoadError("alphabet", "expected distinct single-character symbols")
    alphabet = tuple(alphabet)

    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ModelLoadError("dim", "expected a positive integer")

    emb_node = doc["token_embeddings"]
    if not isinstance(emb_node, dict) or set(emb_node) != set(alphabet):
        raise ModelLoadError("token_embeddings", "keys must match the alphabet exactly")
    embeddings = {sym: ld.vector(emb_node[sym], f"token_embeddings.{sym}", dim) for sym in alphabet}

    rule = _parse_position_rule(ld, doc["position_rule"], dim)
    layers_node = doc["layers"]
    if not isinstance(layers_node, list):
        raise ModelLoadError("layers", "expected a list")
    layers = tuple(_parse_layer(ld, node, f"layers[{i}]", dim) for i, node in enumerate(layers_node))

    head_node = doc["output_head"]
    _check_keys(head_node, "output_head", _KEYS[OutputHead])
    output_head = OutputHead(
        ld.vector(head_node["weights"], "output_head.weights", dim),
        ld.rat(head_node["bias"], "output_head.bias"),
    )
    return Model(alphabet, dim, embeddings, rule, layers, output_head, param_bits)


def _parse_position_rule(ld: _Loader, node, dim: int) -> PositionRule:
    path = "position_rule"
    if not isinstance(node, dict) or "kind" not in node:
        raise ModelLoadError(path, "expected an object with a 'kind' field")
    kind = _choice(node, "kind", POSITION_KINDS, path)
    _check_keys(node, path, _POSITION_KEYS[kind])
    if kind == "none":
        return PositionRule("none")
    if kind == "table":
        n_max = node["n_max"]
        if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
            raise ModelLoadError(f"{path}.n_max", "expected a positive integer")
        vectors = node["vectors"]
        if not isinstance(vectors, list) or len(vectors) != n_max:
            raise ModelLoadError(f"{path}.vectors", f"expected {n_max} vectors")
        table = tuple(ld.vector(v, f"{path}.vectors[{i}]", dim) for i, v in enumerate(vectors))
        return PositionRule("table", n_max=n_max, vectors=table)
    coord = node["coordinate"]
    if not isinstance(coord, int) or isinstance(coord, bool) or not 0 <= coord < dim:
        raise ModelLoadError(f"{path}.coordinate", f"expected an index in [0, {dim})")
    return PositionRule(kind, coordinate=coord)


def _parse_layer(ld: _Loader, node, path: str, dim: int) -> Layer:
    _check_keys(node, path, _KEYS[Layer])
    heads_node = node["heads"]
    if not isinstance(heads_node, list) or not heads_node:
        raise ModelLoadError(f"{path}.heads", "expected a nonempty list")
    heads = tuple(_parse_head(ld, h, f"{path}.heads[{i}]", dim) for i, h in enumerate(heads_node))
    ffnn = _parse_ffnn(ld, node["ffnn"], f"{path}.ffnn", dim)
    ln_attn = _parse_layernorm(ld, node["layernorm_attn"], f"{path}.layernorm_attn", dim)
    ln_ffnn = _parse_layernorm(ld, node["layernorm_ffnn"], f"{path}.layernorm_ffnn", dim)
    return Layer(
        heads,
        ffnn,
        ln_attn,
        ln_ffnn,
        ld.boolean(node["residual_attn"], f"{path}.residual_attn"),
        ld.boolean(node["residual_ffnn"], f"{path}.residual_ffnn"),
    )


def _parse_head(ld: _Loader, node, path: str, dim: int) -> AttentionHead:
    _check_keys(node, path, _KEYS[AttentionHead])
    kind = _choice(node, "kind", HEAD_KINDS, path)
    masking = _choice(node, "masking", MASKINGS, path)
    return AttentionHead(
        ld.matrix(node["w_q"], f"{path}.w_q", dim, dim),
        ld.matrix(node["w_k"], f"{path}.w_k", dim, dim),
        ld.matrix(node["w_v"], f"{path}.w_v", dim, dim),
        ld.matrix(node["w_o"], f"{path}.w_o", dim, dim),
        kind,
        masking,
    )


def _parse_ffnn(ld: _Loader, node, path: str, dim: int) -> FFNN:
    _check_keys(node, path, _KEYS[FFNN])
    activation = _choice(node, "activation", ACTIVATIONS, path)
    w1 = node["w1"]
    if not isinstance(w1, list) or not w1:
        raise ModelLoadError(f"{path}.w1", "expected a nonempty matrix")
    hidden = len(w1)
    return FFNN(
        ld.matrix(w1, f"{path}.w1", hidden, dim),
        ld.vector(node["b1"], f"{path}.b1", hidden),
        activation,
        ld.matrix(node["w2"], f"{path}.w2", dim, hidden),
        ld.vector(node["b2"], f"{path}.b2", dim),
    )


def _parse_layernorm(ld: _Loader, node, path: str, dim: int) -> Optional[LayerNorm]:
    if node is None:
        return None
    _check_keys(node, path, _KEYS[LayerNorm])
    c = ld.rat(node["c"], f"{path}.c")
    if c.num <= 0:
        raise ModelLoadError(f"{path}.c", "variance floor must be strictly positive")
    return LayerNorm(
        ld.vector(node["gamma"], f"{path}.gamma", dim),
        ld.vector(node["beta"], f"{path}.beta", dim),
        c,
    )


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def _doc(node):
    """The JSON form of a model part: a Rat is its canonical string, a tuple
    a list, and a dataclass its keys by name."""
    if isinstance(node, Rat):
        return str(node)
    if isinstance(node, tuple):
        return [_doc(x) for x in node]
    if isinstance(node, dict):
        return {k: _doc(v) for k, v in node.items()}
    if isinstance(node, PositionRule):
        return {k: _doc(getattr(node, k)) for k in _POSITION_KEYS[node.kind]}
    if is_dataclass(node):
        return {k: _doc(getattr(node, k)) for k in _KEYS[type(node)]}
    return node


def serialize_model(model: Model) -> str:
    """The canonical JSON text of a model, the form parse_model accepts."""
    doc = _doc(model)
    doc["format_version"] = FORMAT_VERSION
    if model.param_bits is None:
        del doc["param_bits"]
    return json.dumps(doc, indent=2, sort_keys=True)


# --------------------------------------------------------------------------
# position embeddings
# --------------------------------------------------------------------------


def position_embedding(rule: PositionRule, i: int, n: int, dim: int) -> Vector:
    """Positional vector for 1-based position i of an n-token input."""
    if not 1 <= i <= n:
        raise DomainError(f"position {i} outside [1, {n}]")
    if rule.kind == "none":
        return tuple([RAT_ZERO] * dim)
    if rule.kind == "table":
        if n > rule.n_max:
            raise DomainError(f"input length {n} exceeds the table's n_max={rule.n_max}")
        return rule.vectors[i - 1]
    value = Rat(i, n) if rule.kind == "scaled_index" else Rat(1, i)
    vec = [RAT_ZERO] * dim
    vec[rule.coordinate] = value
    return tuple(vec)


# --------------------------------------------------------------------------
# fixtures
# --------------------------------------------------------------------------


def _zeros(rows: int, cols: int) -> Matrix:
    return tuple(tuple([RAT_ZERO] * cols) for _ in range(rows))


def _identity(dim: int) -> Matrix:
    return tuple(tuple(Rat(1) if r == c else RAT_ZERO for c in range(dim)) for r in range(dim))


def _uniform_attention_model(kind: str, embeddings: dict[str, Vector], rule: PositionRule, head_weights: Vector, bias: Rat) -> Model:
    dim = len(head_weights)
    head = AttentionHead(_zeros(dim, dim), _zeros(dim, dim), _identity(dim), _identity(dim), kind, "none")
    ffnn = FFNN(_zeros(dim, dim), tuple([RAT_ZERO] * dim), "relu", _zeros(dim, dim), tuple([RAT_ZERO] * dim))
    layer = Layer((head,), ffnn, None, None, residual_attn=False, residual_ffnn=True)
    return Model(("0", "1"), dim, embeddings, rule, (layer,), OutputHead(head_weights, bias))


def build_majority_model() -> Model:
    """One average-hard layer computing (#ones / n) - 1/2 exactly.

    All scores are equal, so hard attention averages the token-indicator
    values; the zeroed feed-forward block plus its residual is the identity.
    """
    emb = {"0": (RAT_ZERO, RAT_ZERO), "1": (Rat(1), RAT_ZERO)}
    return _uniform_attention_model("average_hard", emb, PositionRule("none"), (Rat(1), RAT_ZERO), Rat(-1, 2))


def build_softmax_uniform_model() -> Model:
    """Softmax twin of the majority fixture; equal scores keep it closed-form."""
    emb = {"0": (RAT_ZERO, RAT_ZERO), "1": (Rat(1), RAT_ZERO)}
    return _uniform_attention_model("softmax", emb, PositionRule("none"), (Rat(1), RAT_ZERO), Rat(-1, 2))


def build_inverse_index_model() -> Model:
    """Uniform averaging over values 1/i; output is the n-th harmonic mean term.

    Summing n rationals with pairwise-coprime-ish denominators makes the
    reduced denominator grow like lcm(1..n), a near-linear bit-growth fixture.
    """
    emb = {"0": (RAT_ZERO, RAT_ZERO), "1": (RAT_ZERO, RAT_ZERO)}
    rule = PositionRule("inverse_index", coordinate=0)
    return _uniform_attention_model("average_hard", emb, rule, (Rat(1), RAT_ZERO), RAT_ZERO)


BUILTIN_MODELS: dict[str, Callable[[], Model]] = {
    "majority": build_majority_model,
    "softmax-uniform": build_softmax_uniform_model,
    "inverse-index": build_inverse_index_model,
}


def load_model(source: str) -> Model:
    """Load a model from a builtin fixture name or a JSON file path."""
    if source in BUILTIN_MODELS:
        return BUILTIN_MODELS[source]()
    if not os.path.exists(source):
        raise ModelLoadError("", f"no such model file or builtin fixture: {source!r}")
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelLoadError("", f"cannot read model file {source!r}: {exc}") from None
    return parse_model(text)
