"""Seeded model zoo: model JSON documents and input words for the workloads.

Every random model has dim 4, two heads per layer, a ReLU FFNN of width 8,
a `scaled_index` position rule (coordinate 3 gets i/n), residuals on, and
small nonzero dyadic parameters k/2^j with |k| <= 3 and j <= 2.  The documents are
plain JSON text in the library's model format; the library only ever sees
that text (through `model_ir.parse_model`) and the words.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

DIM = 4
HEADS = 2
HIDDEN = 8
POS_COORD = 3


def dyadic(rng: random.Random, scale: int = 0) -> str:
    """A canonical rational string k/2^j with k in {+-1, +-2, +-3} and j in
    [scale, scale + 2].

    No parameter is zero, so the library's zero-skipping shortcuts take the
    same path on every seed and a model's cost depends on its shape only.
    """
    return str(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), 1 << rng.randint(scale, scale + 2)))


def _vec(rng: random.Random, n: int, scale: int) -> list[str]:
    return [dyadic(rng, scale) for _ in range(n)]


def _mat(rng: random.Random, rows: int, cols: int, scale: int) -> list[list[str]]:
    return [_vec(rng, cols, scale) for _ in range(rows)]


def _layernorm(rng: random.Random, scale: int) -> dict:
    return {
        "gamma": [str(Fraction(rng.randint(1, 4), 2)) for _ in range(DIM)],
        "beta": _vec(rng, DIM, scale),
        "c": rng.choice(("1/4", "1/2", "1")),
    }


def random_model(rng: random.Random, kind: str, layers: int, masking: str, layernorm: bool, scale: int = 0) -> dict:
    """One model document; `masking` is "none", "causal" or "mixed" (per head).

    `scale` shrinks every parameter by 2^-scale.
    """
    doc_layers = []
    for _ in range(layers):
        heads = []
        for h in range(HEADS):
            mask = masking if masking != "mixed" else ("causal", "none")[h % 2]
            heads.append(
                {
                    "kind": kind,
                    "masking": mask,
                    "w_q": _mat(rng, DIM, DIM, scale),
                    "w_k": _mat(rng, DIM, DIM, scale),
                    "w_v": _mat(rng, DIM, DIM, scale),
                    "w_o": _mat(rng, DIM, DIM, scale),
                }
            )
        doc_layers.append(
            {
                "heads": heads,
                "ffnn": {
                    "activation": "relu",
                    "w1": _mat(rng, HIDDEN, DIM, scale),
                    "b1": _vec(rng, HIDDEN, scale),
                    "w2": _mat(rng, DIM, HIDDEN, scale),
                    "b2": _vec(rng, DIM, scale),
                },
                "layernorm_attn": _layernorm(rng, scale) if layernorm else None,
                "layernorm_ffnn": _layernorm(rng, scale) if layernorm else None,
                "residual_attn": True,
                "residual_ffnn": True,
            }
        )
    return {
        "format_version": 1,
        "alphabet": ["0", "1"],
        "dim": DIM,
        "token_embeddings": {"0": _vec(rng, DIM, scale), "1": _vec(rng, DIM, scale)},
        "position_rule": {"kind": "scaled_index", "coordinate": POS_COORD},
        "layers": doc_layers,
        "output_head": {"weights": _vec(rng, DIM, scale), "bias": dyadic(rng, scale)},
    }


def random_word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def majority_doc() -> dict:
    """The library's `majority` fixture, written out as a model document.

    One average-hard head with zero query and key weights, so every score is
    equal and the head averages the token indicators; the zero FFNN plus its
    residual is the identity, and the output is #ones/n - 1/2.
    """
    zero = [["0", "0"], ["0", "0"]]
    ident = [["1", "0"], ["0", "1"]]
    return {
        "format_version": 1,
        "alphabet": ["0", "1"],
        "dim": 2,
        "token_embeddings": {"0": ["0", "0"], "1": ["1", "0"]},
        "position_rule": {"kind": "none"},
        "layers": [
            {
                "heads": [
                    {"kind": "average_hard", "masking": "none", "w_q": zero, "w_k": zero, "w_v": ident, "w_o": ident}
                ],
                "ffnn": {"activation": "relu", "w1": zero, "b1": ["0", "0"], "w2": zero, "b2": ["0", "0"]},
                "layernorm_attn": None,
                "layernorm_ffnn": None,
                "residual_attn": False,
                "residual_ffnn": True,
            }
        ],
        "output_head": {"weights": ["1", "0"], "bias": "-1/2"},
    }


def to_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)
