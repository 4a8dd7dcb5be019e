"""The benchmark's reference passes against the closed forms of the builtin fixtures."""

import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import zoo  # noqa: E402
from exact_xformer import (  # noqa: E402
    build_inverse_index_model,
    build_majority_model,
    build_softmax_uniform_model,
    serialize_model,
)

WORDS = ["".join(bits) for n in (1, 2, 3, 6) for bits in itertools.product("01", repeat=n)] + ["1101001110111"]


def _doc(build):
    return json.loads(serialize_model(build()))


def test_zoo_majority_doc_is_the_builtin_fixture():
    assert zoo.majority_doc() == _doc(build_majority_model)


def test_fraction_pass_majority():
    doc = _doc(build_majority_model)
    for word in WORDS:
        assert oracles.ahat_fraction(doc, word) == Fraction(word.count("1"), len(word)) - Fraction(1, 2)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
def test_fraction_pass_inverse_index(n):
    harmonic = sum(Fraction(1, i) for i in range(1, n + 1))
    assert oracles.ahat_fraction(_doc(build_inverse_index_model), ("01" * n)[:n]) == harmonic / n


def test_mpmath_pass_softmax_uniform():
    doc = _doc(build_softmax_uniform_model)
    prec = 200
    for word in WORDS:
        value, peak = oracles.softmax_mpmath(doc, word, prec)
        with mpmath.workprec(prec):
            want = mpmath.mpf(word.count("1")) / len(word) - mpmath.mpf(1) / 2
            assert abs(value - want) <= mpmath.ldexp(1, 10 - prec), word
        assert peak >= 1


def test_fraction_pass_refuses_layernorm():
    doc = zoo.random_model(random.Random(0), "average_hard", 1, "none", True)
    with pytest.raises(ValueError):
        oracles.ahat_fraction(doc, "0101")


@pytest.mark.parametrize(
    "x, p, want",
    [
        (Fraction(1), 24, (1 << 23, -23)),
        (Fraction(1, 3), 4, (11, -5)),  # 0.0101|0101..: rounds up to 1011 * 2^-5
        (Fraction(-5, 2), 2, (-2, 0)),  # tie between 2 and 3: even significand wins
        (Fraction(7, 2), 2, (2, 1)),  # tie between 3 and 4: 4 = 2 * 2^1
        (Fraction(0), 8, (0, 0)),
        (Fraction((1 << 24) - 1, 1 << 80), 8, (1 << 7, -63)),  # carry into the next binade
    ],
)
def test_round_fraction(x, p, want):
    assert oracles.round_fraction(x, p) == want
