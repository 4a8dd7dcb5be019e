"""Runs a transformer Model on a string under three arithmetic regimes.

One forward pass (`forward`) covers the encoder: embedding, attention heads
(causal or unmasked), residuals, the FFNN, layernorm and the output head.
What differs between the regimes is the arithmetic, which `forward` takes
from a Backend:

ahat_exact    exact rationals end to end; attention is average-hard (equal
              weight on all score maximizers); forbids layernorm.
smat_pbit     every primitive is a p-bit float operation: two-ary ops and
              exp/sqrt correctly rounded or relative-error bounded, n-ary
              sums exact-then-rounded-once, and a dot product one such sum
              of products each rounded once.
smat_budgeted exact rationals except exp and inverse-sqrt, each approximated
              to a per-site tolerance planned in budget.py so the output
              lands within a caller-chosen epsilon of the exact real value.

This module holds the first two; budget.py builds the third on `forward`
and `exact_backend`.  Recognition follows the strict-sign convention:
positive output accepts, negative rejects, exact zero is a tie.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .elementary import f_exp, f_sqrt
from .errors import DomainError, EvalModeError
from .model_ir import Model, position_embedding
from .pfloat import PFloat, f_add, f_div, f_dot, f_mul, f_neg, f_sum_blocks, round_p
from .rational import RAT_ZERO, Rat, _sum_over_lcm, rat_max, rat_sum


@dataclass
class EvalTrace:
    embedding_bits: tuple[int, int]
    layer_bits: list[tuple[int, int]]  # (max numerator bits, max denominator bits)


class Backend(NamedTuple):
    """The arithmetic `forward` runs on.

    dot(u, v, bias=None)   sum of u[k]*v[k] (plus bias), zero products skipped
    total(terms)           sum of the terms
    add(a, b)              a + b
    positive(x)            x > 0 (the ReLU test)
    normalize(scores, layer, head)       attention weights of one score row
    layernorm(x, ln, layer, site)        site is "ln_attn" or "ln_ffnn"
    """

    zero: object
    dot: Callable
    total: Callable
    add: Callable
    positive: Callable
    normalize: Callable
    layernorm: Callable


def check_heads(model: Model, kind: str, reason: str, layernorm: bool = True) -> None:
    """Raise EvalModeError unless every head is `kind` (and, if `layernorm`
    is False, no layer has a layernorm)."""
    for li, layer in enumerate(model.layers):
        for hi, head in enumerate(layer.heads):
            if head.kind != kind:
                raise EvalModeError(f"layers[{li}].heads[{hi}] is {head.kind}; {reason}")
        if not layernorm and (layer.layernorm_attn is not None or layer.layernorm_ffnn is not None):
            raise EvalModeError(f"layers[{li}] has layernorm; ahat_exact forbids it")


def forward(model: Model, xs: list[list], backend: Backend) -> tuple[object, list[list[list]]]:
    """The encoder over embedded inputs `xs`; returns the output value and
    each layer's output vectors."""
    dot, total, add, zero, positive = backend.dot, backend.total, backend.add, backend.zero, backend.positive
    n = len(xs)
    states = []
    for li, layer in enumerate(model.layers):
        per_head = []
        for hi, head in enumerate(layer.heads):
            qs = [[dot(row, x) for row in head.w_q] for x in xs]
            ks = [[dot(row, x) for row in head.w_k] for x in xs]
            vs = [[dot(row, x) for row in head.w_v] for x in xs]
            outs = []
            for i in range(n):
                js = range(i + 1) if head.masking == "causal" else range(n)
                alphas = backend.normalize([dot(qs[i], ks[j]) for j in js], li, hi)
                ctx = [dot(alphas, [vs[j][c] for j in js]) for c in range(model.dim)]
                outs.append([dot(row, ctx) for row in head.w_o])
            per_head.append(outs)

        ffnn = layer.ffnn
        nxt = []
        for i, x in enumerate(xs):
            acc = [
                total([outs[i][c] for outs in per_head] + ([x[c]] if layer.residual_attn else []))
                for c in range(model.dim)
            ]
            if layer.layernorm_attn is not None:
                acc = backend.layernorm(acc, layer.layernorm_attn, li, "ln_attn")
            hidden = [dot(row, acc, b) for row, b in zip(ffnn.w1, ffnn.b1)]
            if ffnn.activation == "relu":
                hidden = [h if positive(h) else zero for h in hidden]
            h = [dot(row, hidden, b) for row, b in zip(ffnn.w2, ffnn.b2)]
            if layer.residual_ffnn:
                h = [add(a, b) for a, b in zip(acc, h)]
            if layer.layernorm_ffnn is not None:
                h = backend.layernorm(h, layer.layernorm_ffnn, li, "ln_ffnn")
            nxt.append(h)
        xs = nxt
        states.append(xs)

    return dot(model.output_head.weights, xs[-1], model.output_head.bias), states


# --------------------------------------------------------------------------
# exact rational evaluation
# --------------------------------------------------------------------------


def _rat_dot(u: Sequence[Rat], v: Sequence[Rat], bias: Rat | None = None) -> Rat:
    """Sum of the unreduced products u[k]*v[k] (plus bias) over the lcm of
    their denominators, with one gcd at the end; zero products are skipped."""
    nums, dens = [], []
    for a, b in zip(u, v):
        if a.num and b.num:
            nums.append(a.num * b.num)
            dens.append(a.den * b.den)
    if bias is not None and bias.num:
        nums.append(bias.num)
        dens.append(bias.den)
    return _sum_over_lcm(nums, dens) if nums else RAT_ZERO


def _rat_total(terms: Sequence[Rat]) -> Rat:
    return rat_sum(terms) if terms else RAT_ZERO


def exact_backend(normalize: Callable, layernorm: Callable) -> Backend:
    """Exact rationals around the given attention and layernorm steps."""
    return Backend(RAT_ZERO, _rat_dot, _rat_total, operator.add, lambda x: x.num > 0, normalize, layernorm)


def _bits_of(vecs: Sequence[Sequence[Rat]]) -> tuple[int, int]:
    nm = dn = 1
    for vec in vecs:
        for x in vec:
            nm = max(nm, abs(x.num).bit_length() or 1)
            dn = max(dn, x.den.bit_length())
    return nm, dn


def embed_input(model: Model, w: str) -> list[list[Rat]]:
    """Token embedding plus positional vector for each 1-based position."""
    if not w:
        raise DomainError("input string must be nonempty")
    n = len(w)
    out = []
    for i, sym in enumerate(w, start=1):
        if sym not in model.token_embeddings:
            raise DomainError(f"symbol {sym!r} not in the model alphabet")
        pos = position_embedding(model.position_rule, i, n, model.dim)
        out.append([a + b for a, b in zip(model.token_embeddings[sym], pos)])
    return out


def ahardmax_weights(scores: Sequence[Rat]) -> list[Rat]:
    """Equal weight on every maximizing position, zero elsewhere."""
    if len(scores) == 0:
        raise DomainError("ahardmax of an empty score row")
    top = rat_max(scores)
    hits = sum(1 for s in scores if s == top)
    share = Rat(1, hits)
    return [share if s == top else RAT_ZERO for s in scores]


def eval_ahat(model: Model, w: str) -> tuple[Rat, EvalTrace]:
    """Exact rational evaluation; average-hard attention, no layernorm."""
    check_heads(model, "average_hard", "ahat_exact needs average_hard", layernorm=False)
    xs = embed_input(model, w)
    backend = exact_backend(lambda scores, layer, head: ahardmax_weights(scores), None)
    value, states = forward(model, xs, backend)
    return value, EvalTrace(_bits_of(xs), [_bits_of(s) for s in states])


# --------------------------------------------------------------------------
# p-bit float evaluation
# --------------------------------------------------------------------------


def softmax_pbit(scores: Sequence[PFloat], p: int) -> list[PFloat]:
    """exp each score (relative error <= 2^-p), one exact-then-rounded sum,
    one correctly rounded division per weight."""
    if len(scores) == 0:
        raise DomainError("softmax of an empty score row")
    nums = [f_exp(s, p) for s in scores]
    den = f_sum_blocks(nums)
    return [f_div(nm, den) for nm in nums]


def _fsum(terms: list[PFloat], p: int) -> PFloat:
    if not terms:
        return PFloat.zero(p)
    return f_sum_blocks(terms)


def layernorm_pbit(x: list[PFloat], ln_gamma: list[PFloat], ln_beta: list[PFloat], ln_c: PFloat, p: int) -> list[PFloat]:
    """(x - mean)/sqrt(var + c) * gamma + beta, one float op at a time.

    The variance uses squared deviations, which stay nonnegative under
    rounding, so the sqrt argument is always at least c.
    """
    d = len(x)
    n_f = round_p(d, p)
    mean = f_div(_fsum(list(x), p), n_f)
    devs = [f_add(xi, f_neg(mean)) for xi in x]
    var = f_div(f_dot(devs, devs, p), n_f)
    scale = f_sqrt(f_add(var, ln_c))
    out = []
    for dv, g, b in zip(devs, ln_gamma, ln_beta):
        t = f_mul(f_div(dv, scale), g)
        out.append(f_add(t, b))
    return out


def round_model(model: Model, p: int) -> Model:
    """The model with every attention, FFNN, layernorm and output-head
    parameter rounded once to p bits (embeddings are rounded after lookup)."""
    rv = lambda vec: tuple(round_p(x, p) for x in vec)
    rm = lambda mat: tuple(rv(row) for row in mat)

    def rln(ln):
        return None if ln is None else replace(ln, gamma=rv(ln.gamma), beta=rv(ln.beta), c=round_p(ln.c, p))

    def rlayer(layer):
        heads = tuple(replace(h, w_q=rm(h.w_q), w_k=rm(h.w_k), w_v=rm(h.w_v), w_o=rm(h.w_o)) for h in layer.heads)
        f = layer.ffnn
        ffnn = replace(f, w1=rm(f.w1), b1=rv(f.b1), w2=rm(f.w2), b2=rv(f.b2))
        lns = dict(layernorm_attn=rln(layer.layernorm_attn), layernorm_ffnn=rln(layer.layernorm_ffnn))
        return replace(layer, heads=heads, ffnn=ffnn, **lns)

    out = model.output_head
    out = replace(out, weights=rv(out.weights), bias=round_p(out.bias, p))
    return replace(model, layers=tuple(rlayer(layer) for layer in model.layers), output_head=out)


def _pbit_backend(p: int) -> Backend:
    """p-bit floats.  A dot product is f_dot: each nonzero product rounded
    once, then one block sum with the bias.  A sum is one f_sum_blocks.
    Every rounding is pfloat's _round_pair, its one ties-to-even."""
    return Backend(
        PFloat.zero(p),
        lambda u, v, bias=None: f_dot(u, v, p, bias),
        lambda terms: _fsum(terms, p),
        f_add,
        lambda x: x.m > 0,
        lambda scores, layer, head: softmax_pbit(scores, p),
        lambda x, ln, layer, site: layernorm_pbit(x, ln.gamma, ln.beta, ln.c, p),
    )


def eval_smat_pbit(model: Model, w: str, p: int) -> PFloat:
    """Softmax-attention evaluation where every primitive is a p-bit op."""
    check_heads(model, "softmax", "smat_pbit needs softmax")
    rounded = round_model(model, p)
    xs = [[round_p(x, p) for x in vec] for vec in embed_input(model, w)]
    return forward(rounded, xs, _pbit_backend(p))[0]


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------


def bit_growth_trace(model: Model, lengths: Sequence[int]) -> list[dict]:
    """Exact-mode bit-width measurement over a deterministic input family.

    For each n, evaluates a cycled-alphabet string (varied scores) and a
    repeated-symbol string (uniform tie) and keeps the componentwise max of
    the per-layer numerator/denominator widths.
    """
    rows = []
    for n in lengths:
        if n < 1:
            raise DomainError("lengths must be >= 1")
        cycled = "".join(model.alphabet[i % len(model.alphabet)] for i in range(n))
        uniform = model.alphabet[-1] * n
        per_layer = [(1, 1)] * len(model.layers)
        emb_bits = (1, 1)
        for s in (cycled, uniform):
            _, trace = eval_ahat(model, s)
            emb_bits = tuple(map(max, emb_bits, trace.embedding_bits))
            per_layer = [tuple(map(max, a, b)) for a, b in zip(per_layer, trace.layer_bits)]
        peak = max([max(emb_bits)] + [max(t) for t in per_layer])
        rows.append({"n": n, "embedding_bits": emb_bits, "layer_bits": per_layer, "max_bits": peak})
    return rows


def fit_loglog_slope(rows: Sequence[dict]) -> float:
    """Least-squares slope of log2(max_bits) against log2(n).

    The closed form runs exactly in Fractions over the float logarithms,
    so the one rounding is the final conversion to a float.
    """
    xs = [Fraction(math.log2(r["n"])) for r in rows]
    ys = [Fraction(math.log2(r["max_bits"])) for r in rows]
    k, sx, sy = len(rows), sum(xs), sum(ys)
    spread = k * sum(x * x for x in xs) - sx * sx
    if spread == 0:
        raise DomainError("slope fit needs at least two distinct lengths")
    return float((k * sum(x * y for x, y in zip(xs, ys)) - sx * sy) / spread)
