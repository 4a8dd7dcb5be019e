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

`forward` runs each stage over the whole sequence: one `matmul` call per
weight matrix per layer, over every position's vector (the output head is a
one-row matrix on the last position).  No stage mutates a vector, so a
backend may hand one vector to several positions or stages.

A backend's `attend` step runs once per head, on keys and values it
prepares once, and gives each query its context vector (query i of a causal
head sees positions 0..i).  An unmasked head's positions all see the same
keys and values, so `forward` passes its distinct queries only; in the
majority fixture there is one, zero.  smat and budgeted attend in three
steps: the score dots, the normalizer, then the context dots.  ahat picks
the maximizers and averages their values directly, and an all-zero query
ties every key without a score dot.

Both exact modes work on integer vectors.  They run on
`compile_rows(model)`, the counterpart of smat's `round_model`, made on a
model's first exact evaluation and kept with it: each weight row becomes
its nonzero (index, integer numerator) pairs over the row's lcm
denominator, and each vector is put once over the lcm of its denominators,
so a row is an integer dot reduced by one gcd; a zero row multiplies
nothing and a unit row hands back its input coordinate.  A matrix of only
zero rows, or the identity, with no nonzero bias makes no row dots at all:
one shared zero vector, or the input vectors themselves.  Budgeted
attention runs on the same matvec: each key, compiled as a row, scores the
query, and each value column, compiled as a row, takes the weights.  ahat's
attention scores are integer numerators over one shared positive
denominator, which is all `ahardmax_weights` needs to compare them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, NamedTuple, Sequence

from .elementary import f_exp, f_sqrt
from .errors import DomainError, EvalModeError
from .model_ir import FFNN, AttentionHead, Layer, LayerNorm, Model, OutputHead, position_embedding
from .pfloat import PFloat, f_add, f_div, f_dot, f_mul, f_neg, f_sum_blocks, round_p
from .rational import RAT_ZERO, Rat, _sum_over_lcm, rat_max, rat_sum


class Backend(NamedTuple):
    """The arithmetic `forward` runs on.  No step mutates a vector it is
    given or has returned: a vector may be shared between positions and
    stages (ahat hands an identity matrix's inputs back as its outputs).

    zero                    the additive zero: ReLU keeps a value (Rat or
                            PFloat) whose .sign is 1 and maps others here
    matmul(rows, vecs, biases=None)  for each vector v of vecs, [row . v
                            (+ bias) for each row], zero products skipped;
                            rows is a weight matrix of the model that
                            `forward` is given, prepared for this backend
                            (round_model, compile_rows)
    total(terms)            sum of the terms
    add(a, b)               a + b
    attend(qs, ks, vs, layer, head, causal)  the context vector of each
                            query of qs over the keys ks and values vs, one
                            call per head, which prepares ks and vs once
                            (into new vectors); with causal, query i sees
                            positions 0..i
    layernorm(x, ln, layer, site)   site is "ln_attn" or "ln_ffnn"
    """

    zero: object
    matmul: Callable
    total: Callable
    add: Callable
    attend: Callable
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
    each layer's output vectors.  Each stage runs over the whole sequence:
    one matmul per weight matrix per layer."""
    zero, matmul, total, add, attend, layernorm = backend
    states = []
    for li, layer in enumerate(model.layers):
        per_head = []
        for hi, head in enumerate(layer.heads):
            qs, ks, vs = matmul(head.w_q, xs), matmul(head.w_k, xs), matmul(head.w_v, xs)
            if head.masking == "causal":
                per_head.append(matmul(head.w_o, attend(qs, ks, vs, li, hi, True)))
                continue
            # Every position sees the same keys and values, so equal queries
            # have equal outputs: attend on the distinct queries only.  A
            # repeat of the previous query object (matmul may share one
            # vector between positions) reuses its slot without hashing.
            slot: dict = {}
            distinct, picks = [], []
            prev = None
            for q in qs:
                if q is not prev:
                    j = slot.get(key := tuple(q))
                    if j is None:
                        j = slot[key] = len(distinct)
                        distinct.append(q)
                    prev = q
                picks.append(j)
            outs = matmul(head.w_o, attend(distinct, ks, vs, li, hi, False))
            per_head.append([outs[j] for j in picks])

        terms = per_head + [xs] if layer.residual_attn else per_head
        if len(terms) == 1:  # one head, no residual: its outputs are the sum
            acc = terms[0]
        else:
            acc = [[total([t[i][c] for t in terms]) for c in range(model.dim)] for i in range(len(xs))]
        if layer.layernorm_attn is not None:
            acc = [layernorm(a, layer.layernorm_attn, li, "ln_attn") for a in acc]
        ffnn = layer.ffnn
        hidden = matmul(ffnn.w1, acc, ffnn.b1)
        if ffnn.activation == "relu":
            hidden = [[h if h.sign > 0 else zero for h in vec] for vec in hidden]
        xs = matmul(ffnn.w2, hidden, ffnn.b2)
        if layer.residual_ffnn:
            xs = [[add(a, b) for a, b in zip(u, v)] for u, v in zip(acc, xs)]
        if layer.layernorm_ffnn is not None:
            xs = [layernorm(x, layer.layernorm_ffnn, li, "ln_ffnn") for x in xs]
        states.append(xs)

    out_head = model.output_head
    return matmul((out_head.weights,), [xs[-1]], (out_head.bias,))[0][0], states


def _same(x):
    return x


def _map_params(model: Model, row: Callable, vec: Callable, scalar: Callable, mat: Callable | None = None) -> Model:
    """The model with each weight matrix mapped by `mat` (by default row by
    row with `row`), the output head's weights by `row`, each bias and
    layernorm vector by `vec`, and each scalar parameter by `scalar`;
    embeddings are left as they are.  It calls the constructors directly:
    smat maps its model on every evaluation, and dataclasses.replace costs
    about 40% more."""
    if mat is None:
        mat = lambda rows: tuple(map(row, rows))

    def norm(ln):
        return None if ln is None else LayerNorm(vec(ln.gamma), vec(ln.beta), scalar(ln.c))

    def mapped(layer):
        heads = tuple(AttentionHead(mat(h.w_q), mat(h.w_k), mat(h.w_v), mat(h.w_o), h.kind, h.masking) for h in layer.heads)
        f = layer.ffnn
        ffnn = FFNN(mat(f.w1), vec(f.b1), f.activation, mat(f.w2), vec(f.b2))
        lns = norm(layer.layernorm_attn), norm(layer.layernorm_ffnn)
        return Layer(heads, ffnn, *lns, layer.residual_attn, layer.residual_ffnn)

    out = OutputHead(row(model.output_head.weights), scalar(model.output_head.bias))
    layers = tuple(map(mapped, model.layers))
    return Model(model.alphabet, model.dim, model.token_embeddings, model.position_rule, layers, out, model.param_bits)


# --------------------------------------------------------------------------
# exact rational evaluation
# --------------------------------------------------------------------------


def _rat_total(terms: Sequence[Rat]) -> Rat:
    return rat_sum(terms) if terms else RAT_ZERO


def _rat_add(a: Rat, b: Rat) -> Rat:
    """a + b; a zero operand gives the other one back as it is."""
    if not b.num:
        return a
    return a + b if a.num else b


_ZERO_ROW = (1, (), None)


class _Compiled(tuple):
    """A weight matrix as _compile_row rows, with two flags that
    _compile_matrix works out once: `zero` when every row is zero, and
    `identity` when the matrix is square and row i is the unit row for i."""

    zero = identity = False

    @cached_property
    def norm(self) -> Rat:
        """The operator infinity norm: the largest row sum of |entries|."""
        return max((Rat(sum(abs(a) for _, a in pairs), den) for den, pairs, _ in self), default=RAT_ZERO)


def _compile_matrix(rows: Sequence[Sequence[Rat]]) -> _Compiled:
    out = _Compiled(map(_compile_row, rows))
    out.zero = all(r is _ZERO_ROW for r in out)
    out.identity = all(len(row) == len(rows) for row in rows) and all(r[2] == i for i, r in enumerate(out))
    return out


def _compile_row(row: Sequence[Rat]) -> tuple:
    """(den, pairs, unit): the row's nonzero entries as (index, integer
    numerator) pairs over den, the lcm of their denominators; unit is the
    index k when the row is the k-th unit vector, else None."""
    nz = [(k, x) for k, x in enumerate(row) if x.num]
    if not nz:
        return _ZERO_ROW
    den = lcm(*[x.den for _, x in nz])
    pairs = tuple((k, x.num * (den // x.den)) for k, x in nz)
    unit = pairs[0][0] if den == 1 and len(pairs) == 1 and pairs[0][1] == 1 else None
    return den, pairs, unit


def _exact_matvec(rows: Sequence[tuple], v: Sequence[Rat], biases: Sequence[Rat] | None = None) -> list[Rat]:
    """The exact dot of each compiled row with v (plus its bias), in
    canonical form.  v is put once over D, the lcm of its denominators, and
    each row is then an integer dot over den * D with one gcd; a zero row is
    its bias (or zero), and a unit row without bias is v's coordinate
    itself, so a matrix of only those never computes D."""
    ints = None
    out = []
    for i, (den, pairs, unit) in enumerate(rows):
        bias = None if biases is None or not biases[i].num else biases[i]
        if bias is None:
            if unit is not None:
                out.append(v[unit])
                continue
            if not pairs:
                out.append(RAT_ZERO)
                continue
        elif not pairs:
            out.append(bias)
            continue
        if ints is None:
            big = lcm(*[x.den for x in v])
            ints = [x.num * (big // x.den) for x in v]
        num, d = 0, den * big
        for k, a in pairs:
            num += a * ints[k]
        if bias is not None:
            num, d = num * bias.den + bias.num * d, d * bias.den
        out.append(Rat(num, d) if num else RAT_ZERO)
    return out


def _exact_matmul(rows: Sequence[tuple], vecs: Sequence[Sequence[Rat]], biases: Sequence[Rat] | None = None) -> list:
    """_exact_matvec of each vector.  Without a nonzero bias, an all-zero
    _Compiled matrix gives one zero vector shared by every position, and the
    identity gives the input vectors themselves."""
    if isinstance(rows, _Compiled) and (biases is None or not any(b.num for b in biases)):
        if rows.zero:
            return [[RAT_ZERO] * len(rows)] * len(vecs)
        if rows.identity:
            return list(vecs)
    return [_exact_matvec(rows, v, biases) for v in vecs]


def exact_backend(normalize: Callable, layernorm: Callable) -> Backend:
    """Exact rationals on compiled rows (`compile_rows`), around the given
    attention normalizer and layernorm steps.  The attend step compiles the
    head's keys, and its value columns, as rows once; each query is then two
    matvecs: the keys it sees times the query, and the columns times its
    weights, which a causal prefix pads with zeros to every position."""

    def attend(qs, ks, vs, layer, head, causal):
        krows = [_compile_row(k) for k in ks]
        cols = [_compile_row(col) for col in zip(*vs)]
        out = []
        for i, q in enumerate(qs):
            seen = i + 1 if causal else len(ks)
            alphas = normalize(_exact_matvec(krows[:seen], q), layer, head)
            out.append(_exact_matvec(cols, alphas + [RAT_ZERO] * (len(ks) - seen)))
        return out

    return Backend(RAT_ZERO, _exact_matmul, _rat_total, _rat_add, attend, layernorm)


class EvalTrace:
    """Operand widths of an exact run, as (max numerator bits, max denominator
    bits): of the embedded inputs and of each layer's outputs.  Each is
    computed when first read."""

    def __init__(self, inputs: list[list[Rat]], states: list[list[list[Rat]]]):
        self._inputs, self._states = inputs, states

    @cached_property
    def embedding_bits(self) -> tuple[int, int]:
        return _bits_of(self._inputs)

    @cached_property
    def layer_bits(self) -> list[tuple[int, int]]:
        return [_bits_of(s) for s in self._states]

    def __repr__(self) -> str:
        return f"EvalTrace(embedding_bits={self.embedding_bits!r}, layer_bits={self.layer_bits!r})"


def _bits_of(vecs: Sequence[Sequence[Rat]]) -> tuple[int, int]:
    nm = dn = 1
    for vec in vecs:
        for x in vec:
            nm = max(nm, abs(x.num).bit_length() or 1)
            dn = max(dn, x.den.bit_length())
    return nm, dn


def embed_input(model: Model, w: str) -> list[list[Rat]]:
    """Token embedding plus positional vector for each 1-based position; with
    no position rule, the token embedding itself."""
    if not w:
        raise DomainError("input string must be nonempty")
    n, emb, rule = len(w), model.token_embeddings, model.position_rule
    out = []
    for i, sym in enumerate(w, start=1):
        if sym not in emb:
            raise DomainError(f"symbol {sym!r} not in the model alphabet")
        if rule.kind == "none":
            out.append(list(emb[sym]))
            continue
        pos = position_embedding(rule, i, n, model.dim)
        out.append([a + b if b.num else a for a, b in zip(emb[sym], pos)])
    return out


def ahardmax_weights(scores: Sequence) -> list[Rat]:
    """Equal weight on every maximizing position, zero elsewhere.  Only the
    order and equality of the scores matter, so they may be Rats or integer
    numerators over one shared positive denominator."""
    if len(scores) == 0:
        raise DomainError("ahardmax of an empty score row")
    top = rat_max(scores)
    hits = sum(1 for s in scores if s == top)
    share = Rat(1, hits)
    return [share if s == top else RAT_ZERO for s in scores]


def _ahat_attend(qs: list[list[Rat]], ks: list[list[Rat]], vs: list[list[Rat]], layer: int, head: int, causal: bool) -> list[list[Rat]]:
    """Each query's context: the mean of the values at its score maximizers.
    An all-zero query scores every key 0, a full tie, so it makes no score
    dots.  Otherwise the scores are integer numerators over one positive
    denominator: q's nonzero coordinates over the lcm of their denominators,
    times the keys over the lcm of all theirs, which the first such query
    makes once for the head.  One maximizer gives its value vector, and more
    give each column summed over one lcm with the 1/hits weight folded into
    the denominators."""
    out, kints = [], None
    for i, q in enumerate(qs):
        seen = vs[: i + 1] if causal else vs
        if any(x.num for x in q):
            if kints is None:
                kd = lcm(*[x.den for k in ks for x in k])
                kints = [[x.num * (kd // x.den) for x in k] for k in ks]
            qd = lcm(*[x.den for x in q])
            qn = [(c, x.num * (qd // x.den)) for c, x in enumerate(q) if x.num]
            scores = []
            for k in kints[: len(seen)]:
                score = 0
                for c, a in qn:
                    score += a * k[c]
                scores.append(score)
            weights = ahardmax_weights(scores)
            seen = [v for v, a in zip(seen, weights) if a.num]
        if len(seen) == 1:
            out.append(seen[0])
            continue
        hits = len(seen)
        out.append([_sum_over_lcm([x.num for x in col], [x.den * hits for x in col]) for col in zip(*seen)])
    return out


_AHAT = Backend(RAT_ZERO, _exact_matmul, _rat_total, _rat_add, _ahat_attend, None)


def compile_rows(model: Model) -> Model:
    """The model with every attention and FFNN weight matrix _Compiled and
    the output head's weights compiled as a row (biases and embeddings stay
    rationals).  The first call keeps it with the model (Model.compiled)
    for the next, whichever exact mode makes it; it checks no heads."""
    compiled = model.compiled
    if compiled is None:
        compiled = _map_params(model, _compile_row, _same, _same, _compile_matrix)
        object.__setattr__(model, "compiled", compiled)
    return compiled


def eval_ahat(model: Model, w: str) -> tuple[Rat, EvalTrace]:
    """Exact rational evaluation; average-hard attention, no layernorm.
    Every call checks the heads before it reads the compiled rows."""
    check_heads(model, "average_hard", "ahat_exact needs average_hard", layernorm=False)
    compiled = compile_rows(model)
    xs = embed_input(model, w)
    value, states = forward(compiled, xs, _AHAT)
    return value, EvalTrace(xs, states)


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


def layernorm_pbit(x: list[PFloat], ln_gamma: list[PFloat], ln_beta: list[PFloat], ln_c: PFloat, p: int) -> list[PFloat]:
    """(x - mean)/sqrt(var + c) * gamma + beta, one float op at a time.

    The variance uses squared deviations, which stay nonnegative under
    rounding, so the sqrt argument is always at least c.
    """
    d = len(x)
    n_f = round_p(d, p)
    mean = f_div(f_sum_blocks(x), n_f)
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
    return _map_params(model, rv, rv, lambda x: round_p(x, p))


def _pbit_backend(p: int) -> Backend:
    """p-bit floats.  A dot product is f_dot: each nonzero product rounded
    once, then one block sum with the bias.  A sum is one f_sum_blocks.
    Every rounding is pfloat's _round_pair, its one ties-to-even."""

    def matmul(rows, vecs, biases=None):
        if biases is None:
            return [[f_dot(row, v, p) for row in rows] for v in vecs]
        return [[f_dot(row, v, p, b) for row, b in zip(rows, biases)] for v in vecs]

    def attend(qs, ks, vs, layer, head, causal):
        cols = list(zip(*vs))  # f_dot zips: a causal prefix's weights meet its values
        alphas = (softmax_pbit([f_dot(q, k, p) for k in (ks[: i + 1] if causal else ks)], p) for i, q in enumerate(qs))
        return [[f_dot(a, col, p) for col in cols] for a in alphas]

    return Backend(
        PFloat.zero(p),
        matmul,
        lambda terms: f_sum_blocks(terms) if terms else PFloat.zero(p),
        f_add,
        attend,
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
