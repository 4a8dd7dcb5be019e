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
and `exact_backend`, and plans its budgets on `forward` too, with a backend
whose vectors are magnitude bounds.  Recognition follows the strict-sign convention:
positive output accepts, negative rejects, exact zero is a tie.

`forward` runs each stage over the whole sequence: one `matmul` call per
weight matrix per layer, over every position's vector.  The final layer
runs at the last position only, the one the output head (a one-row matrix)
reads: its keys and values are made at every position, and the rest at the
last one, whose query sees every key, so each head attends once with that
one query.  No stage mutates a vector, so a backend may hand one vector to
several positions or stages.

A backend's `attend` step runs once per head, on all its queries and on
keys and values it prepares once, and gives each query its context vector
(query i of a causal head sees positions 0..i).  smat and budgeted attend
in three steps: the score dots, the normalizer, then the context dots.
ahat picks the maximizers and averages their values directly; an all-zero
query ties every key without a score dot, and on an unmasked head all such
queries share one context, the mean of every value.

Both exact modes pass one vector form between stages: a pair (ints, D) of
integer numerators over one denominator D >= 1 with gcd(D, *ints) == 1.  D
is then the lcm of the entries' canonical denominators, and entry x/D is
the canonical (x/g)/(D/g), g = gcd(x, D); so the form of a vector is
unique, and every stage that makes one reduces by one multi-argument gcd.
They run on `compile_rows(model)`, the counterpart of smat's
`round_model`, made on a model's first exact evaluation and kept with it:
each weight matrix becomes its rows' integer numerators, zeros included,
over one matrix denominator Dm, and a bias and each token embedding
become vectors.  A matmul output is then the integer row dots over Dm * D,
the bias folded in over the lcm of that and its own denominator, and one
gcd.  A matrix of only zero rows, or the identity, with no bias makes no
row dots at all: one shared zero vector, or the input vectors themselves.
ahat's attention scores are integer numerators over one shared positive
denominator, which is all `ahardmax_weights` needs to compare them;
budgeted scores each key over its own denominator, and its normalizer and
layernorm take and return Rats.  Rats are made only there and at the
output head.  Every mode's run makes an `EvalTrace` of its embedded inputs
and the layer outputs `forward` returns; the widths that `EvalTrace` reads
come off their integers, in either vector form, and only when asked, and
the first read runs the final layer again at every position.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, lcm
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .elementary import f_exp, f_sqrt
from .errors import DomainError, EvalModeError
from .model_ir import FFNN, AttentionHead, Layer, LayerNorm, Model, OutputHead, position_embedding
from .pfloat import PFloat, f_add, f_div, f_dot, f_mul, f_neg, f_sum_blocks, round_p
from .rational import RAT_ZERO, Rat, rat_max


class Backend(NamedTuple):
    """The arithmetic `forward` runs on.  No step mutates a vector it is
    given or has returned: a vector may be shared between positions and
    stages (ahat hands an identity matrix's inputs back as its outputs).
    A vector is a list of floats, the exact modes' (ints, D) pair, or a
    budget plan's one-entry (c,) with c >= every |entry|; the tuple of each
    is a dict key.

    relu(vec)               each entry kept where positive, else zero
    matmul(rows, vecs, biases=None)  for each vector v of vecs, [row . v
                            (+ bias) for each row];
                            rows is a weight matrix of the model that
                            `forward` is given, prepared for this backend
                            (round_model, compile_rows), and biases its
                            bias vector
    total(vectors)          the sum of two or more vectors
    add(u, v)               u + v
    attend(qs, ks, vs, layer, head, causal)  the context vector of each
                            query of qs over the keys ks and values vs, one
                            call per head on all its queries, which prepares
                            ks and vs once (into new vectors); with causal,
                            query i sees positions 0..i
    layernorm(x, ln, layer, site)   site is "ln_attn" or "ln_ffnn"
    """

    relu: Callable
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


def forward(model: Model, xs: list, backend: Backend) -> tuple[object, list[list], Callable | None]:
    """The encoder over embedded inputs `xs`, on a model mapped by
    `_map_params`.  Returns the output head's one-entry vector, each layer's
    output vectors but the final layer's, and a function that makes the
    final layer's output at every position (None without layers).  The
    final layer itself runs at the last position only, which is all the
    output head reads."""
    states = []
    for li, layer in enumerate(model.layers[:-1]):
        xs = _layer(layer, li, xs, backend, False)
        states.append(xs)
    final = None
    if model.layers:
        li = len(model.layers) - 1
        final = partial(_layer, model.layers[-1], li, xs, backend, False)
        xs = _layer(model.layers[-1], li, xs, backend, True)
    out_head = model.output_head
    return backend.matmul(out_head.weights, [xs[-1]], out_head.bias)[0], states, final


def _layer(layer: Layer, li: int, xs: list, backend: Backend, last_only: bool) -> list:
    """Layer `li` over the vectors `xs`: its output at every position, or
    with `last_only` at the last position only.  Keys and values are made at
    every position either way; the rest runs on the positions whose output
    is made, one matmul per weight matrix and one attend per head on all
    its queries."""
    relu, matmul, total, add, attend, layernorm = backend
    ys = xs[-1:] if last_only else xs
    per_head = []
    for hi, head in enumerate(layer.heads):
        qs, ks, vs = matmul(head.w_q, ys), matmul(head.w_k, xs), matmul(head.w_v, xs)
        # the last query of a causal head sees every position
        causal = head.masking == "causal" and not last_only
        per_head.append(matmul(head.w_o, attend(qs, ks, vs, li, hi, causal)))

    terms = per_head + [ys] if layer.residual_attn else per_head
    # one head, no residual: its outputs are the sum
    acc = terms[0] if len(terms) == 1 else list(map(total, zip(*terms)))
    if layer.layernorm_attn is not None:
        acc = [layernorm(a, layer.layernorm_attn, li, "ln_attn") for a in acc]
    ffnn = layer.ffnn
    hidden = matmul(ffnn.w1, acc, ffnn.b1)
    if ffnn.activation == "relu":
        hidden = list(map(relu, hidden))
    out = matmul(ffnn.w2, hidden, ffnn.b2)
    if layer.residual_ffnn:
        out = list(map(add, acc, out))
    if layer.layernorm_ffnn is not None:
        out = [layernorm(x, layer.layernorm_ffnn, li, "ln_ffnn") for x in out]
    return out


def _same(x):
    return x


def _map_params(model: Model, mat: Callable, bias: Callable, vec: Callable, scalar: Callable, embedding: Callable | None = None) -> Model:
    """The model with each weight matrix mapped by `mat` (the output head's
    weights as a one-row matrix), each FFNN bias and the output bias (as a
    one-entry vector) by `bias`, each layernorm vector by `vec` and its
    scalar by `scalar`, and each token embedding by `embedding` (by default
    left as it is).  It calls the constructors directly: smat maps its
    model on every evaluation, and dataclasses.replace costs about 40%
    more."""

    def norm(ln):
        return None if ln is None else LayerNorm(vec(ln.gamma), vec(ln.beta), scalar(ln.c))

    def mapped(layer):
        heads = tuple(AttentionHead(mat(h.w_q), mat(h.w_k), mat(h.w_v), mat(h.w_o), h.kind, h.masking) for h in layer.heads)
        f = layer.ffnn
        ffnn = FFNN(mat(f.w1), bias(f.b1), f.activation, mat(f.w2), bias(f.b2))
        lns = norm(layer.layernorm_attn), norm(layer.layernorm_ffnn)
        return Layer(heads, ffnn, *lns, layer.residual_attn, layer.residual_ffnn)

    head = model.output_head
    out = OutputHead(mat((head.weights,)), bias((head.bias,)))
    layers = tuple(map(mapped, model.layers))
    emb = model.token_embeddings
    if embedding is not None:
        emb = {sym: embedding(e) for sym, e in emb.items()}
    return Model(model.alphabet, model.dim, emb, model.position_rule, layers, out, model.param_bits)


# --------------------------------------------------------------------------
# exact rational evaluation
# --------------------------------------------------------------------------


def _reduced(nums: Sequence[int], den: int) -> tuple:
    """nums/den (den >= 1) in the vector form: both divided by their gcd."""
    g = gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple([x // g for x in nums]), den // g


def _vector(xs: Sequence[Rat]) -> tuple:
    """Rats in the vector form: each numerator over the lcm of their
    denominators, which leaves no common factor."""
    d = lcm(*[x.den for x in xs])
    return tuple([x.num * (d // x.den) for x in xs]), d


def _bias(xs: Sequence[Rat]) -> tuple | None:
    """A bias in the vector form, or None when it is zero."""
    return _vector(xs) if any(x.num for x in xs) else None


class _Compiled(tuple):
    """A weight matrix over one denominator `den`: each row a tuple of its
    entries' integer numerators, zeros included.  _compile_matrix sets two
    flags once: `zero` when every entry is zero, and `identity` when the
    matrix is the identity."""

    den = 1
    zero = identity = False

    @cached_property
    def norm(self) -> Rat:
        """The operator infinity norm: the largest row sum of |entries|."""
        return Rat(max((sum(map(abs, row)) for row in self), default=0), self.den)


def _compile_matrix(rows: Sequence[Sequence[Rat]]) -> _Compiled:
    den = lcm(*[x.den for row in rows for x in row])
    out = _Compiled(tuple([x.num * (den // x.den) for x in row]) for row in rows)
    out.den = den
    out.zero = not any(map(any, out))
    n = len(rows)
    out.identity = den == 1 and all(r == tuple(int(c == i) for c in range(n)) for i, r in enumerate(out))
    return out


def _exact_matmul(rows: _Compiled, vecs: Sequence[tuple], biases: tuple | None = None) -> list[tuple]:
    """Each vector (ints, D) times the matrix, plus the bias vector: the
    integer row dots over rows.den * D, the bias folded in over the lcm of
    that and its own denominator, then one gcd.  Without a bias, the zero
    matrix gives one zero vector shared by every position, and the identity
    the input vectors themselves."""
    if biases is None:
        if rows.zero:
            return [((0,) * len(rows), 1)] * len(vecs)
        if rows.identity:
            return list(vecs)
    out = []
    for ints, d in vecs:
        den = rows.den * d
        nums = [sum(map(mul, row, ints)) for row in rows]
        if biases is not None:
            bints, bd = biases
            big = lcm(den, bd)
            f, fb = big // den, big // bd
            nums = [x * f + b * fb for x, b in zip(nums, bints)]
            den = big
        out.append(_reduced(nums, den))
    return out


def _common(vecs: Sequence[tuple]) -> tuple[list, int]:
    """The vectors' integers over the lcm of their denominators, and it."""
    big = lcm(*[d for _, d in vecs])
    return [ints if d == big else [x * (big // d) for x in ints] for ints, d in vecs], big


def _total(vecs: Sequence[tuple], parts: int = 1) -> tuple:
    """The sum of the vectors, divided by `parts`: every numerator over the
    lcm of their denominators, then one gcd."""
    scaled, big = _common(vecs)
    return _reduced([sum(col) for col in zip(*scaled)], big * parts)


def _add(u: tuple, v: tuple) -> tuple:
    """u + v; a zero vector gives the other one back as it is."""
    if not any(v[0]):
        return u
    return _total((u, v)) if any(u[0]) else v


def _relu(vec: tuple) -> tuple:
    """The positive entries kept and the rest zeroed, reduced again (the
    kept entries may share a factor with D that a zeroed one did not)."""
    ints, d = vec
    if min(ints, default=0) >= 0:
        return vec
    return _reduced([x if x > 0 else 0 for x in ints], d)


def exact_backend(normalize: Callable, layernorm: Callable) -> Backend:
    """Exact rationals on compiled rows (`compile_rows`), around the given
    attention normalizer and layernorm steps, which take and return Rats.
    The attend step puts the head's values over the lcm of their
    denominators once; each query then scores every key it sees over the
    key's own denominator, Rat(q . k, D_q * D_k), and its context is the
    normalized weights, over their lcm, times the values' integers, reduced
    by one gcd."""

    def attend(qs, ks, vs, layer, head, causal):
        vints, vd = _common(vs)
        dim = len(vints[0])
        out = []
        for i, (q, dq) in enumerate(qs):
            qn = [(c, x) for c, x in enumerate(q) if x]
            scores = []
            for k, dk in ks[: i + 1] if causal else ks:
                score = 0
                for c, a in qn:
                    score += a * k[c]
                scores.append(Rat(score, dq * dk))
            alphas = normalize(scores, layer, head)
            ad = lcm(*[a.den for a in alphas])
            terms = [(a.num * (ad // a.den), v) for a, v in zip(alphas, vints) if a.num]
            out.append(_reduced([sum(w * v[c] for w, v in terms) for c in range(dim)], ad * vd))
        return out

    def norm(x, ln, layer, site):
        ints, d = x
        return _vector(layernorm([Rat(a, d) for a in ints], ln, layer, site))

    return Backend(_relu, _exact_matmul, _total, _add, attend, norm)


class EvalTrace:
    """A run's operand widths, as (max numerator bits, max denominator bits)
    of the canonical rationals of the entries, at least (1, 1): of the
    embedded inputs and of each layer's outputs at every position.  An
    entry is x/D of an exact vector (ints, D), or m * 2^e of a p-bit
    vector's PFloat.  Each is computed when first read; `final`, the one
    `forward` returns, then makes the final layer's outputs at the positions
    the run skipped.  A budgeted run keeps its ErrorBudget."""

    def __init__(self, inputs: list, states: list[list], final: Callable | None = None, budget=None):
        self._inputs, self._states, self._final, self.budget = inputs, states, final, budget

    @cached_property
    def embedding_bits(self) -> tuple[int, int]:
        return _bits_of(self._inputs)

    @cached_property
    def layer_bits(self) -> list[tuple[int, int]]:
        states = self._states if self._final is None else [*self._states, self._final()]
        return [_bits_of(s) for s in states]

    def to_json_dict(self) -> dict:
        out = {"embedding_bits": list(self.embedding_bits), "layer_bits": [list(b) for b in self.layer_bits]}
        return out if self.budget is None else {**out, **self.budget.to_json_dict()}


def _bits_of(vecs: Sequence) -> tuple[int, int]:
    nm = dn = 1
    for vec in vecs:
        if not isinstance(vec, tuple):  # PFloats: m * 2^e over one D = 2^s
            s = max(0, *[-f.e for f in vec])
            vec = [f.m << (f.e + s) for f in vec], 1 << s
        ints, d = vec
        for x in ints:
            g = gcd(x, d)
            nm = max(nm, (abs(x) // g).bit_length())
            dn = max(dn, (d // g).bit_length())
    return nm, dn


def embed_input(model: Model, w: str) -> list[tuple]:
    """Token embedding plus positional vector for each 1-based position, as
    vectors in the exact form; with no position rule, the token embedding's
    vector, read off the model's compile (`compile_rows`) once it has one."""
    if not w:
        raise DomainError("input string must be nonempty")
    n, emb, rule = len(w), model.token_embeddings, model.position_rule
    vecs = model.compiled.token_embeddings if rule.kind == "none" and model.compiled is not None else None
    out = []
    for i, sym in enumerate(w, start=1):
        if sym not in emb:
            raise DomainError(f"symbol {sym!r} not in the model alphabet")
        if vecs is not None:
            out.append(vecs[sym])
            continue
        pos = position_embedding(rule, i, n, model.dim)
        out.append(_vector([a + b if b.num else a for a, b in zip(emb[sym], pos)]))
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


def _mean(vecs: Sequence[tuple]) -> tuple:
    """One vector itself, or the sum of more over their count."""
    return vecs[0] if len(vecs) == 1 else _total(vecs, len(vecs))


def _ahat_attend(qs: list[tuple], ks: list[tuple], vs: list[tuple], layer: int, head: int, causal: bool) -> list[tuple]:
    """Each query's context: the mean of the values at its score maximizers.
    An all-zero query scores every key 0, a full tie, so it makes no score
    dots, and on an unmasked head all such queries share one mean.
    Otherwise the scores are integer numerators over one positive
    denominator: q's integers, times the keys over the lcm of all their
    denominators, which the first such query makes once for the head."""
    out, kints, tie = [], None, None
    for i, (q, _) in enumerate(qs):
        if not (causal or any(q)):
            if tie is None:
                tie = _mean(vs)
            out.append(tie)
            continue
        seen = vs[: i + 1] if causal else vs
        if any(q):
            if kints is None:
                kints = _common(ks)[0]
            qn = [(c, x) for c, x in enumerate(q) if x]
            scores = []
            for k in kints[: len(seen)]:
                score = 0
                for c, a in qn:
                    score += a * k[c]
                scores.append(score)
            weights = ahardmax_weights(scores)
            seen = [v for v, a in zip(seen, weights) if a.num]
        out.append(_mean(seen))
    return out


_AHAT = Backend(_relu, _exact_matmul, _total, _add, _ahat_attend, None)


def compile_rows(model: Model) -> Model:
    """The model with every weight matrix _Compiled (the output head's as a
    one-row matrix), and each bias and token embedding in the vector form
    (a zero bias is None; layernorm parameters stay rationals).  The first
    call, a model's first exact evaluation or budget plan, keeps it with
    the model (Model.compiled) for the next; it checks no heads."""
    compiled = model.compiled
    if compiled is None:
        compiled = _map_params(model, _compile_matrix, _bias, _same, _same, _vector)
        object.__setattr__(model, "compiled", compiled)
    return compiled


def eval_ahat(model: Model, w: str) -> tuple[Rat, EvalTrace]:
    """Exact rational evaluation; average-hard attention, no layernorm.
    Every call checks the heads before it reads the compiled rows."""
    check_heads(model, "average_hard", "ahat_exact needs average_hard", layernorm=False)
    compiled = compile_rows(model)
    xs = embed_input(model, w)
    ((num,), den), states, final = forward(compiled, xs, _AHAT)
    return Rat(num, den), EvalTrace(xs, states, final)


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
    parameter rounded once to p bits (embeddings are rounded after lookup).
    Each distinct value is rounded once per call, as a model's parameters
    may repeat a few values many times (the zoo's models do)."""
    rounded: dict[Rat, PFloat] = {}

    def r(x: Rat) -> PFloat:
        y = rounded.get(x)
        if y is None:
            y = rounded[x] = round_p(x, p)
        return y

    rv = lambda vec: tuple(map(r, vec))
    return _map_params(model, lambda rows: tuple(map(rv, rows)), rv, rv, r)


def _pbit_backend(p: int) -> Backend:
    """p-bit floats.  A dot product is f_dot: each nonzero product rounded
    once, then their exact sum with the bias rounded once.  A sum is one
    f_sum_blocks.
    Every rounding is pfloat's _round_pair, its one ties-to-even."""

    def matmul(rows, vecs, biases=None):
        if biases is None:
            return [[f_dot(row, v, p) for row in rows] for v in vecs]
        return [[f_dot(row, v, p, b) for row, b in zip(rows, biases)] for v in vecs]

    def attend(qs, ks, vs, layer, head, causal):
        cols = list(zip(*vs))  # f_dot zips: a causal prefix's weights meet its values
        alphas = (softmax_pbit([f_dot(q, k, p) for k in (ks[: i + 1] if causal else ks)], p) for i, q in enumerate(qs))
        return [[f_dot(a, col, p) for col in cols] for a in alphas]

    zero = PFloat.zero(p)
    return Backend(
        lambda vec: [h if h.sign > 0 else zero for h in vec],
        matmul,
        lambda vectors: list(map(f_sum_blocks, zip(*vectors))),
        lambda u, v: list(map(f_add, u, v)),
        attend,
        lambda x, ln, layer, site: layernorm_pbit(x, ln.gamma, ln.beta, ln.c, p),
    )


def _eval_smat(model: Model, w: str, p: int) -> tuple[PFloat, EvalTrace]:
    check_heads(model, "softmax", "smat_pbit needs softmax")
    rounded = round_model(model, p)
    xs = [[round_p(Rat(x, d), p) for x in ints] for ints, d in embed_input(model, w)]
    (value,), states, final = forward(rounded, xs, _pbit_backend(p))
    return value, EvalTrace(xs, states, final)


def eval_smat_pbit(model: Model, w: str, p: int) -> PFloat:
    """Softmax-attention evaluation where every primitive is a p-bit op."""
    return _eval_smat(model, w, p)[0]


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
        a, b = (eval_ahat(model, s)[1] for s in (cycled, uniform))
        emb_bits = tuple(map(max, a.embedding_bits, b.embedding_bits))
        per_layer = [tuple(map(max, x, y)) for x, y in zip(a.layer_bits, b.layer_bits)]
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
