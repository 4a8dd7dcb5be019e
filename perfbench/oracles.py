"""Reference computations written apart from the library.

They read the model JSON documents directly and share no code with
`exact_xformer`:

* `ahat_fraction` runs an average-hard model in `fractions.Fraction`;
* `softmax_mpmath` runs a softmax model (with layernorm) in `mpmath` at a
  chosen working precision and also returns the largest activation
  magnitude it met, which scales the p-bit tolerance;
* `round_fraction` rounds a rational to p bits, ties to even, for
  re-checking float results.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

import mpmath


def _params(doc: dict, num: Callable[[Fraction], object]):
    """Every rational string of the document converted once by `num`."""

    def vec(v):
        return [num(Fraction(x)) for x in v]

    def mat(m):
        return [vec(row) for row in m]

    def ln(node):
        if node is None:
            return None
        return vec(node["gamma"]), vec(node["beta"]), num(Fraction(node["c"]))

    layers = []
    for layer in doc["layers"]:
        heads = [
            (mat(h["w_q"]), mat(h["w_k"]), mat(h["w_v"]), mat(h["w_o"]), h["kind"], h["masking"])
            for h in layer["heads"]
        ]
        f = layer["ffnn"]
        ffnn = (mat(f["w1"]), vec(f["b1"]), f["activation"], mat(f["w2"]), vec(f["b2"]))
        layers.append(
            (heads, ffnn, ln(layer["layernorm_attn"]), ln(layer["layernorm_ffnn"]), layer["residual_attn"], layer["residual_ffnn"])
        )
    emb = {sym: vec(v) for sym, v in doc["token_embeddings"].items()}
    out = doc["output_head"]
    return emb, layers, vec(out["weights"]), num(Fraction(out["bias"]))


def _forward(doc: dict, word: str, num, normalize, sqrt, track) -> object:
    """One encoder pass; `normalize` turns a score row into weights."""
    dim = doc["dim"]
    n = len(word)
    emb, layers, w_out, b_out = _params(doc, num)
    rule = doc["position_rule"]
    zero = num(Fraction(0))

    def dot(u, v):
        total = zero
        for a, b in zip(u, v):
            total = total + a * b
        return total

    def matvec(m, v):
        return [dot(row, v) for row in m]

    def layernorm(x, params):
        gamma, beta, c = params
        mean = sum(x, zero) / len(x)
        devs = [xi - mean for xi in x]
        var = sum((d * d for d in devs), zero) / len(x)
        root = sqrt(var + c)
        return [d / root * g + b for d, g, b in zip(devs, gamma, beta)]

    xs = []
    for i, sym in enumerate(word, start=1):
        x = list(emb[sym])
        if rule["kind"] == "scaled_index":
            x[rule["coordinate"]] = x[rule["coordinate"]] + num(Fraction(i, n))
        elif rule["kind"] == "inverse_index":
            x[rule["coordinate"]] = x[rule["coordinate"]] + num(Fraction(1, i))
        elif rule["kind"] == "table":
            x = [a + num(Fraction(b)) for a, b in zip(x, rule["vectors"][i - 1])]
        xs.append(x)
    track(xs)

    for heads, (w1, b1, act, w2, b2), ln_attn, ln_ffnn, res_attn, res_ffnn in layers:
        head_outs = []
        for w_q, w_k, w_v, w_o, _kind, masking in heads:
            qs = [matvec(w_q, x) for x in xs]
            ks = [matvec(w_k, x) for x in xs]
            vs = [matvec(w_v, x) for x in xs]
            outs = []
            for i in range(n):
                js = range(i + 1) if masking == "causal" else range(n)
                alphas = normalize([dot(qs[i], ks[j]) for j in js])
                ctx = [zero] * dim
                for a, j in zip(alphas, js):
                    ctx = [c + a * v for c, v in zip(ctx, vs[j])]
                outs.append(matvec(w_o, ctx))
            head_outs.append(outs)
        nxt = []
        for i in range(n):
            acc = list(xs[i]) if res_attn else [zero] * dim
            for outs in head_outs:
                acc = [a + b for a, b in zip(acc, outs[i])]
            if ln_attn is not None:
                acc = layernorm(acc, ln_attn)
            hidden = [h + b for h, b in zip(matvec(w1, acc), b1)]
            if act == "relu":
                hidden = [h if h > 0 else zero for h in hidden]
            f = [y + b for y, b in zip(matvec(w2, hidden), b2)]
            h = [a + b for a, b in zip(acc, f)] if res_ffnn else f
            if ln_ffnn is not None:
                h = layernorm(h, ln_ffnn)
            track([acc, hidden, h])
            nxt.append(h)
        xs = nxt
    value = dot(w_out, xs[-1]) + b_out
    track([[value]])
    return value


def _hardmax(scores: list[Fraction]) -> list[Fraction]:
    top = max(scores)
    share = Fraction(1, sum(1 for s in scores if s == top))
    return [share if s == top else Fraction(0) for s in scores]


def ahat_fraction(doc: dict, word: str) -> Fraction:
    """Exact output of an average-hard model without layernorm."""
    for layer in doc["layers"]:
        if layer["layernorm_attn"] is not None or layer["layernorm_ffnn"] is not None:
            raise ValueError("the Fraction pass has no square root, so no layernorm")
    return _forward(doc, word, lambda q: q, _hardmax, None, lambda vecs: None)


def softmax_mpmath(doc: dict, word: str, prec: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(output, largest activation magnitude) of a softmax model at `prec` bits."""
    peak = [mpmath.mpf(1)]

    def num(q: Fraction):
        return mpmath.mpf(q.numerator) / q.denominator

    def softmax(scores):
        top = max(scores)
        exps = [mpmath.exp(s - top) for s in scores]
        total = mpmath.fsum(exps)
        return [e / total for e in exps]

    def track(vecs):
        for vec in vecs:
            for x in vec:
                if abs(x) > peak[0]:
                    peak[0] = abs(x)

    with mpmath.workprec(prec):
        value = _forward(doc, word, num, softmax, mpmath.sqrt, track)
        return +value, +peak[0]


def round_fraction(x: Fraction, p: int) -> tuple[int, int]:
    """(m, e) with 2^(p-1) <= |m| < 2^p nearest to x, ties to even; zero is (0, 0)."""
    if x == 0:
        return 0, 0
    sign = 1 if x > 0 else -1
    a = abs(x)
    e = a.numerator.bit_length() - a.denominator.bit_length() - p
    while a >= Fraction(1 << p) * Fraction(2) ** e:
        e += 1
    while a < Fraction(1 << (p - 1)) * Fraction(2) ** e:
        e -= 1
    scaled = a / Fraction(2) ** e
    m = scaled.numerator // scaled.denominator
    rest = scaled - m
    if rest > Fraction(1, 2) or (rest == Fraction(1, 2) and m % 2 == 1):
        m += 1
    if m == 1 << p:
        m, e = m >> 1, e + 1
    return sign * m, e
