"""Certified-error evaluation: plan per-site tolerances, then evaluate.

Everything in the budgeted regime is exact rational arithmetic except two
kinds of sites, exp (inside softmax) and inverse square root (inside
layernorm), each approximated by a dyadic to a site tolerance delta (a
softmax term far below its row maximum is flushed to zero inside that
delta; see softmax_budgeted), and the output, which is rounded to the
2^-g grid with 2^-g <= epsilon when its denominator exceeds 2^g.  That
rounding costs at most epsilon/2, so plan_budget walks the computation
graph backward from epsilon/2, dividing by Lipschitz constants through
exact stages and applying the two closed-form translations at
approximated sites:

    softmax       delta = min(1/2, eps/16)
    inverse sqrt  delta = min(c/2, c*sqrt(c)/((2c+1)*sqrt(2)) * eps)

In both, the single delta covers the site's input perturbation and its own
relative approximation error.  Irrational constants in the inverse-sqrt
formula are replaced by rational bounds in the conservative direction, so
every planned delta is at most the ideal one.

Activation magnitudes are bounded, never assumed: plan_budget runs
`forward` on the model's compiled rows (`compile_rows`, kept with the
model) with a magnitude backend (`_magnitude_backend`), over one position
whose one-entry vector bounds every input entry.  So the bounds follow the
stage order that is evaluated, and each matmul multiplies by an operator
infinity norm that is worked out once per model, not once per plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from .elementary import rat_exp_approx, rat_floor_log2, rat_sqrt_approx
from .errors import DomainError
from .evaluator import Backend, EvalTrace, check_heads, compile_rows, embed_input, exact_backend, forward
from .model_ir import LayerNorm, Model
from .rational import RAT_ONE, RAT_ZERO, Rat, rat_max, rat_sum

Tol = Optional[Rat]  # None = unconstrained (the stage's output is exact)

SQRT2_UPPER = Rat(665857, 470832)  # 665857^2 = 2*470832^2 + 1, so this exceeds sqrt(2)

RAT_HALF = Rat(1, 2)


@dataclass
class ErrorBudget:
    epsilon: Rat
    n: int
    site_deltas: dict[tuple, Rat] = field(default_factory=dict)
    stage_tolerances: dict[tuple, Tol] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Both dicts under dotted keys ("layer.0.out"), each value a
        rational string, or None for an unconstrained stage."""
        dotted = lambda d: {".".join(map(str, k)): None if v is None else str(v) for k, v in d.items()}
        return {"site_deltas": dotted(self.site_deltas), "stage_tolerances": dotted(self.stage_tolerances)}


class Decision(Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    BELOW_MARGIN = "below_margin"


# --------------------------------------------------------------------------
# rational bound helpers
# --------------------------------------------------------------------------


def sqrt_bounds(x: Rat, bits: int = 48) -> tuple[Rat, Rat]:
    """Rational lo <= sqrt(x) <= hi for x > 0, via integer square root."""
    if x.num <= 0:
        raise DomainError("sqrt_bounds needs x > 0")
    f = rat_floor_log2(x)
    shift = max(bits, bits - f // 2 + 8)
    scaled = (x.num << (2 * shift)) // x.den
    lo = math.isqrt(scaled)
    return Rat(lo, 1 << shift), Rat(lo + 2, 1 << shift)


def softmax_delta(eps: Rat) -> Rat:
    """Site tolerance making perturbed softmax deviate at most eps (<= 16*delta)."""
    if eps.num <= 0:
        raise DomainError("softmax_delta needs eps > 0")
    return min(RAT_HALF, eps * Rat(1, 16))


def invsqrt_delta(c: Rat, eps: Rat) -> Rat:
    """Site tolerance for 1/sqrt(x) on x >= c, conservative rational form."""
    if c.num <= 0:
        raise DomainError("invsqrt_delta needs c > 0")
    if eps.num <= 0:
        raise DomainError("invsqrt_delta needs eps > 0")
    sqrt_c_lo, _ = sqrt_bounds(c)
    factor = c * sqrt_c_lo / ((Rat(2) * c + RAT_ONE) * SQRT2_UPPER)
    return min(c * RAT_HALF, factor * eps)


def _vec_inf(vec: Sequence[Rat]) -> Rat:
    best = RAT_ZERO
    for x in vec:
        best = max(best, abs(x))
    return best


def _t_min(*ts: Tol) -> Tol:
    vals = [t for t in ts if t is not None]
    return min(vals) if vals else None


def _t_div(t: Tol, rho: Rat) -> Tol:
    """Input tolerance through a rho-Lipschitz exact stage."""
    if t is None or rho.num == 0:
        return None
    return t / rho


def _t_half(t: Tol) -> Tol:
    return None if t is None else t * RAT_HALF


# --------------------------------------------------------------------------
# magnitude bounds: `forward` on one bound per vector
# --------------------------------------------------------------------------


def _position_bound(model: Model) -> Rat:
    rule = model.position_rule
    if rule.kind == "none":
        return RAT_ZERO
    if rule.kind == "table":
        return max((_vec_inf(v) for v in rule.vectors), default=RAT_ZERO)
    return RAT_ONE  # i/n and 1/i both lie in (0, 1]


def _entry_bound(vec: tuple) -> Rat:
    """The largest |entry| of an exact vector (ints, D)."""
    ints, d = vec
    return Rat(max(map(abs, ints)), d)


def _magnitude_backend(records: dict) -> Backend:
    """Bounds for `forward`: each vector is the one-entry (c,), c >= every
    |entry|.  A matmul multiplies c by the operator infinity norm and adds
    the bias's largest |entry|; relu keeps c, and sums add the bounds.
    Attention weights are nonnegative with sum 1, so a context is bounded
    by its values' bound.  attend records (c_q, c_k, c_v) under (layer,
    head), and layernorm its input bound under (layer, site)."""

    def matmul(rows, vecs, biases=None):
        if biases is None:
            return [(rows.norm * c,) for (c,) in vecs]
        b = _entry_bound(biases)
        return [(rows.norm * c + b,) for (c,) in vecs]

    def attend(qs, ks, vs, layer, head, causal):
        ((c_q,),), ((c_k,),), ((c_v,),) = qs, ks, vs  # one position
        records[layer, head] = c_q, c_k, c_v
        return vs

    def layernorm(x, ln, layer, site):
        records[layer, site] = x[0]
        return (_ln_bound(x[0], ln),)

    total = lambda vectors: (rat_sum([c for (c,) in vectors]),)
    return Backend(lambda vec: vec, matmul, total, lambda u, v: (u[0] + v[0],), attend, layernorm)


def _magnitudes(compiled: Model) -> dict:
    """The records of `_magnitude_backend` over one position whose bound
    covers every token embedding plus position vector."""
    c_in = max(map(_entry_bound, compiled.token_embeddings.values()), default=RAT_ZERO)
    records: dict = {}
    forward(compiled, [(c_in + _position_bound(compiled),)], _magnitude_backend(records))
    return records


def _ln_bound(c_in: Rat, ln: LayerNorm) -> Rat:
    # |dev| <= 2*c_in, u_hat <= 1.5/sqrt(c): bound 3*c_in*gamma_max/sqrt(c) + beta_max
    sqrt_c_lo, _ = sqrt_bounds(ln.c)
    return Rat(3) * c_in * _vec_inf(ln.gamma) / sqrt_c_lo + _vec_inf(ln.beta)


# --------------------------------------------------------------------------
# backward tolerance walk
# --------------------------------------------------------------------------


def _ln_walk(tol: Tol, c_bound: Rat, ln: LayerNorm, site: tuple, budget: ErrorBudget) -> Tol:
    """Assign the inverse-sqrt site delta; return the layernorm input tolerance."""
    gamma_max = _vec_inf(ln.gamma)
    if gamma_max.num == 0 or tol is None:
        budget.site_deltas[site] = RAT_HALF  # output unaffected by the site
        return None if gamma_max.num == 0 else tol
    sqrt_c_lo, _ = sqrt_bounds(ln.c)
    inv_sqrt_c_hi = RAT_ONE / sqrt_c_lo
    half = tol * RAT_HALF
    # deviation slice: |dev| * |du| * gamma_max <= half, |dev| <= 2*c_bound + 1
    eps_u = half / (gamma_max * (Rat(2) * c_bound + RAT_ONE))
    delta = invsqrt_delta(ln.c, eps_u)
    budget.site_deltas[site] = delta
    # direct slice: 2*dx * u_hat * gamma_max <= half with u_hat <= 1.5/sqrt(c)
    t_direct = half / (gamma_max * Rat(3) * inv_sqrt_c_hi)
    # variance must stay within delta: |dvar| <= (8*c_bound + 4) * dx for dx <= 1
    t_var = delta / (Rat(8) * c_bound + Rat(4))
    return _t_min(t_direct, t_var, RAT_ONE)


def plan_budget(model: Model, n: int, epsilon: Rat) -> ErrorBudget:
    """Backward tolerance walk from a target output error epsilon.

    The walk starts from epsilon/2: the other half pays for rounding the
    output to the epsilon grid (see _eval_planned).
    """
    if epsilon.num <= 0:
        raise DomainError("epsilon must be > 0")
    if n < 1:
        raise DomainError("n must be >= 1")
    compiled = compile_rows(model)
    bounds = _magnitudes(compiled)
    budget = ErrorBudget(epsilon=epsilon, n=n)

    budget.stage_tolerances[("output",)] = epsilon
    tol: Tol = _t_div(epsilon * RAT_HALF, compiled.output_head.weights.norm)

    for li in range(len(compiled.layers) - 1, -1, -1):
        layer = compiled.layers[li]
        budget.stage_tolerances[("layer", li, "out")] = tol
        if layer.layernorm_ffnn is not None:
            tol = _ln_walk(tol, bounds[li, "ln_ffnn"], layer.layernorm_ffnn, ("layer", li, "ln_ffnn"), budget)
        if layer.residual_ffnn:
            t_resid = _t_half(tol)
            t_ffnn = _t_half(tol)
        else:
            t_resid, t_ffnn = None, tol
        rho_ffnn = layer.ffnn.w2.norm * layer.ffnn.w1.norm
        tol = _t_min(t_resid, _t_div(t_ffnn, rho_ffnn))
        budget.stage_tolerances[("layer", li, "ffnn_in")] = tol
        if layer.layernorm_attn is not None:
            tol = _ln_walk(tol, bounds[li, "ln_attn"], layer.layernorm_attn, ("layer", li, "ln_attn"), budget)
        budget.stage_tolerances[("layer", li, "attn_out")] = tol

        shares = len(layer.heads) + (1 if layer.residual_attn else 0)
        slice_tol = None if tol is None else tol / Rat(shares)
        t_x = slice_tol if layer.residual_attn else None
        for hi, head in enumerate(layer.heads):
            c_q, c_k, c_v = bounds[li, hi]
            t_u = _t_div(slice_tol, head.w_o.norm)
            # context error <= n * dalpha * c_v + dvalue (weights sum to exactly 1)
            eps_alpha = None
            if t_u is not None and c_v.num != 0:
                eps_alpha = _t_half(t_u) / (Rat(n) * c_v)
            delta_sm = softmax_delta(eps_alpha) if eps_alpha is not None else RAT_HALF
            budget.site_deltas[("layer", li, "head", hi, "softmax")] = delta_sm
            rho_score = Rat(model.dim) * (c_q * head.w_k.norm + c_k * head.w_q.norm)
            if rho_score.num != 0:
                rho_score = rho_score + RAT_ONE  # absorbs the second-order dq*dk term
            t_x_score = _t_div(delta_sm if eps_alpha is not None else None, rho_score)
            t_x_value = _t_div(_t_half(t_u), head.w_v.norm)
            t_x = _t_min(t_x, t_x_score, t_x_value)
        tol = _t_min(t_x, RAT_ONE)
        budget.stage_tolerances[("layer", li, "input")] = tol
    return budget


# --------------------------------------------------------------------------
# budgeted evaluation
# --------------------------------------------------------------------------


def _bits_for(delta: Rat) -> int:
    return max(1, -rat_floor_log2(delta))


def softmax_budgeted(scores: Sequence[Rat], delta: Rat) -> list[Rat]:
    """Softmax with exp approximated to relative error delta, otherwise exact.

    Scores are shifted by the row maximum first (an exact identity on the
    softmax), so tiny deltas never force exp of large-magnitude arguments.

    A term with exp(s - top) <= 2^-T, T = bits + n.bit_length() and
    2^-bits <= delta, is flushed to zero (tested as 10*(s - top) <= -7*T,
    since log 2 < 7/10); otherwise its exp would carry a 2^|k| denominator,
    k ~ (s - top)/log 2, into every weight of the row.  The top term is
    exactly 1, so the row total stays >= 1 and flushing moves each weight
    by less than n * 2^-T <= delta.  With score and exp relative errors
    within delta, the unflushed weights deviate at most
    e^(2 delta) (1 + delta)/(1 - delta) - 1 <= 4.6 delta for delta <= 1/16,
    so every weight stays within 16*delta of the true softmax; for
    delta > 1/16, 16*delta exceeds any deviation of a weight in [0, 1].
    """
    if len(scores) == 0:
        raise DomainError("softmax of an empty score row")
    bits = _bits_for(delta)
    top = rat_max(scores)
    cut = 7 * (bits + len(scores).bit_length())
    nums = []
    for s in scores:
        x = s - top
        nums.append(RAT_ZERO if 10 * x.num <= -cut * x.den else rat_exp_approx(x, bits))
    total = rat_sum(nums)
    return [e / total for e in nums]


def layernorm_budgeted(x: list[Rat], ln: LayerNorm, delta: Rat) -> list[Rat]:
    """Layernorm with 1/sqrt approximated to relative error delta."""
    d = len(x)
    mean = rat_sum(x) * Rat(1, d)
    devs = [xi - mean for xi in x]
    var = rat_sum([dv * dv for dv in devs]) * Rat(1, d)
    root = rat_sqrt_approx(var + ln.c, _bits_for(delta) + 1)
    u = RAT_ONE / root
    return [dv * u * g + b for dv, g, b in zip(devs, ln.gamma, ln.beta)]


def eval_budgeted(model: Model, w: str, epsilon: Rat) -> Rat:
    """Output within epsilon of the exact real-valued softmax transformer."""
    return _eval_planned(model, w, epsilon)[0]


def _round_to_grid(x: Rat, g: int) -> Rat:
    """x unchanged if its denominator is at most 2^g, else the nearest
    multiple of 2^-g (ties up), within 2^-(g+1) of x."""
    if x.den <= 1 << g:
        return x
    return Rat(((x.num << (g + 1)) + x.den) // (2 * x.den), 1 << g)


def _eval_planned(model: Model, w: str, epsilon: Rat) -> tuple[Rat, EvalTrace]:
    """eval_budgeted's output and its trace, with the one budget planned for it.

    The exact forward value is within epsilon/2 of the truth (the planned
    share); rounding it to the 2^-g grid, 2^-g <= epsilon, costs at most
    another 2^-(g+1) <= epsilon/2 and bounds the output's width by g bits
    below the point.
    """
    check_heads(model, "softmax", "the budgeted contract covers softmax heads")
    compiled = compile_rows(model)
    xs = embed_input(model, w)
    budget = plan_budget(model, len(xs), epsilon)
    deltas = budget.site_deltas
    backend = exact_backend(
        lambda scores, li, hi: softmax_budgeted(scores, deltas[("layer", li, "head", hi, "softmax")]),
        lambda x, ln, li, site: layernorm_budgeted(x, ln, deltas[("layer", li, site)]),
    )
    ((num,), den), states, final = forward(compiled, xs, backend)
    return _round_to_grid(Rat(num, den), _bits_for(epsilon)), EvalTrace(xs, states, final, budget)


def margin_recognize(model: Model, w: str, epsilon_margin: Rat) -> Decision:
    """Budgeted decision: correct whenever the true margin exceeds epsilon."""
    if epsilon_margin.num <= 0:
        raise DomainError("margin must be > 0")
    t_hat = eval_budgeted(model, w, epsilon_margin)
    if t_hat.num > 0:
        return Decision.ACCEPT
    if t_hat.num < 0:
        return Decision.REJECT
    return Decision.BELOW_MARGIN
