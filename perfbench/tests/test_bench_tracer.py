"""The span tracer: bindings, restoration, self time, and repeatable counts."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import exact_xformer  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from exact_xformer import elementary, evaluator, rational, verify  # noqa: E402
from tracer import SpanTracer  # noqa: E402

# The cheapest class of each workload, and a budgeted op for the slack.
SMALL = {
    "ahat-exact": "majority",
    "smat-pbit": "p24-n8",
    "budgeted-cert": "n2-eps16",
    "verify-suites": "sqrt-p24",
}


def _small_ops():
    """One operation of one class per workload, bound to freshly parsed models."""
    out = []
    for workload, cls in SMALL.items():
        pl = workloads.plan(workload, 3)
        models = run.parse_all(exact_xformer, [workloads.zoo.to_text(d) for d in pl.docs])
        op = next(op for op in pl.ops if op.cls == cls)
        out.append((pl, op, run.Bound(op, exact_xformer, models)))
    return out


def _traced_pass():
    tracer = SpanTracer(run.trace_targets())
    ops = _small_ops()
    with tracer:
        results = [(pl, op, bound()) for pl, op, bound in ops]
    pl, op, value = next(r for r in results if r[1].entry == "eval_budgeted")
    slack = workloads.check_results(workloads.Plan(pl.docs, [op]), [value], exact_xformer).cert_slack_bits_min
    return tracer, {k: v["calls"] for k, v in tracer.summary().items()}, dict(tracer.bits_max), slack


def _bindings():
    return {
        "evaluator.f_exp": evaluator.f_exp,
        "verify.f_exp": verify.f_exp,
        "elementary.f_exp": elementary.f_exp,
        "package.eval_ahat": exact_xformer.eval_ahat,
        "evaluator.rat_max": evaluator.rat_max,
        "Rat.__add__": rational.Rat.__dict__["__add__"],
    }


def test_wraps_every_binding_and_restores_the_originals():
    before = _bindings()
    tracer = SpanTracer(run.trace_targets())
    with tracer:
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        assert during["verify.f_exp"] is during["evaluator.f_exp"] is during["elementary.f_exp"]
        exact_xformer.f_exp(exact_xformer.PFloat(12, -3, 4))
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    assert tracer.summary()["elementary.f_exp"]["calls"] == 1


def test_self_times_add_up_to_the_root_spans():
    tracer = SpanTracer(run.trace_targets())
    with tracer:
        for _, _, bound in _small_ops():
            bound()
    roots = sum(e - s for s, e, p in zip(tracer.span_start, tracer.span_end, tracer.span_parent) if p < 0)
    summary = tracer.summary()
    assert abs(sum(v["self_ms"] for v in summary.values()) - roots / 1e6) < 1e-6
    assert all(v["self_ms"] >= 0 for v in summary.values())
    assert summary["evaluator.eval_ahat"]["calls"] == summary["evaluator.eval_smat_pbit"]["calls"] == 1
    assert summary["budget.eval_budgeted"]["calls"] == summary["verify.run_suite"]["calls"] == 1
    assert tracer.summary() == summary  # folding again adds nothing


def test_counts_widths_and_slack_repeat_exactly():
    _, calls1, bits1, slack1 = _traced_pass()
    _, calls2, bits2, slack2 = _traced_pass()
    assert calls1 == calls2
    assert bits1 == bits2 and bits1["rational.Rat"] > 0 and bits1["elementary.rat_exp_approx"] > 0
    assert slack1 == slack2 and slack1 > 0
