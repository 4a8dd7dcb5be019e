"""Benchmark entry point: run one workload with one seed and print its metrics.

    python3 perfbench/run.py --workload ahat-exact --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; the library is imported from
`src/`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones, measured untraced; with `--trace 1` they
are the per-layer ones, from a traced round compared with an untraced one.
Every time is scaled by the run's machine-speed probe (`calibrate.py`).
A copy of the result, with per-class latencies and the raw wall-clock
figures, goes to `BENCH_<workload>_s<seed>[_trace].json` in the checkout root.

Everything runs in this one single-threaded process, except that an
operation marked `guarded` runs in a forked child under a time limit (a long
integer operation cannot be interrupted by a signal).  The process starts no
threads, which is what makes `fork` safe here.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import select
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibrate import Probe  # noqa: E402
from tracer import SpanTracer, Target  # noqa: E402

PACKAGE = "exact_xformer"
SETUP_REPEATS = 5
MIN_ROUNDS = 2  # rounds (pairs, when traced) a run makes however long they take
SETUP_PROBES = 5  # probes before the first set-up and after each
PAIR_PROBES = 5  # probes after each round of a traced run


# --------------------------------------------------------------------------
# per-layer targets of the traced run
# --------------------------------------------------------------------------

def trace_targets():
    """The wrapped functions, their metric names and width groups."""
    rat = [("__add__", "add"), ("__sub__", "sub"), ("__mul__", "mul"), ("__truediv__", "truediv")]
    fns = {
        "rational": ["rat_sum", "rat_max"],
        "evaluator": ["eval_ahat", "embed_input", "ahardmax_weights", "eval_smat_pbit", "softmax_pbit", "layernorm_pbit"],
        "elementary": ["f_exp", "f_sqrt", "rat_exp_approx", "rat_sqrt_approx"],
        "pfloat": ["f_sum_blocks", "f_mul", "f_add", "f_div", "round_p", "f_sum_oracle"],
        "budget": ["eval_budgeted", "plan_budget", "softmax_budgeted", "layernorm_budgeted"],
        "verify": ["run_suite", "exp_enclosure", "sqrt_round_oracle"],
        "model_ir": ["parse_model"],
    }
    widths = {"rat_exp_approx": "elementary.rat_exp_approx", "rat_sqrt_approx": "elementary.rat_sqrt_approx"}
    targets = [Target("rational", f"Rat.{dunder}", f"rational.Rat.{short}", "rational.Rat") for dunder, short in rat]
    for module, names in fns.items():
        targets += [Target(module, fn, f"{module}.{fn}", widths.get(fn)) for fn in names]
    return targets


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = []
    targets = trace_targets()
    for t in targets:
        out += [(f"{t.name}.calls", "count"), (f"{t.name}.self_ms", "ms")]
    out += [(f"{g}.bits_max", "bits") for g in sorted({t.bits for t in targets if t.bits})]
    out += [("budget.cert_slack_bits_min", "bits"), ("trace.overhead_ratio", "ratio")]
    return out


# --------------------------------------------------------------------------
# set-up and operations
# --------------------------------------------------------------------------


class Bound:
    """One operation bound to parsed models; looks its entry point up per call."""

    __slots__ = ("op", "lib", "args", "kwargs")

    def __init__(self, op, lib, models):
        self.op = op
        self.lib = lib
        self.args, self.kwargs = op.call_args(lib, models)

    def __call__(self):
        result = getattr(self.lib, self.op.entry)(*self.args, **self.kwargs)
        return result[0] if self.op.entry == "eval_ahat" else result


def import_fresh():
    """Import the library anew, so each set-up starts with empty caches."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    return importlib.import_module(PACKAGE)


def parse_all(lib, texts):
    return [lib.parse_model(t) for t in texts]


def setup_once(workload: str, seed: int):
    """Import, build the zoo, parse every model, warm up one op per class."""
    t0 = time.perf_counter()
    lib = import_fresh()
    pl = workloads.plan(workload, seed)
    texts = [workloads.zoo.to_text(d) for d in pl.docs]
    models = parse_all(lib, texts)
    ops = [Bound(op, lib, models) for op in pl.ops]
    warm = workloads.warmup(workload)
    warm_models = parse_all(lib, [workloads.zoo.to_text(d) for d in warm.docs])
    for op in warm.ops:
        Bound(op, lib, warm_models)()
    return time.perf_counter() - t0, lib, pl, texts, ops


def run_guarded(fn, limit: float):
    """Run fn in a forked child; its Rat result, or None if it fails or overruns."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: report "num den" and leave without cleanup handlers
        os.close(read_fd)
        code = 1
        try:
            value = fn()
            os.write(write_fd, f"{value.num} {value.den}".encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        ready, _, _ = select.select([read_fd], [], [], limit)
        payload = b""
        if ready:
            while chunk := os.read(read_fd, 1 << 16):
                payload += chunk
        else:
            os.kill(pid, signal.SIGKILL)
    finally:
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
    if not payload or not os.WIFEXITED(status) or os.WEXITSTATUS(status) != 0:
        return None
    num, den = payload.split()
    return fn.lib.Rat(int(num), int(den))


def run_round(ops, latencies, per_class, tracer=None, probe=None):
    """One pass over the operation list; returns results (None = failed).

    Probes run between operations, outside their timings."""
    results = []
    for b in ops:
        t0 = time.perf_counter()
        if b.op.guarded:
            result = run_guarded(b, workloads.GUARD_SECONDS)
        else:
            result = b()
        dt = time.perf_counter() - t0
        if result is not None:
            latencies.append(dt)
            per_class.setdefault(b.op.cls, []).append(dt)
        if tracer is not None:
            tracer.fold()
        if probe is not None:
            probe.maybe()
        results.append(result)
    return results


def percentile(sorted_xs, q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-int(q * 1000) * len(sorted_xs) // 1000))
    return sorted_xs[rank - 1]


# --------------------------------------------------------------------------
# the two kinds of run
# --------------------------------------------------------------------------


def repeat(seconds: float, body) -> float:
    """Call body() at least MIN_ROUNDS times, then until the run stops at the
    round boundary nearest to `seconds`; returns the elapsed wall time."""
    start = last = time.perf_counter()
    calls = 0
    while True:
        body()
        calls += 1
        now = time.perf_counter()
        if calls >= MIN_ROUNDS and now - start + (now - last) / 2 >= seconds:
            return now - start
        last = now


def timed_run(ops, seconds: float, probe: Probe):
    """Rounds with probes between operations."""
    latencies, per_class, rounds = [], {}, []
    wall = repeat(seconds, lambda: rounds.append(run_round(ops, latencies, per_class, probe=probe)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return rounds, latencies, per_class, wall, peak_rss_mb


def traced_run(lib, texts, ops, seconds: float, probe: Probe):
    """Pairs of an untraced and a traced round, each parsing every model first.

    The overhead ratio compares the summed operation and parse times of the
    two rounds, so folding spans between operations is not counted.  Probes
    run between the rounds.
    """
    tracer = SpanTracer(trace_targets())
    summaries, ratios, rounds = [], [], []

    def pair():
        timings = []
        for traced in (False, True):
            tracer.reset()
            latencies = []
            with tracer if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                parse_all(lib, texts)
                parse_s = time.perf_counter() - t0
                rounds.append(run_round(ops, latencies, {}, tracer if traced else None))
            timings.append(parse_s + sum(latencies))
            probe.take(PAIR_PROBES)
        summaries.append((tracer.summary(), dict(tracer.bits_max)))
        ratios.append(timings[1] / timings[0])

    repeat(seconds, pair)
    return rounds, summaries, ratios


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / PACKAGE}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    # set-up times are scaled by the probes around them, the rest by the
    # probes of the timed phase
    setup_probe = Probe()
    setup_probe.take(SETUP_PROBES)
    setups = []
    for _ in range(SETUP_REPEATS):
        dt, lib, pl, texts, ops = setup_once(args.workload, args.seed)
        setups.append(dt)
        setup_probe.take(SETUP_PROBES)

    probe = Probe()

    metrics: dict[str, dict] = {}
    extra: dict = {"setup_s_each_raw": setups}
    if args.trace:
        rounds, summaries, ratios = traced_run(lib, texts, ops, args.seconds, probe)
    else:
        rounds, latencies, per_class, wall, rss = timed_run(ops, args.seconds, probe)
    scale = probe.scale()
    extra.update(probe_ms_median=probe.median_ms(), probes=len(probe.times), scale=scale,
                 setup_probe_ms_median=setup_probe.median_ms(), setup_scale=setup_probe.scale())
    if not args.trace:
        latencies.sort()
        completed = len(latencies)
        busy = sum(latencies)
        metrics["ops_per_s"] = {"value": completed / (scale * busy), "unit": "ops/s"}
        metrics["op_ms_p50"] = {"value": 1e3 * scale * percentile(latencies, 0.5), "unit": "ms"}
        metrics["op_ms_p90"] = {"value": 1e3 * scale * percentile(latencies, 0.9), "unit": "ms"}
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MiB"}
        metrics["setup_s"] = {"value": setup_probe.scale() * statistics.median(setups), "unit": "s"}
        extra.update(
            rounds=len(rounds),
            wall_s_raw=wall,
            samples=completed,
            raw={"ops_per_s": completed / busy, "op_ms_p50": 1e3 * percentile(latencies, 0.5),
                 "op_ms_p90": 1e3 * percentile(latencies, 0.9), "setup_s": statistics.median(setups)},
            classes={c: {"count": len(v), "median_ms": 1e3 * scale * statistics.median(v)} for c, v in sorted(per_class.items())},
        )

    # checks: outside the timed phase and outside set-up
    first = rounds[0]
    report = workloads.check_results(pl, first, lib)
    for k, other in enumerate(rounds[1:], start=2):
        if other != first:
            report.errors.append(f"round {k} returned other results than round 1")
    if args.workload == "verify-suites":
        sample = workloads.check_sample(args.seed, lib)
        report.errors += sample.errors
        report.value_bits_max = sample.value_bits_max
    attempted = sum(len(r) for r in rounds)
    failed = sum(1 for r in rounds for x in r if x is None)

    if args.trace:
        counts = [({fn: s["calls"] for fn, s in summary.items()}, widths) for summary, widths in summaries]
        if any(c != counts[0] for c in counts[1:]):
            report.errors.append("call counts or widths differ between traced rounds")
        values = {"budget.cert_slack_bits_min": report.cert_slack_bits_min or 0.0,
                  "trace.overhead_ratio": statistics.median(ratios)}
        first_summary, widths = summaries[0]
        for fn, stats in first_summary.items():
            values[f"{fn}.calls"] = stats["calls"]
            values[f"{fn}.self_ms"] = scale * statistics.median(summary[fn]["self_ms"] for summary, _ in summaries)
        values.update((f"{group}.bits_max", width) for group, width in widths.items())
        metrics.update((name, {"value": values[name], "unit": unit}) for name, unit in per_layer_names())
        extra["trace_rounds"] = len(summaries)
    else:
        metrics["value_bits_max"] = {"value": report.value_bits_max, "unit": "bits"}

    result = {"correct": not report.errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    for err in report.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    out = ROOT / f"BENCH_{args.workload}_s{args.seed}{'_trace' if args.trace else ''}.json"
    out.write_text(json.dumps({**result, "workload": args.workload, "seed": args.seed, **extra}, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
