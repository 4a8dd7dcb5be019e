"""Run one workload several times and summarise each end-to-end metric.

    python3 perfbench/compare.py --workload smat-pbit --runs 10 --first-seed 1

Runs `run.py` once per seed (first-seed, first-seed + 1, ...), one run at a
time, and prints for every end-to-end metric its median, first and third
quartile (`statistics.quantiles(values, n=4)`) and the quartile spread as a
share of the median, next to the bound in BENCHMARK.json.  `--json FILE`
also writes every run's result and the summary, so the runs of a change can
be compared with the parent's: a metric has regressed when the change's
median is worse than the parent's by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(results: list[dict], bench: dict) -> dict:
    summary = {}
    for spec in bench["end_to_end"]:
        name = spec["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": spec["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "bound": spec["bound"],
        }
    shares = {r["failed"] / r["attempted"] for r in results}
    summary["failed_share"] = sorted(shares)
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", type=Path, help="write the runs and the summary here")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = summarise(results, bench)
    print(f"\n{args.workload}: {args.runs} runs, failed share {summary['failed_share']}")
    print(f"{'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for spec in bench["end_to_end"]:
        s = summary[spec["name"]]
        print(f"{spec['name']:16} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:8.4f} {s['bound']:6.2f}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "runs": results, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
