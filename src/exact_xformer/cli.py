"""Command-line front end.

Subcommands:
  eval       evaluate a model on an input word (exact, p-bit, or budgeted)
  verify     run the property suites against their independent oracles
  bitgrowth  measure exact-arithmetic bit growth across input lengths

Exit codes: 0 success, 1 a verify suite reported failures, 2 usage or
model-loading errors (including mode mismatches), 3 numeric range errors
and undecided outcomes (overflow, tie, below-margin).

JSON output (--json) is byte-deterministic for fixed inputs: keys are
sorted and no timing information is included.  Human output may include
elapsed time.  Decimal renderings of values are advisory; the rational
strings and float triples are the normative values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from .budget import _eval_planned
from .errors import DomainError, EvalModeError, FloatRangeError, ModelLoadError
from .evaluator import bit_growth_trace, eval_ahat, eval_smat_pbit, fit_loglog_slope
from .model_ir import BUILTIN_MODELS, load_model
from .pfloat import PFloat, decimal_str, round_p
from .rational import Rat
from .verify import SUITES, run_all, run_suite

ENV_SEED = "EXACT_XFORMER_SEED"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RANGE = 3


def _decimal_of_rat(r: Rat) -> str:
    if r.num == 0:
        return "0"
    return decimal_str(round_p(r, 64))


def _value_json(value) -> dict:
    if isinstance(value, PFloat):
        d = value.to_json_dict()
        d["decimal_approx"] = decimal_str(value)
        return d
    return {"rat": str(value), "decimal_approx": _decimal_of_rat(value)}


def _value_human(value) -> str:
    if isinstance(value, PFloat):
        return f"<{value.m}|{value.e}> at p={value.p} (~ {decimal_str(value)})"
    return f"{value} (~ {_decimal_of_rat(value)})"


def _site_key(key: tuple) -> str:
    return ".".join(str(part) for part in key)


def _parse_rat_arg(parser: argparse.ArgumentParser, text: str, flag: str) -> Rat:
    try:
        return Rat.from_string(text)
    except DomainError:
        parser.error(f"{flag} expects a rational like 3/4, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exact-xformer",
        description="Exact and precision-tracked transformer evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a model on an input word")
    p_eval.add_argument(
        "--model",
        required=True,
        help=f"model file path or builtin name ({', '.join(sorted(BUILTIN_MODELS))})",
    )
    p_eval.add_argument("--input", required=True, help="input word over the model alphabet")
    p_eval.add_argument(
        "--mode",
        required=True,
        choices=("ahat", "smat", "budgeted"),
        help="ahat: exact rational; smat: p-bit floats; budgeted: certified error budget",
    )
    p_eval.add_argument("--precision", type=int, help="significand bits (smat mode)")
    p_eval.add_argument("--epsilon", help="output error budget, a rational (budgeted mode)")
    p_eval.add_argument("--trace", action="store_true", help="include evaluation diagnostics")
    p_eval.add_argument("--json", action="store_true", help="machine-readable output")

    p_verify = sub.add_parser("verify", help="run property suites")
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=SUITES + ("all",),
        help="which suite to run (default: all)",
    )
    p_verify.add_argument("--p", type=int, help="significand bits for precision-indexed suites")
    p_verify.add_argument("--cases", type=int, help="number of cases (suites with generators)")
    p_verify.add_argument(
        "--seed",
        type=int,
        help=f"base seed; default: ${ENV_SEED} if set, else 0",
    )
    p_verify.add_argument("--json", action="store_true", help="machine-readable output")

    p_bits = sub.add_parser("bitgrowth", help="measure bit growth over input lengths")
    p_bits.add_argument("--model", required=True, help="model file path or builtin name")
    p_bits.add_argument(
        "--lengths",
        default="4,8,16,32,64,128,256",
        help="comma-separated input lengths (default: 4,8,16,32,64,128,256)",
    )
    p_bits.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------


def _cmd_eval(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.mode == "smat":
        if args.precision is None:
            parser.error("--precision is required with --mode smat")
        if args.precision < 1:
            parser.error("--precision must be a positive integer")
    if args.mode == "budgeted":
        if args.epsilon is None:
            parser.error("--epsilon is required with --mode budgeted")
        eps = _parse_rat_arg(parser, args.epsilon, "--epsilon")
        if not eps > Rat(0):
            parser.error("--epsilon must be positive")
    if not args.input:
        parser.error("--input must be a nonempty word")

    try:
        model = load_model(args.model)
    except ModelLoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    started = time.perf_counter()
    trace_info: Optional[dict] = None
    try:
        if args.mode == "ahat":
            value, trace = eval_ahat(model, args.input)
            if args.trace:
                trace_info = {
                    "embedding_bits": list(trace.embedding_bits),
                    "layer_bits": [list(pair) for pair in trace.layer_bits],
                }
        elif args.mode == "smat":
            value = eval_smat_pbit(model, args.input, args.precision)
            if args.trace:
                trace_info = {"precision": args.precision}
        else:
            value, budget = _eval_planned(model, args.input, eps)
            if args.trace:
                trace_info = {
                    "site_deltas": {
                        _site_key(k): str(v) for k, v in budget.site_deltas.items()
                    },
                    "stage_tolerances": {
                        _site_key(k): (None if v is None else str(v))
                        for k, v in budget.stage_tolerances.items()
                    },
                }
    except (EvalModeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FloatRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    elapsed = time.perf_counter() - started

    if value.sign > 0:
        decision = "accept"
    elif value.sign < 0:
        decision = "reject"
    else:
        decision = "below_margin" if args.mode == "budgeted" else "tie"

    if args.json:
        payload = {
            "command": "eval",
            "decision": decision,
            "input": args.input,
            "mode": args.mode,
            "model": args.model,
            "value": _value_json(value),
        }
        if args.mode == "smat":
            payload["precision"] = args.precision
        if args.mode == "budgeted":
            payload["epsilon"] = str(eps)
        if trace_info is not None:
            payload["trace"] = trace_info
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"model: {args.model}")
        print(f"input: {args.input}")
        print(f"mode: {args.mode}")
        if args.mode == "smat":
            print(f"precision: {args.precision}")
        if args.mode == "budgeted":
            print(f"epsilon: {eps}")
        print(f"value: {_value_human(value)}")
        print(f"decision: {decision}")
        if trace_info is not None:
            for key, val in trace_info.items():
                print(f"trace.{key}: {val}")
        print(f"elapsed: {elapsed:.3f}s")

    return EXIT_RANGE if decision in ("tie", "below_margin") else EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    seed = args.seed
    if seed is None:
        raw = os.environ.get(ENV_SEED, "0")
        try:
            seed = int(raw)
        except ValueError:
            print(f"error: ${ENV_SEED} must be an integer, got {raw!r}", file=sys.stderr)
            return EXIT_USAGE
    if args.cases is not None and args.cases < 1:
        parser.error("--cases must be a positive integer")
    if args.p is not None and args.p < 1:
        parser.error("--p must be a positive integer")

    started = time.perf_counter()
    try:
        if args.suite == "all":
            results = run_all(p=args.p, cases=args.cases, seed=seed)
        else:
            results = [run_suite(args.suite, p=args.p, cases=args.cases, seed=seed)]
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    elapsed = time.perf_counter() - started
    total_failures = sum(len(r.failures) for r in results)

    if args.json:
        payload = {
            "command": "verify",
            "passed": total_failures == 0,
            "seed": seed,
            "suites": [r.to_json_dict() for r in results],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in results:
            tag = "PASS" if r.passed else "FAIL"
            p_part = f" (p={r.p})" if r.p is not None else ""
            print(f"suite {r.suite}{p_part}: {r.cases} cases, {len(r.failures)} failures [{tag}]")
            for f in r.failures[:10]:
                print(f"  {f.kind} @ {f.case_seed}: {f.detail}")
            if len(r.failures) > 10:
                print(f"  ... and {len(r.failures) - 10} more")
        print(f"overall: {'PASS' if total_failures == 0 else 'FAIL'} ({total_failures} failures)")
        print(f"elapsed: {elapsed:.3f}s")

    return EXIT_OK if total_failures == 0 else EXIT_VERIFY_FAIL


# --------------------------------------------------------------------------
# bitgrowth
# --------------------------------------------------------------------------


def _cmd_bitgrowth(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    try:
        lengths = [int(part) for part in args.lengths.split(",") if part.strip()]
    except ValueError:
        parser.error(f"--lengths expects comma-separated integers, got {args.lengths!r}")
    if len(lengths) < 2 or any(n < 1 for n in lengths):
        parser.error("--lengths needs at least two positive lengths")

    try:
        model = load_model(args.model)
    except ModelLoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    started = time.perf_counter()
    try:
        rows = bit_growth_trace(model, lengths)
        slope = fit_loglog_slope(rows)
    except (EvalModeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    elapsed = time.perf_counter() - started

    if args.json:
        payload = {
            "command": "bitgrowth",
            "model": args.model,
            "rows": [
                {
                    "embedding_bits": list(row["embedding_bits"]),
                    "layer_bits": [list(pair) for pair in row["layer_bits"]],
                    "max_bits": row["max_bits"],
                    "n": row["n"],
                }
                for row in rows
            ],
            "slope": slope,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"model: {args.model}")
        print(f"{'n':>6}  {'max_bits':>9}  layer_bits")
        for row in rows:
            print(f"{row['n']:>6}  {row['max_bits']:>9}  {row['layer_bits']}")
        print(f"log-log slope: {slope:.4f}")
        print(f"elapsed: {elapsed:.3f}s")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "eval":
            return _cmd_eval(parser, args)
        if args.command == "verify":
            return _cmd_verify(parser, args)
        return _cmd_bitgrowth(parser, args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
