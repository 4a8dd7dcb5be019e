"""Command-line front end.

Subcommands:
  eval       evaluate a model on an input word (exact, p-bit, or budgeted)
  verify     run the property suites against their independent oracles
  bitgrowth  measure exact-arithmetic bit growth across input lengths

Exit codes: 0 success; 1 a verify suite reported failures; 2 a usage error,
ModelLoadError, EvalModeError (model and mode do not fit) or DomainError; 3
FloatRangeError (overflow) or an undecided outcome (a value past the
int-string limit, tie, below-margin).  main maps each library error to its
code in one place and prints it as one "error:" line, with nothing on stdout.

JSON output (--json) is byte-deterministic for fixed inputs: keys are
sorted and no timing information is included.  --trace adds one trace in
every mode: the widths of the embedded inputs and of each layer's outputs
(evaluator.EvalTrace), and in budgeted mode the budget plan.  Human output may include
elapsed time.  Decimal renderings of values are advisory; the rational
strings and float triples are the normative values.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from typing import Optional

from .budget import _eval_planned
from .errors import DomainError, EvalModeError, FloatRangeError, ModelLoadError
from .evaluator import _eval_smat, bit_growth_trace, eval_ahat, fit_loglog_slope
from .model_ir import BUILTIN_MODELS, load_model
from .pfloat import PFloat, decimal_str, round_p
from .rational import Rat
from .verify import SUITES, run_all, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RANGE = 3

# The exit code of each library error a command may raise.
_EXIT_OF_ERROR = {
    ModelLoadError: EXIT_USAGE,
    EvalModeError: EXIT_USAGE,
    DomainError: EXIT_USAGE,
    FloatRangeError: EXIT_RANGE,
}


def _int_str_limit() -> int:
    """The interpreter's int-string digit limit; 0 when it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _decimal(value) -> str:
    """The advisory decimal of a float, or of an exact value rounded to 64 bits."""
    return decimal_str(value if isinstance(value, PFloat) else round_p(value, 64))


def _value_json(value) -> dict:
    d = value.to_json_dict() if isinstance(value, PFloat) else {"rat": str(value)}
    d["decimal_approx"] = _decimal(value)
    return d


def _value_human(value) -> str:
    normative = f"<{value.m}|{value.e}> at p={value.p}" if isinstance(value, PFloat) else str(value)
    return f"{normative} (~ {_decimal(value)})"


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
    p_eval.add_argument("--trace", action="store_true", help="add operand widths per layer, in every mode (and the budget plan)")

    p_verify = sub.add_parser("verify", help="run property suites")
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=SUITES + ("all",),
        help="which suite to run (default: all)",
    )
    p_verify.add_argument("--p", type=int, help="significand bits for precision-indexed suites")
    p_verify.add_argument("--cases", type=int, help="number of cases (suites with generators)")
    p_verify.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")

    p_bits = sub.add_parser("bitgrowth", help="measure bit growth over input lengths")
    p_bits.add_argument("--model", required=True, help="model file path or builtin name")
    p_bits.add_argument(
        "--lengths",
        default="4,8,16,32,64,128,256",
        help="comma-separated input lengths (default: 4,8,16,32,64,128,256)",
    )
    for command in (p_eval, p_verify, p_bits):
        command.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------


def _render_eval(as_json: bool, fields: dict, value, decision: str, trace_info: Optional[dict], elapsed: float) -> str:
    """The eval report, JSON or human; raises ValueError when a number is
    past the int-string limit."""
    if as_json:
        payload = {"command": "eval", "decision": decision, **fields, "value": _value_json(value)}
        if trace_info is not None:
            payload["trace"] = trace_info
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = [f"{key}: {val}" for key, val in fields.items()]
    lines += [f"value: {_value_human(value)}", f"decision: {decision}"]
    if trace_info is not None:
        lines += [f"trace.{key}: {val}" for key, val in trace_info.items()]
    lines.append(f"elapsed: {elapsed:.3f}s")
    return "\n".join(lines)


def _cmd_eval(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    # the report's fields: the arguments, and each mode's own parameter
    fields = {"model": args.model, "input": args.input, "mode": args.mode}
    if args.mode == "smat":
        if args.precision is None:
            parser.error("--precision is required with --mode smat")
        if args.precision < 1:
            parser.error("--precision must be a positive integer")
        # a p-bit significand prints in at most `limit` digits iff 2^p < 10^limit
        limit = _int_str_limit()
        if limit and args.precision >= (10**limit).bit_length():
            print(f"error: --precision {args.precision} is past the {limit}-digit int-string limit", file=sys.stderr)
            return EXIT_USAGE
        fields["precision"] = args.precision
    eps = None
    if args.mode == "budgeted":
        if args.epsilon is None:
            parser.error("--epsilon is required with --mode budgeted")
        eps = _parse_rat_arg(parser, args.epsilon, "--epsilon")
        if not eps > Rat(0):
            parser.error("--epsilon must be positive")
        fields["epsilon"] = str(eps)
    if not args.input:
        parser.error("--input must be a nonempty word")

    model = load_model(args.model)
    started = time.perf_counter()
    if args.mode == "ahat":
        value, trace = eval_ahat(model, args.input)
    elif args.mode == "smat":
        value, trace = _eval_smat(model, args.input, args.precision)
    else:
        value, trace = _eval_planned(model, args.input, eps)
    elapsed = time.perf_counter() - started
    trace_info = trace.to_json_dict() if args.trace else None

    if value.sign > 0:
        decision = "accept"
    elif value.sign < 0:
        decision = "reject"
    else:
        decision = "below_margin" if args.mode == "budgeted" else "tie"

    # render before printing: an exact value can be past the int-string limit
    try:
        text = _render_eval(args.json, fields, value, decision, trace_info, elapsed)
    except ValueError:
        print(f"error: the value is past the {_int_str_limit()}-digit int-string limit", file=sys.stderr)
        return EXIT_RANGE
    print(text)

    return EXIT_RANGE if decision in ("tie", "below_margin") else EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.cases is not None and args.cases < 1:
        parser.error("--cases must be a positive integer")
    if args.p is not None and args.p < 1:
        parser.error("--p must be a positive integer")

    started = time.perf_counter()
    if args.suite == "all":
        results = run_all(p=args.p, cases=args.cases, seed=args.seed)
    else:
        results = [run_suite(args.suite, p=args.p, cases=args.cases, seed=args.seed)]
    elapsed = time.perf_counter() - started
    total_failures = sum(len(r.failures) for r in results)

    if args.json:
        payload = {
            "command": "verify",
            "passed": total_failures == 0,
            "seed": args.seed,
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

    model = load_model(args.model)
    started = time.perf_counter()
    rows = bit_growth_trace(model, lengths)
    slope = fit_loglog_slope(rows)
    elapsed = time.perf_counter() - started

    if args.json:
        payload = {"command": "bitgrowth", "model": args.model, "rows": rows, "slope": slope}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"model: {args.model}")
        print(f"{'n':>6}  {'max_bits':>9}  layer_bits")
        for row in rows:
            print(f"{row['n']:>6}  {row['max_bits']:>9}  {row['layer_bits']}")
        print(f"log-log slope: {slope:.4f}")
        print(f"elapsed: {elapsed:.3f}s")
    return EXIT_OK


# argparse takes a value that starts with "-" for an option unless it looks
# like a negative number, and neither a fraction nor a list does; so main
# passes `eval --epsilon -1/2` on as `--epsilon=-1/2`, and `bitgrowth
# --lengths -4,8` as `--lengths=-4,8`, or any abbreviation of either option,
# and the value reaches the option's own check.  No other option of those
# commands starts with "--e" or "--l", and the tokens after "--" are left
# as they are.
_SPACED_NEGATIVES = {
    "eval": ("--epsilon", re.compile(r"-[0-9]+/[0-9]+")),
    "bitgrowth": ("--lengths", re.compile(r"-[0-9]+,.*")),
}


def _attach_negative_values(argv: list[str]) -> list[str]:
    if not argv or argv[0] not in _SPACED_NEGATIVES:
        return argv
    option, negative = _SPACED_NEGATIVES[argv[0]]
    out: list[str] = []
    for i, arg in enumerate(argv):
        if arg == "--":
            return out + argv[i:]
        if out and len(out[-1]) > 2 and option.startswith(out[-1]) and negative.fullmatch(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    commands = {"eval": _cmd_eval, "verify": _cmd_verify, "bitgrowth": _cmd_bitgrowth}
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
        return commands[args.command](parser, args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except tuple(_EXIT_OF_ERROR) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_OF_ERROR.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
