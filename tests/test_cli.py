"""Command-line surface: exit codes, JSON determinism, seeding.

Exit code contract: 0 success, 1 verify-suite failures, 2 usage or load
errors, 3 range/indeterminate outcomes (overflow, a value past the int-string
limit, exact tie, below margin).
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from exact_xformer import Rat, budget, cli, serialize_model
from exact_xformer.model_ir import FFNN, AttentionHead, Layer, LayerNorm, Model, OutputHead, PositionRule
from exact_xformer.verify import SUITES, SuiteResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- eval ---------------------------------------------------------------------


def test_eval_ahat_json(capsys):
    code, out, err = run_cli(
        capsys, "eval", "--model", "majority", "--input", "1101", "--mode", "ahat", "--json"
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["decision"] == "accept"
    assert doc["value"]["rat"] == "1/4"
    assert doc["mode"] == "ahat" and doc["input"] == "1101"


def test_eval_human_output(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--model", "majority", "--input", "100", "--mode", "ahat"
    )
    assert code == 0
    assert "reject" in out
    assert "-1/6" in out


def test_eval_smat_value(capsys):
    code, out, _ = run_cli(
        capsys,
        *"eval --model softmax-uniform --input 1101 --mode smat --precision 24 --json".split(),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["precision"] == 24
    assert doc["value"] == {
        "m": "8388608",
        "e": "-25",
        "p": 24,
        "decimal_approx": "2.50000000000e-1",
    }


def test_eval_budgeted_with_trace(capsys):
    code, out, _ = run_cli(
        capsys,
        *(
            "eval --model softmax-uniform --input 110 --mode budgeted "
            "--epsilon 1/65536 --trace --json"
        ).split(),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"] == "accept"
    assert "site_deltas" in doc["trace"]
    assert "layer.0.head.0.softmax" in doc["trace"]["site_deltas"]


@pytest.mark.parametrize(
    "model, mode, extra",
    [
        ("majority", "ahat", ()),
        ("softmax-uniform", "smat", ("--precision", "24")),
        ("softmax-uniform", "budgeted", ("--epsilon", "1/65536")),
    ],
)
def test_eval_trace_has_one_schema(capsys, model, mode, extra):
    argv = ("eval", "--model", model, "--input", "1101", "--mode", mode, *extra, "--json")
    code, plain, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and "trace" not in json.loads(plain)
    code, out, err = run_cli(capsys, *argv, "--trace")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    trace = doc.pop("trace")
    assert doc == json.loads(plain)  # --trace adds the trace and nothing else
    # every mode reports the widths; budgeted adds its plan, smat nothing
    budget_keys = {"site_deltas", "stage_tolerances"} if mode == "budgeted" else set()
    assert set(trace) == {"embedding_bits", "layer_bits"} | budget_keys
    for pair in [trace["embedding_bits"], *trace["layer_bits"]]:
        assert len(pair) == 2 and all(isinstance(b, int) and b >= 1 for b in pair)
    assert len(trace["layer_bits"]) == 1  # both models have one layer
    code, human, _ = run_cli(capsys, *argv[:-1], "--trace")
    assert code == 0 and sorted(l.split(":")[0] for l in human.splitlines() if l.startswith("trace.")) == sorted(f"trace.{k}" for k in trace)


# the planned tolerances start from epsilon/2; the other half pays for
# rounding the output to the epsilon grid
BUDGETED_TRACE_JSON = """{
  "command": "eval",
  "decision": "accept",
  "epsilon": "1/65536",
  "input": "1101",
  "mode": "budgeted",
  "model": "softmax-uniform",
  "trace": {
    "embedding_bits": [
      1,
      1
    ],
    "layer_bits": [
      [
        2,
        3
      ]
    ],
    "site_deltas": {
      "layer.0.head.0.softmax": "1/33554432"
    },
    "stage_tolerances": {
      "layer.0.attn_out": "1/262144",
      "layer.0.ffnn_in": "1/262144",
      "layer.0.input": "1/524288",
      "layer.0.out": "1/131072",
      "output": "1/65536"
    }
  },
  "value": {
    "decimal_approx": "2.50000000000e-1",
    "rat": "1/4"
  }
}
"""


def test_eval_budgeted_trace_plans_once(capsys, monkeypatch):
    original = budget.plan_budget
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    # replace every binding in the package, wherever a module imported it
    for name, module in list(sys.modules.items()):
        if name == "exact_xformer" or name.startswith("exact_xformer."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    code, out, err = run_cli(
        capsys,
        *(
            "eval --model softmax-uniform --input 1101 --mode budgeted "
            "--epsilon 1/65536 --trace --json"
        ).split(),
    )
    assert (code, err) == (0, "")
    assert len(calls) == 1
    assert out == BUDGETED_TRACE_JSON


def test_eval_budgeted_fine_epsilon_prints_value(capsys, tmp_path):
    # a 1-layer softmax model from the benchmark zoo; at eps = 2^-128 the
    # unrounded output has more digits than str(int) converts by default
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import zoo
    finally:
        sys.path.pop(0)
    doc = zoo.random_model(random.Random("cli-wide"), "softmax", 1, "mixed", False)
    path = tmp_path / "wide.json"
    path.write_text(zoo.to_text(doc))
    code, out, err = run_cli(
        capsys,
        *f"eval --model {path} --input 1101 --mode budgeted --epsilon 1/{1 << 128} --json".split(),
    )
    assert (code, err) == (0, "")
    value = Rat.from_string(json.loads(out)["value"]["rat"])
    assert value.den <= 1 << 128


@pytest.mark.parametrize("option", ["--epsilon", "--eps", "--e"])
@pytest.mark.parametrize(
    "value, message",
    [("-1/2", "--epsilon must be positive"), ("-01/2", "--epsilon expects a rational like 3/4, got '-01/2'")],
)
def test_eval_negative_fraction_epsilon_spaced_as_attached(capsys, option, value, message):
    # argparse would read a spaced "-1/2" as an option ("expected one argument"),
    # after --epsilon or any abbreviation of it
    base = "eval --model softmax-uniform --input 1 --mode budgeted".split()
    spaced = run_cli(capsys, *base, option, value, "--json")
    assert spaced == run_cli(capsys, *base, f"--epsilon={value}", "--json")
    code, out, err = spaced
    assert (code, out) == (2, "") and err.endswith(f"error: {message}\n")
    # a value that is no number stays the usage error it was
    code, out, err = run_cli(capsys, *base, option, "-x")
    assert (code, out) == (2, "") and err.endswith("error: argument --epsilon: expected one argument\n")
    # and after "--" nothing is an option's value
    code, out, err = run_cli(capsys, *base, "--epsilon=1/2", "--", option, value)
    assert (code, out) == (2, "") and err.endswith(f"error: unrecognized arguments: -- {option} {value}\n")


@pytest.mark.parametrize("option", ["--lengths", "--len", "--l"])
@pytest.mark.parametrize(
    "value, message",
    [
        ("-4,8", "--lengths needs at least two positive lengths"),
        ("-4,x", "--lengths expects comma-separated integers, got '-4,x'"),
    ],
)
def test_bitgrowth_negative_lengths_spaced_as_attached(capsys, option, value, message):
    # argparse would read a spaced "-4,8" as an option ("expected one argument"),
    # after --lengths or any abbreviation of it
    base = "bitgrowth --model majority".split()
    spaced = run_cli(capsys, *base, option, value)
    assert spaced == run_cli(capsys, *base, f"--lengths={value}")
    code, out, err = spaced
    assert (code, out) == (2, "") and err.endswith(f"error: {message}\n")
    # a value that is no list stays the usage error it was
    code, out, err = run_cli(capsys, *base, option, "-x")
    assert (code, out) == (2, "") and err.endswith("error: argument --lengths: expected one argument\n")
    # the epsilon rewrite is eval's alone, and after "--" nothing is an option's value
    code, out, err = run_cli(capsys, *base, "--epsilon", "-1/2")
    assert (code, out) == (2, "") and err.endswith("error: unrecognized arguments: --epsilon -1/2\n")
    code, out, err = run_cli(capsys, *base, "--lengths=4,8", "--", option, value)
    assert (code, out) == (2, "") and err.endswith(f"error: unrecognized arguments: -- {option} {value}\n")


def test_eval_smat_output_past_int_string_limit(capsys, tmp_path):
    # output 2^16000 at p = 14000: as an integer it has 4,817 decimal digits,
    # more than str(int) converts by default
    zero, big = ((Rat(0),),), (Rat(1 << 8000),)
    head = AttentionHead(zero, zero, zero, zero, "softmax", "none")
    layer = Layer((head,), FFNN(zero, (Rat(0),), "relu", zero, (Rat(0),)), None, None, True, True)
    model = Model(("a",), 1, {"a": big}, PositionRule("none"), (layer,), OutputHead(big, Rat(0)))
    path = tmp_path / "huge.json"
    path.write_text(serialize_model(model))
    argv = f"eval --model {path} --input a --mode smat --precision 14000".split()
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    value = json.loads(out)["value"]
    assert (int(value["m"]), int(value["e"]), value["p"]) == (1 << 13999, 2001, 14000)
    lead, k10 = value["decimal_approx"].split("e")
    with mpmath.workprec(64):
        truth = mpmath.mpf(2) ** 16000 / mpmath.mpf(10) ** int(k10)
        assert 1 <= truth < 10
        assert abs(mpmath.mpf(lead) - truth) <= mpmath.mpf("5e-12")  # 12 digits, rounded
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert f"(~ {value['decimal_approx']})" in out


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_eval_ahat_output_past_int_string_limit_is_range_error(capsys, tmp_path, json_flag):
    # the exact output 2^28000 has 8,429 decimal digits, more than str(int)
    # converts by default; nothing is printed but one error line
    zero, big = ((Rat(0),),), (Rat(1 << 14000),)
    head = AttentionHead(zero, zero, zero, zero, "average_hard", "none")
    layer = Layer((head,), FFNN(zero, (Rat(0),), "relu", zero, (Rat(0),)), None, None, True, True)
    model = Model(("a",), 1, {"a": big}, PositionRule("none"), (layer,), OutputHead(big, Rat(0)))
    path = tmp_path / "wide.json"
    path.write_text(serialize_model(model))
    code, out, err = run_cli(capsys, "eval", "--model", str(path), "--input", "a", "--mode", "ahat", *json_flag)
    assert (code, out) == (3, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"error: the value is past the {limit}-digit int-string limit\n"


def test_eval_exact_zero_is_tie_exit(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--model", "majority", "--input", "10", "--mode", "ahat", "--json"
    )
    assert code == 3
    assert json.loads(out)["decision"] == "tie"
    assert json.loads(out)["value"] == {"decimal_approx": "0", "rat": "0"}


def test_eval_below_margin_exit(capsys):
    code, out, _ = run_cli(
        capsys,
        *(
            "eval --model softmax-uniform --input 10 --mode budgeted "
            "--epsilon 1/256 --json"
        ).split(),
    )
    assert code == 3
    assert json.loads(out)["decision"] == "below_margin"
    assert json.loads(out)["value"] == {"decimal_approx": "0", "rat": "0"}


def test_eval_missing_mode_argument(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--model", "majority", "--input", "1", "--mode", "smat"
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "eval", "--model", "majority", "--input", "1", "--mode", "budgeted"
    )
    assert code == 2


def test_eval_bad_input_symbols(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--model", "majority", "--input", "10x", "--mode", "ahat"
    )
    assert code == 2
    assert err != ""


def test_eval_unknown_model(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--model", "no-such", "--input", "1", "--mode", "ahat"
    )
    assert code == 2


def test_eval_malformed_model_file(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{broken")
    code, _, err = run_cli(
        capsys, "eval", "--model", str(f), "--input", "1", "--mode", "ahat"
    )
    assert code == 2


def _one_softmax_head_doc(bias="0"):
    """A one-letter, one-layer softmax model as a model-file document."""
    return {
        "format_version": 1,
        "alphabet": ["a"],
        "dim": 1,
        "token_embeddings": {"a": ["8"]},
        "position_rule": {"kind": "none"},
        "layers": [
            {
                "heads": [
                    {
                        "kind": "softmax",
                        "masking": "none",
                        "w_q": [["1"]],
                        "w_k": [["1"]],
                        "w_v": [["1"]],
                        "w_o": [["1"]],
                    }
                ],
                "ffnn": {
                    "activation": "relu",
                    "w1": [["0"]],
                    "b1": ["0"],
                    "w2": [["0"]],
                    "b2": ["0"],
                },
                "layernorm_attn": None,
                "layernorm_ffnn": None,
                "residual_attn": False,
                "residual_ffnn": True,
            }
        ],
        "output_head": {"weights": ["1"], "bias": bias},
    }


def test_eval_overflow_exit(tmp_path, capsys):
    # score 64 at p=3 puts the exp scaling exponent outside [-8, 8)
    doc = _one_softmax_head_doc()
    f = tmp_path / "hot.json"
    f.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys,
        "eval", "--model", str(f), "--input", "aa", "--mode", "smat", "--precision", "3",
    )
    assert code == 3
    assert err != ""


def test_model_literal_past_int_digit_limit_is_load_error(tmp_path, capsys):
    f = tmp_path / "long.json"
    f.write_text(json.dumps(_one_softmax_head_doc(bias="1" * 5001)))
    code, _, err = run_cli(capsys, "eval", "--model", str(f), "--input", "a", "--mode", "ahat")
    assert code == 2
    assert "output_head.bias" in err and "too long" in err


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_smat_precision_past_int_digit_limit_is_usage_error(capsys, json_flag):
    # the widest p whose significands the interpreter can still print: 2^p < 10^limit
    widest = (10 ** sys.get_int_max_str_digits()).bit_length() - 1
    argv = ("eval", "--model", "softmax-uniform", "--input", "1101", "--mode", "smat") + json_flag
    code, out, err = run_cli(capsys, *argv, "--precision", str(widest))
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, *argv, "--precision", str(widest + 1))
    assert code == 2 and out == ""
    assert err.startswith("error: --precision") and err.count("\n") == 1


def test_eval_json_is_byte_deterministic(capsys):
    args = (
        "eval --model softmax-uniform --input 1101 --mode budgeted "
        "--epsilon 1/65536 --trace --json"
    ).split()
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# --- verify -------------------------------------------------------------------


def test_verify_single_suite_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "exp", "--cases", "20", "--seed", "5", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["suites"][0]["suite"] == "exp"
    assert doc["suites"][0]["passed"] is True


def test_verify_failure_exit_code(capsys, monkeypatch):
    # wire a fabricated failing result through the reporting path
    def fake_run_suite(name, p=None, cases=None, seed=0):
        from exact_xformer.verify import CaseFailure

        r = SuiteResult("exp", 8, 1)
        r.failures.append(CaseFailure("rel-error", "0:exp:0", "synthetic"))
        return r

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    code, out, _ = run_cli(capsys, "verify", "--suite", "exp", "--cases", "1", "--json")
    assert code == 1
    assert json.loads(out)["suites"][0]["passed"] is False


@pytest.mark.parametrize(
    "suite, p", [(suite, p) for suite in SUITES for p in range(1, 8)] + [("round", 17)]
)
def test_verify_any_precision_passes_or_is_usage_error(capsys, suite, p):
    code, _, err = run_cli(capsys, "verify", "--suite", suite, "--p", str(p), "--cases", "40")
    assert code == 0 or (code == 2 and err.startswith("error: ")), err


@pytest.mark.parametrize("p, defaulted", [(24, {"round": 3}), (1, {"round": 3, "sum": 3})], ids=["p24", "p1"])
def test_verify_all_runs_out_of_range_suites_at_their_default(capsys, p, defaulted):
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--p", str(p), "--cases", "5", "--json")
    assert (code, err) == (0, "")
    ran_at = {s["suite"]: s["p"] for s in json.loads(out)["suites"]}
    assert list(ran_at) == list(SUITES)
    precision_free = {"softmax-delta": None, "invsqrt-delta": None}
    assert ran_at == {name: p for name in SUITES} | precision_free | defaulted


def test_verify_unknown_suite_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2


# --- bitgrowth ------------------------------------------------------------------


def test_bitgrowth_json(capsys):
    code, out, _ = run_cli(
        capsys, "bitgrowth", "--model", "inverse-index", "--lengths", "4,8,16,32", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["n"] for r in doc["rows"]] == [4, 8, 16, 32]
    assert 0.8 < doc["slope"] < 1.2


def test_bitgrowth_human(capsys):
    code, out, _ = run_cli(
        capsys, "bitgrowth", "--model", "majority", "--lengths", "4,8"
    )
    assert code == 0
    assert "slope" in out


@pytest.mark.parametrize("lengths", ["4", "0,8", "4,x"])
def test_bitgrowth_bad_lengths(capsys, lengths):
    code, _, _ = run_cli(capsys, "bitgrowth", "--model", "majority", "--lengths", lengths)
    assert code == 2


def test_bitgrowth_missing_model_file(capsys):
    code, _, _ = run_cli(capsys, "bitgrowth", "--model", "missing.json", "--lengths", "4,8")
    assert code == 2


@pytest.mark.parametrize("command", ["eval", "bitgrowth"])
@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_model_path_is_load_error(capsys, tmp_path, command, kind):
    path = tmp_path
    if kind == "not-utf8":
        path = tmp_path / "model.json"
        path.write_bytes(b'\xff\xfe{"format_version": 1}')
    rest = ["--input", "1", "--mode", "ahat"] if command == "eval" else ["--lengths", "4,8"]
    code, out, err = run_cli(capsys, command, "--model", str(path), *rest)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read model file {str(path)!r}")


# --- top level ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, code, message",
    [
        ("eval --model no-such --input 1 --mode ahat", 2, "no such model file or builtin fixture: 'no-such'"),
        ("eval --model majority --input 1 --mode smat --precision 8", 2, "layers[0].heads[0] is average_hard; smat_pbit needs softmax"),
        ("eval --model majority --input 10x --mode ahat", 2, "symbol 'x' not in the model alphabet"),
        ("eval --model @hot --input aa --mode smat --precision 3", 3, "exp argument magnitude 2^6 puts k outside [-2^3, 2^3)"),
        ("verify --suite round --p 17", 2, "the round suite needs 2 <= p <= 16, got 17"),
        ("bitgrowth --model no-such", 2, "no such model file or builtin fixture: 'no-such'"),
        ("bitgrowth --model softmax-uniform --lengths 4,8", 2, "layers[0].heads[0] is softmax; ahat_exact needs average_hard"),
        ("bitgrowth --model majority --lengths 4,4", 2, "slope fit needs at least two distinct lengths"),
    ],
    ids=[
        "eval-ModelLoadError", "eval-EvalModeError", "eval-DomainError", "eval-FloatRangeError",
        "verify-DomainError", "bitgrowth-ModelLoadError", "bitgrowth-EvalModeError", "bitgrowth-DomainError",
    ],
)
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_library_errors_exit_with_their_code(capsys, tmp_path, argv, code, message, json_flag):
    (tmp_path / "hot.json").write_text(json.dumps(_one_softmax_head_doc()))
    argv = [str(tmp_path / "hot.json") if arg == "@hot" else arg for arg in argv.split()]
    assert run_cli(capsys, *argv, *json_flag) == (code, "", f"error: {message}\n")


def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 2


def _run_python(*args):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def _run_module(*argv):
    return _run_python("-m", "exact_xformer.cli", *argv)


def test_module_form_runs_the_command():
    proc = _run_module("verify", "--suite", "exp", "--p", "8", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["suites"]


def test_module_form_usage_error_exits_nonzero():
    proc = _run_module("verify", "--suite", "bogus")
    assert proc.returncode == 2


# Blocks every import of numpy, then runs the CLI in the same interpreter.
WITHOUT_NUMPY = "import sys; sys.modules['numpy'] = None; from exact_xformer import cli; sys.exit(cli.main(sys.argv[1:]))"


@pytest.mark.parametrize(
    "argv",
    [
        "bitgrowth --model inverse-index --lengths 4,8,16 --json",
        "eval --model softmax-uniform --input 1101 --mode budgeted --epsilon 1/65536 --json",
    ],
)
def test_runs_without_numpy(argv):
    proc = _run_python("-c", WITHOUT_NUMPY, *argv.split())
    assert proc.returncode == 0, proc.stderr


# --- pinned corpus ------------------------------------------------------------------


def _corpus_model(seed: int, kind: str, layernorm: bool, rule: PositionRule) -> Model:
    """One two-head layer (one causal head, one unmasked) over the letters
    a and b, dim 3, with small parameters k/2^j drawn from `seed`."""
    rng = random.Random(seed)

    def vec(n):
        return tuple(Rat(rng.randint(-3, 3), 1 << rng.randint(0, 2)) for _ in range(n))

    def mat(rows, cols):
        return tuple(vec(cols) for _ in range(rows))

    def norm():
        return LayerNorm(tuple(Rat(rng.randint(1, 4), 2) for _ in range(3)), vec(3), Rat(1, 2)) if layernorm else None

    heads = tuple(AttentionHead(mat(3, 3), mat(3, 3), mat(3, 3), mat(3, 3), kind, m) for m in ("causal", "none"))
    layer = Layer(heads, FFNN(mat(4, 3), vec(4), "relu", mat(3, 4), vec(3)), norm(), norm(), True, True)
    return Model(("a", "b"), 3, {s: vec(3) for s in "ab"}, rule, (layer,), OutputHead(vec(3), vec(1)[0]))


def _corpus_files(tmp_path) -> None:
    """The model files the corpus reads: seeded models, a table-position model
    (length 4 at most), a softmax model whose exp overflows at p = 3, an ahat
    model whose exact output has 8,429 decimal digits, and broken documents."""
    table = PositionRule("table", n_max=4, vectors=tuple((Rat(i, 4), Rat(0), Rat(1, i)) for i in range(1, 5)))
    models = {
        "soft-ln": _corpus_model(3, "softmax", True, PositionRule("scaled_index", 2)),
        "soft": _corpus_model(4, "softmax", False, PositionRule("inverse_index", 1)),
        "hard": _corpus_model(5, "average_hard", False, PositionRule("inverse_index", 2)),
        "hard-table": _corpus_model(6, "average_hard", False, table),
    }
    for name, model in models.items():
        (tmp_path / f"{name}.json").write_text(serialize_model(model))
    (tmp_path / "hot.json").write_text(json.dumps(_one_softmax_head_doc()))
    zero, big = ((Rat(0),),), (Rat(1 << 14000),)
    head = AttentionHead(zero, zero, zero, zero, "average_hard", "none")
    wide = Layer((head,), FFNN(zero, (Rat(0),), "relu", zero, (Rat(0),)), None, None, True, True)
    model = Model(("a",), 1, {"a": big}, PositionRule("none"), (wide,), OutputHead(big, Rat(0)))
    (tmp_path / "wide.json").write_text(serialize_model(model))
    (tmp_path / "broken.json").write_text("{broken")
    edits = {
        "version": lambda d: d.update(format_version=2),
        "head-kind": lambda d: d["layers"][0]["heads"][0].update(kind="bogus"),
        "masking": lambda d: d["layers"][0]["heads"][0].update(masking="left"),
        "activation": lambda d: d["layers"][0]["ffnn"].update(activation="tanh"),
        "position-kind": lambda d: d.update(position_rule={"kind": "sinus"}),
        "unknown-field": lambda d: d["layers"][0].update(extra=1),
        "missing-field": lambda d: d["output_head"].pop("bias"),
        "bad-rational": lambda d: d["output_head"].update(bias="2/4"),
    }
    for name, edit in edits.items():
        doc = _one_softmax_head_doc()
        edit(doc)
        (tmp_path / f"bad-{name}.json").write_text(json.dumps(doc))


def _cli_corpus() -> list[str]:
    """Argument lines over every subcommand, output form and exit path."""
    lines = []
    evals = {
        "majority": ["1101", "100", "10"],
        "softmax-uniform": ["1101", "10"],
        "inverse-index": ["1101"],
        "@soft-ln": ["abba", "b"],
        "@soft": ["aab"],
        "@hard": ["abab", "a"],
        "@hard-table": ["abb"],
    }
    modes = ["--mode ahat"] + [f"--mode smat --precision {p}" for p in (8, 24, 53)]
    modes += [f"--mode budgeted --epsilon 1/{1 << k}" for k in (16, 64)]
    for model, words in evals.items():
        for word in words:
            for mode in modes:
                for flags in ("", " --json", " --trace", " --json --trace"):
                    lines.append(f"eval --model {model} --input {word} {mode}{flags}")
    for rest in ("--mode ahat", "--mode ahat --json", "--mode smat --precision 3", "--mode smat --precision 3 --json"):
        lines += [f"eval --model @hot --input aa {rest}", f"eval --model @wide --input a {rest}"]
    lines += [f"eval --model @{name} --input a --mode ahat" for name in (
        "broken", "bad-version", "bad-head-kind", "bad-masking", "bad-activation",
        "bad-position-kind", "bad-unknown-field", "bad-missing-field", "bad-bad-rational",
    )]
    lines += [
        "eval --model no-such --input 1 --mode ahat",
        "eval --model @ --input 1 --mode ahat --json",
        "eval --model majority --input 10x --mode ahat",
        "eval --model @hard-table --input abbab --mode ahat --json",
        "eval --model majority --input 1 --mode smat",
        "eval --model softmax-uniform --input 1 --mode smat --precision 0",
        "eval --model softmax-uniform --input 1 --mode smat --precision 14285",
        "eval --model softmax-uniform --input 1 --mode smat --precision 14285 --json",
        "eval --model softmax-uniform --input 1 --mode budgeted",
        "eval --model softmax-uniform --input 1 --mode budgeted --epsilon x",
        "eval --model softmax-uniform --input 1 --mode budgeted --epsilon 0",
        "eval --model softmax-uniform --input 1 --mode budgeted --epsilon -1/2 --json",
        "eval --model softmax-uniform --input 1 --mode sideways",
        "eval --model softmax-uniform --mode ahat",
        "eval --model majority --input 1 --mode ahat --precision 8 --epsilon 1/2",
    ]
    for suite in SUITES:
        for p in (1, 2, 3, 5, 17):
            for flags in ("", " --json"):
                lines.append(f"verify --suite {suite} --p {p} --cases 6 --seed 7{flags}")
        lines.append(f"verify --suite {suite} --cases 4 --json")
    lines += [
        "verify --suite all --p 1 --cases 3",
        "verify --suite all --p 4 --cases 3 --json",
        "verify --suite all --cases 2 --seed 9 --json",
        "verify --suite bogus",
        "verify --suite exp --cases 0",
        "verify --suite exp --p 0",
        "verify --suite exp --p -1 --json",
    ]
    for model in ("majority", "inverse-index", "@hard", "@hard-table", "softmax-uniform", "@soft", "no-such", "@broken"):
        for lengths in ("4,8,16", "2,3", "4", "0,8", "4,x", ""):
            for flags in ("", " --json"):
                lines.append(f"bitgrowth --model {model} --lengths {lengths}{flags}")
    lines += ["bitgrowth --model majority --json", "", "frobnicate", "eval"]
    return lines


def _corpus_path(tmp_path, arg: str) -> str:
    return str(tmp_path / f"{arg[1:]}.json") if arg[1:] else str(tmp_path)


def _corpus_records(capsys, tmp_path) -> list:
    records = []
    for line in _cli_corpus():
        # @name is the model file tmp_path/name.json, and a bare @ the directory
        argv = [_corpus_path(tmp_path, arg) if arg.startswith("@") else arg for arg in line.split()]
        code = cli.main(argv)
        captured = capsys.readouterr()
        out = "".join(x for x in captured.out.splitlines(True) if not x.startswith("elapsed: "))
        records.append([line, out.replace(str(tmp_path), "<tmp>"), captured.err.replace(str(tmp_path), "<tmp>"), code])
    return records


# sha256 over the JSON list of [argument line, stdout without its elapsed:
# lines, stderr, exit code] for every line of _cli_corpus().  Any change to a
# message, an exit code or an output byte shows here; the argparse usage text
# depends on COLUMNS, fixed below.
CLI_CORPUS_SHA256 = "91e83324f52fd9e824c82bc5f89609919c605e7bc0fc543550ab2ff67e0d6e12"


def test_cli_corpus_is_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    _corpus_files(tmp_path)
    records = _corpus_records(capsys, tmp_path)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == CLI_CORPUS_SHA256, json.dumps(records[:3], indent=1)
