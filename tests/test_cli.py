"""Command-line surface: exit codes, JSON determinism, environment seeding.

Exit code contract: 0 success, 1 verify-suite failures, 2 usage or load
errors, 3 range/indeterminate outcomes (overflow, exact tie, below margin).
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from exact_xformer import Rat, budget, cli
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


def test_eval_exact_zero_is_tie_exit(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--model", "majority", "--input", "10", "--mode", "ahat", "--json"
    )
    assert code == 3
    assert json.loads(out)["decision"] == "tie"


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


def test_verify_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("EXACT_XFORMER_SEED", "12345")
    _, out1, _ = run_cli(capsys, "verify", "--suite", "sum", "--cases", "30", "--json")
    monkeypatch.delenv("EXACT_XFORMER_SEED")
    _, out2, _ = run_cli(
        capsys, "verify", "--suite", "sum", "--cases", "30", "--seed", "12345", "--json"
    )
    assert out1 == out2


def test_verify_invalid_environment_seed(capsys, monkeypatch):
    monkeypatch.setenv("EXACT_XFORMER_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "verify", "--suite", "exp", "--cases", "5")
    assert code == 2


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
