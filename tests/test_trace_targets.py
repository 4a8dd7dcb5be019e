"""The benchmark's traced run wraps library functions by name.

`perfbench/run.py::trace_targets` lists them as (module, qualified name);
`--trace 1` raises AttributeError if one is missing.  Each must resolve,
and the evaluator's four must be module-level functions that the library
calls through the module, or a wrapped binding would count nothing.
"""

import importlib
import random
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(BENCH)]

import run  # noqa: E402
import zoo  # noqa: E402
from exact_xformer import eval_ahat, eval_smat_pbit, evaluator, parse_model  # noqa: E402

WRAPPED_EVALUATOR = ("embed_input", "ahardmax_weights", "softmax_pbit", "layernorm_pbit")


def test_every_trace_target_resolves():
    targets = run.trace_targets()
    for target in targets:
        obj = importlib.import_module(f"exact_xformer.{target.module}")
        for part in target.qualname.split("."):
            obj = getattr(obj, part)
        assert callable(obj), target.name
    assert {t.qualname for t in targets if t.module == "evaluator"} >= set(WRAPPED_EVALUATOR)


def test_library_calls_evaluator_targets_through_the_module(monkeypatch):
    counts = Counter()
    for name in WRAPPED_EVALUATOR:
        fn = getattr(evaluator, name)

        def counted(*args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(evaluator, name, counted)
    rng = random.Random("trace-targets")
    ahat = parse_model(zoo.to_text(zoo.random_model(rng, "average_hard", 1, "mixed", False)))
    smat = parse_model(zoo.to_text(zoo.random_model(rng, "softmax", 1, "mixed", True)))
    eval_ahat(ahat, "0110")
    eval_smat_pbit(smat, "0110", 24)
    assert set(counts) == set(WRAPPED_EVALUATOR)
