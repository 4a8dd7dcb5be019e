"""Exact and precision-tracked evaluation of small transformer models.

Three arithmetic regimes share one model format and one forward pass:

* exact rationals for average-hard-attention models (``eval_ahat``),
* ``p``-bit correctly rounded floats for softmax models (``eval_smat_pbit``),
* exact rationals with certified approximation sites whose error budgets
  are planned backward from a requested output tolerance (``eval_budgeted``,
  planned by ``plan_budget``; ``margin_recognize`` turns the output into a
  ``Decision``).

Models come from ``load_model`` (a builtin name or a JSON file path),
``parse_model`` and ``serialize_model`` (the JSON form), or the fixtures
``build_majority_model``, ``build_softmax_uniform_model`` and
``build_inverse_index_model``.  Values are ``Rat`` (exact rationals) and
``PFloat`` (``p``-bit floats).  The float layer (``round_p``, ``f_add``,
``f_mul``, ``f_div``, ``f_sum_blocks``) and the correctly rounded ``f_exp`` /
``f_sqrt`` are usable on their own, and ``run_suite`` runs one of the verify
suites.  Failures raise ``DomainError``, ``EvalModeError``,
``FloatRangeError`` or ``ModelLoadError``.

These names are the public API; everything else is imported from its module
(``exact_xformer.evaluator``, ``exact_xformer.verify``, ...).  The package
uses nothing outside the standard library.
"""

from .budget import Decision, eval_budgeted, margin_recognize, plan_budget
from .elementary import f_exp, f_sqrt
from .errors import DomainError, EvalModeError, FloatRangeError, ModelLoadError
from .evaluator import eval_ahat, eval_smat_pbit
from .model_ir import (
    build_inverse_index_model,
    build_majority_model,
    build_softmax_uniform_model,
    load_model,
    parse_model,
    serialize_model,
)
from .pfloat import PFloat, f_add, f_div, f_mul, f_sum_blocks, round_p
from .rational import Rat
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "Decision",
    "DomainError",
    "EvalModeError",
    "FloatRangeError",
    "ModelLoadError",
    "PFloat",
    "Rat",
    "build_inverse_index_model",
    "build_majority_model",
    "build_softmax_uniform_model",
    "eval_ahat",
    "eval_budgeted",
    "eval_smat_pbit",
    "f_add",
    "f_div",
    "f_exp",
    "f_mul",
    "f_sqrt",
    "f_sum_blocks",
    "load_model",
    "margin_recognize",
    "parse_model",
    "plan_budget",
    "round_p",
    "run_suite",
    "serialize_model",
]
