"""The README and docstrings stay in step with the code they document."""

import importlib
import inspect
import json
import pkgutil
import re
import shlex
import sys
from pathlib import Path

import exact_xformer
from exact_xformer import cli
from exact_xformer.evaluator import Backend

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_export_list_is_all():
    text = README.read_text()
    start = text.index("The package exports (`__all__`)")
    section = text[text.index("\n", start) : text.index("Everything else is imported", start)]
    listed = re.findall(r"`(\w+)`", section)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(exact_xformer.__all__)


def test_readme_layout_names_every_module():
    text = README.read_text()
    start = text.index("```", text.index("## Layout"))
    block = text[start : text.index("```", start + 3)]
    listed = re.findall(r"^  (\w+\.py) ", block, re.M)
    package = Path(exact_xformer.__file__).parent
    assert sorted(listed) == sorted(p.name for p in package.glob("*.py") if p.name != "__init__.py")


def test_backend_docstring_names_every_field():
    # entries start a line of the cleaned docstring; continuations are indented
    body = inspect.cleandoc(Backend.__doc__).split("\n\n", 1)[1]
    assert re.findall(r"^(\w+)", body, re.M) == list(Backend._fields)


def test_module_docstrings_name_only_what_exists():
    # a backticked name (its leading dotted identifier, so `f(x)` names f)
    # resolves in the module, or is a Backend field
    stale = []
    for info in pkgutil.iter_modules(exact_xformer.__path__):
        module = importlib.import_module(f"exact_xformer.{info.name}")
        for name in re.findall(r"`([A-Za-z_][\w.]*)", module.__doc__ or ""):
            obj, *rest = name.split(".")
            if obj in Backend._fields and not rest:
                continue
            obj = getattr(module, obj, None)
            for part in rest:
                obj = getattr(obj, part, None)
            if obj is None:
                stale.append(f"{info.name}: {name}")
    assert stale == []


def test_readme_names_only_what_exists():
    # a backticked module.name path resolves in the package (a stdlib path
    # such as math.isqrt aside), and a backticked _private name is defined
    # in one of its modules
    text = README.read_text()
    modules = {
        info.name: importlib.import_module(f"exact_xformer.{info.name}")
        for info in pkgutil.iter_modules(exact_xformer.__path__)
    }
    stale = []
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", text):
        head, *rest = name.split(".")
        if head in sys.stdlib_module_names:
            continue
        obj = modules.get(head)
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is None:
            stale.append(name)
    for name in re.findall(r"`(_\w+)", text):
        if name != "__all__" and not any(hasattr(module, name) for module in modules.values()):
            stale.append(name)
    assert stale == []


def _readme_eval(capsys, flag: str, *extra: str) -> dict:
    """The parsed --json stdout of the README's `exact-xformer eval` line
    that has `flag`, run with `extra` added."""
    line = next(s for s in README.read_text().splitlines() if s.startswith("exact-xformer eval") and flag in s)
    assert cli.main([*shlex.split(line)[1:], *extra]) == 0
    return json.loads(capsys.readouterr().out)


def _readme_json_after(marker: str) -> dict:
    text = README.read_text()
    start = text.index("```json", text.index(marker)) + len("```json")
    return json.loads(text[start : text.index("```", start)])


def test_readme_eval_json_example_is_the_output(capsys):
    assert _readme_eval(capsys, "--json") == _readme_json_after("## CLI")


def test_readme_trace_example_is_the_output(capsys):
    trace = _readme_eval(capsys, "--trace", "--json")["trace"]
    assert trace == _readme_json_after("The budgeted example above gives")
