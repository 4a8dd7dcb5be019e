"""The README and docstrings stay in step with the code they document."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import exact_xformer
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
