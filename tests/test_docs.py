"""The README and docstrings stay in step with the code they document."""

import inspect
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


def test_backend_docstring_names_every_field():
    # entries start a line of the cleaned docstring; continuations are indented
    body = inspect.cleandoc(Backend.__doc__).split("\n\n", 1)[1]
    assert re.findall(r"^(\w+)", body, re.M) == list(Backend._fields)
