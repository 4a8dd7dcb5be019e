"""The README stays in step with the code it documents."""

import re
from pathlib import Path

import exact_xformer

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_export_list_is_all():
    text = README.read_text()
    start = text.index("The package exports (`__all__`)")
    section = text[text.index("\n", start) : text.index("Everything else is imported", start)]
    listed = re.findall(r"`(\w+)`", section)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(exact_xformer.__all__)
