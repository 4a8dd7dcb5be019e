"""Integer helpers over Python's built-in int.

The three-way Ordering that comparisons return, and strict parsing of
canonical decimal integers (no sign on zero, no leading zeros).
"""

from __future__ import annotations

import re
from enum import IntEnum

from .errors import DomainError

_DECIMAL_RE = re.compile(r"-?(?:0|[1-9][0-9]*)\Z")


class Ordering(IntEnum):
    LT = -1
    EQ = 0
    GT = 1


def parse_int(text: str) -> int:
    """Parse a canonical decimal integer: no sign on zero, no leading zeros."""
    if not isinstance(text, str) or not _DECIMAL_RE.fullmatch(text) or text == "-0":
        raise DomainError(f"not a canonical decimal integer: {text!r}")
    return int(text)
