"""Integer kernel contracts: canonical decimal parsing and the Ordering values."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exact_xformer import DomainError, Ordering
from exact_xformer.intkernel import parse_int

# --- canonical decimal I/O --------------------------------------------------


@given(st.integers())
def test_parse_format_round_trip(n):
    assert parse_int(str(n)) == n


@pytest.mark.parametrize(
    "text", ["-0", "007", "+5", "", " 5", "5 ", "1_0", "0x10", "3.0", "--2"]
)
def test_parse_rejects_noncanonical(text):
    with pytest.raises(DomainError):
        parse_int(text)


# --- comparison -------------------------------------------------------------


def test_ordering_values():
    assert Ordering.LT == -1 and Ordering.EQ == 0 and Ordering.GT == 1
