"""Exact rational arithmetic in canonical form.

A value is a pair (num, den) with den >= 1, gcd(|num|, den) = 1, and the sign
carried on the numerator; zero is 0/1.  Binary operations keep their gcds on
the smaller operands (Henrici's method, Knuth TAOCP vol. 2, 4.5.1, as in
fractions.Fraction): a sum reduces by gcd(den_a, den_b) and then only by a gcd
with that factor, a product cancels num_a against den_b and num_b against
den_a.  An n-ary sum rescales every term onto the single common denominator
lcm(den_j) and reduces once.  The exact modes' vectors (evaluator) keep
their entries over one such denominator from stage to stage, as integers
reduced by one gcd, so their dot products are integer dots.  Canonical form
is unique, so every route gives the same pair.
"""

from __future__ import annotations

import re
from math import gcd, lcm
from typing import Sequence

from .errors import DomainError

_RAT_RE = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?\Z")


class Rat:
    """An exact rational in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den < 1:
            raise DomainError(f"denominator must be >= 1, got {den}")
        if num == 0:
            den = 1
        else:
            g = gcd(num, den)
            if g > 1:
                num //= g
                den //= g
        _set_num(self, num)
        _set_den(self, den)

    @classmethod
    def _raw(cls, num: int, den: int) -> "Rat":
        """Wrap an already-canonical pair without re-reducing."""
        self = _new(cls)
        _set_num(self, num)
        _set_den(self, den)
        return self

    @classmethod
    def from_string(cls, text: str) -> "Rat":
        m = _RAT_RE.fullmatch(text) if isinstance(text, str) else None
        if m is None or m.group(1) == "-0":
            raise DomainError(f"not a rational literal: {text!r}")
        try:
            num, den = int(m.group(1)), int(m.group(2) or 1)
        except ValueError:  # past the interpreter's int-string digit limit
            raise DomainError(f"rational literal too long to parse ({len(text)} characters)") from None
        return cls(num, den)

    def __setattr__(self, name, value):
        raise AttributeError("Rat is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through _raw: the default restores the
        # slots through __setattr__, which refuses
        return Rat._raw, (self.num, self.den)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Rat") -> "Rat":
        return _add(self.num, self.den, other.num, other.den)

    def __sub__(self, other: "Rat") -> "Rat":
        return _add(self.num, self.den, -other.num, other.den)

    def __mul__(self, other: "Rat") -> "Rat":
        return _mul(self.num, self.den, other.num, other.den)

    def __truediv__(self, other: "Rat") -> "Rat":
        if other.num == 0:
            raise DomainError("division by zero rational")
        if other.num < 0:
            return _mul(self.num, self.den, -other.den, -other.num)
        return _mul(self.num, self.den, other.den, other.num)

    def __neg__(self) -> "Rat":
        return Rat._raw(-self.num, self.den)

    def __abs__(self) -> "Rat":
        return Rat._raw(abs(self.num), self.den)

    # -- order ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __lt__(self, other: "Rat") -> bool:
        return self.num * other.den < other.num * self.den

    def __le__(self, other: "Rat") -> bool:
        return self.num * other.den <= other.num * self.den

    def __gt__(self, other: "Rat") -> bool:
        return self.num * other.den > other.num * self.den

    def __ge__(self, other: "Rat") -> bool:
        return self.num * other.den >= other.num * self.den

    # -- misc ---------------------------------------------------------------

    @property
    def sign(self) -> int:
        return (self.num > 0) - (self.num < 0)

    def __bool__(self) -> bool:
        return self.num != 0

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"Rat({self.num}, {self.den})"


# The slots' own setters, which skip the refusing __setattr__ (as in
# pfloat): a Rat is built with two calls.
_new = object.__new__
_set_num, _set_den = Rat.num.__set__, Rat.den.__set__

RAT_ZERO = Rat._raw(0, 1)
RAT_ONE = Rat._raw(1, 1)


def _add(na: int, da: int, nb: int, db: int) -> Rat:
    """na/da + nb/db for canonical operands."""
    g = gcd(da, db)
    if g == 1:
        return Rat._raw(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)  # t == 0 only when da == db == g, and then this is 0/1
    if g2 == 1:
        return Rat._raw(t, s * db)
    return Rat._raw(t // g2, s * (db // g2))


def _mul(na: int, da: int, nb: int, db: int) -> Rat:
    """(na/da) * (nb/db) for canonical operands (nb/db may be a reciprocal
    whose sign has been moved onto nb)."""
    if na == 0 or nb == 0:
        return RAT_ZERO
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return Rat._raw(na * nb, da * db)


def rat_sum(xs: Sequence[Rat]) -> Rat:
    """Exact sum over the common denominator B = lcm(den_j)."""
    if len(xs) == 0:
        raise DomainError("rat_sum of an empty list")
    if len(xs) == 1:
        return xs[0]
    big = lcm(*[x.den for x in xs])
    return Rat(sum(x.num * (big // x.den) for x in xs), big)


def rat_max(xs: Sequence[Rat]) -> Rat:
    """Exact max; Rat comparisons cross-multiply, so no rescaling is needed.
    The items may also be integer numerators over one shared positive
    denominator (ahat's attention scores), whose max is the numerators'."""
    if len(xs) == 0:
        raise DomainError("rat_max of an empty list")
    return max(xs)
