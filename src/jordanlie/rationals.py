"""Exact rational scalars and their decimal-free string form.

Rationals are ``fractions.Fraction`` at every API and JSON boundary;
integral data (the scaled tables and the root data) is held in Python ints.
Floats are never produced or accepted.  JSON carries rationals as ``"p/q"``
strings (or ``"p"`` when the denominator is 1).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidParameter

Q = Fraction

HALF = Q(1, 2)


def fmt(x: Fraction) -> str:
    x = Q(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse(s: str) -> Fraction:
    """Parse a "p/q" or "p" string: ASCII digits with an optional leading
    minus on p, and a nonzero q.  Blanks, underscores, a plus sign and
    decimal points are rejected."""
    if not isinstance(s, str):
        raise InvalidParameter(f"rational must be a \"p/q\" string, got {s!r}")
    m = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", s)
    if not m:
        raise InvalidParameter(f"rational must be \"p\" or \"p/q\" in plain digits, got {s!r}")
    den = to_int(m[2] or "1", s)
    if den == 0:
        raise InvalidParameter(f"zero denominator in {s!r}")
    return Q(to_int(m[1], s), den)


def to_int(digits: str, text: str) -> int:
    """int(digits), read from text: past int's 4300-digit limit, malformed input."""
    try:
        return int(digits)
    except ValueError:
        raise InvalidParameter(f"integer too long in {text!r}") from None
