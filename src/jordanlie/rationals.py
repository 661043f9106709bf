"""Exact rational scalars and their decimal-free string form.

All arithmetic in this package runs over ``fractions.Fraction``; floats are
never produced or accepted.  JSON carries rationals as ``"p/q"`` strings
(or ``"p"`` when the denominator is 1).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidParameter

Q = Fraction

ZERO = Q(0)
ONE = Q(1)
HALF = Q(1, 2)


def fmt(x: Fraction) -> str:
    x = Q(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse(s: str) -> Fraction:
    """Parse a "p/q" or "p" string (integers only, no decimal points)."""
    if not isinstance(s, str):
        raise InvalidParameter(f"rational must be a \"p/q\" string, got {s!r}")
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        if int(den) == 0:
            raise InvalidParameter(f"zero denominator in {s!r}")
        return Q(int(num), int(den))
    return Q(int(s))
