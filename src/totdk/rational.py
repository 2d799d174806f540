"""Exact rational arithmetic, backed by fractions.Fraction.

Every check in this package is an exact == on integers or on Fractions,
which are arbitrary-precision, always in lowest terms and always with a
positive denominator.  No floating point enters the computational core;
decimal rendering, where it exists at all, is display-only.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError


def format_rational(x: Fraction | int) -> str:
    """Canonical text form: "p/q", with integers rendered plain ("0/1" -> "0")."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse the canonical "p/q" form (or a bare integer): [+-]?digits(/digits)?."""
    text = text.strip()
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        raise DomainError(f"not a rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise DomainError("zero denominator") from None
