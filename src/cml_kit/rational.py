"""Exact nonnegative rational rates.

Rates are plain ``fractions.Fraction`` values; floats are rejected everywhere
so no comparison is ever subject to rounding.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import RateError

Rate = Fraction

_RATE_RE = re.compile(r"^(?P<sign>-?)(?:\d+(?:\.\d+)?|\d+/\d+)$")


def ensure_rate(value: object) -> Rate:
    """Coerce ints, Fractions and literal strings to a nonnegative Fraction.

    Floats are rejected: binary floats silently denormalize rationals like 1/10.
    """
    if type(value) is Fraction and value >= 0:
        return value
    if isinstance(value, float):
        raise RateError(f"float rate {value!r} rejected; use a string or Fraction")
    if isinstance(value, bool):
        raise RateError(f"rate must be a number, got {value!r}")
    if isinstance(value, str):
        return parse_rate(value)
    if isinstance(value, (int, Fraction)):
        q = Fraction(value)
        if q < 0:
            raise RateError(f"negative rate {value!r}")
        return q
    raise RateError(f"cannot interpret {value!r} as a rate")


def parse_rate(text: str) -> Rate:
    """Parse a rate literal: a decimal ("2", "0.25") or a fraction ("3/2")."""
    token = text.strip()
    m = _RATE_RE.match(token)
    if not m:
        raise RateError(f"malformed rate literal {text!r}")
    if m.group("sign"):
        raise RateError(f"negative rate {text!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError as exc:
        raise RateError(f"malformed rate literal {text!r} (zero denominator)") from exc


def coerce_rate(value: object) -> Fraction:
    """Exact coercion that allows negative values; floats stay rejected.

    Used where an invalid object must be constructible so a validator can
    diagnose it.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise RateError(f"float rate {value!r} rejected; use a string or Fraction")
    if isinstance(value, bool):
        raise RateError(f"rate must be a number, got {value!r}")
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise RateError(f"malformed rate literal {value!r}") from exc
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise RateError(f"cannot interpret {value!r} as a rate")


def format_rate(q: Rate) -> str:
    """Canonical text for a rate: "2" or "3/2"."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
