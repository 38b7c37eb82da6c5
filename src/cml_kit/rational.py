"""Exact nonnegative rational rates.

Rates are plain ``fractions.Fraction`` values; floats are rejected everywhere
so no comparison is ever subject to rounding.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import RateError

Rate = Fraction

# str.strip() without an argument strips any script's whitespace
ASCII_WHITESPACE = " \t\n\r\v\f"

# re.ASCII: without it \d, and int() after it, take any script's decimal digits
_RATE_RE = re.compile(
    r"(?P<sign>-?)(?:(?P<whole>\d+)(?:\.(?P<frac>\d+))?|(?P<num>\d+)/(?P<den>\d+))",
    re.ASCII,
)


def ensure_rate(value: object) -> Rate:
    """Coerce ints, Fractions and literal strings to a nonnegative Fraction.

    Floats are rejected: binary floats silently denormalize rationals like 1/10.
    """
    if type(value) is Fraction and value.numerator >= 0:
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
    """Parse a rate literal: a decimal ("2", "0.25") or a fraction ("3/2"),
    in ASCII digits, with optional ASCII whitespace around it."""
    m = _RATE_RE.fullmatch(text.strip(ASCII_WHITESPACE))
    if not m:
        raise RateError(f"malformed rate literal {text!r}")
    sign, whole, frac, num, den = m.group("sign", "whole", "frac", "num", "den")
    if sign:
        raise RateError(f"negative rate {text!r}")
    try:
        if whole is None:
            n, d = int(num), int(den)
        elif frac is None:
            n, d = int(whole), 1
        else:
            n, d = int(whole + frac), 10 ** len(frac)
    except ValueError as exc:
        # int() refuses more digits than sys.get_int_max_str_digits()
        raise RateError(f"rate literal has too many digits: {exc}") from exc
    if not d:
        raise RateError(f"malformed rate literal {text!r} (zero denominator)")
    return Fraction(n, d)


def format_rate(q: Rate) -> str:
    """Canonical text for a rate: "2" or "3/2"."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
