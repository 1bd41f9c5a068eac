"""Exact rational parsing and formatting.

All distances and labels in this package are ``fractions.Fraction`` values.
Input strings may be integers ("3"), fractions ("1/2"), or decimals ("0.5",
"2.5e-3"); decimals convert exactly, never through binary floating point.
Floats are rejected outright because they would silently corrupt equality
tests.  Strings follow an explicit ASCII grammar with a digit and exponent
budget, so hostile input cannot build huge integers: no underscores, no
non-ASCII digits, at most ``MAX_DIGITS`` digits and exponents within
``MAX_EXPONENT``.
"""

from __future__ import annotations

import re
from fractions import Fraction

RationalLike = Fraction | int | str

MAX_DIGITS = 1000
MAX_EXPONENT = 1000

_NUMBER = re.compile(
    r"(?P<sign>[+-]?)(?:(?P<num>[0-9]+)/(?P<den>[0-9]+)"
    r"|(?=\.?[0-9])(?P<int>[0-9]*)(?:\.(?P<frac>[0-9]*))?(?:[eE](?P<exp>[+-]?[0-9]+))?)"
)
_ASCII_SPACE = " \t\n\r\f\v"


def parse_rational(value: RationalLike) -> Fraction:
    """Convert ``value`` to an exact Fraction, rejecting floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(
            f"refusing float {value!r}: pass an exact string such as '1/2' or '0.5'"
        )
    if isinstance(value, str):
        return _parse_numeral(value.strip(_ASCII_SPACE))
    raise ValueError(f"not an exact rational: {value!r}")


def _parse_numeral(text: str) -> Fraction:
    match = _NUMBER.fullmatch(text)
    if match is None:
        shown = text if len(text) <= 40 else text[:40] + "..."
        raise ValueError(
            f"not an exact rational: {shown!r} (expected ASCII digits such as "
            "3, -1/2, 0.25 or 1e-3)"
        )
    sign, num, den = match["sign"], match["num"], match["den"]
    whole, frac, exp = match["int"], match["frac"] or "", match["exp"]
    digits = len(num) + len(den) if den is not None else len(whole) + len(frac)
    if digits > MAX_DIGITS:
        raise ValueError(f"number with {digits} digits exceeds the limit of {MAX_DIGITS}")
    if den is not None:
        if int(den) == 0:
            raise ValueError(f"not an exact rational: {text!r} has a zero denominator")
        return Fraction(int(sign + num), int(den))
    shift = -len(frac)
    if exp is not None:
        magnitude = exp.lstrip("+-").lstrip("0")
        if len(magnitude) > len(str(MAX_EXPONENT)) or int(magnitude or 0) > MAX_EXPONENT:
            shown = exp if len(exp) <= 12 else exp[:12] + "..."
            raise ValueError(f"exponent {shown} exceeds the limit of {MAX_EXPONENT} in magnitude")
        shift += int(exp)
    mantissa = int(sign + whole + frac)
    return Fraction(mantissa * 10**shift) if shift >= 0 else Fraction(mantissa, 10**-shift)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as '3' or '1/2' (the parseable canonical form)."""
    return str(value)
