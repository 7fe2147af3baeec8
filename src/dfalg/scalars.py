"""Scalar field handling: exact rationals (default) and binary64 floats.

Rational mode stores plain Python ints and fractions.Fraction values and
performs no rounding; every identity check requires a literal zero there.
Float mode runs the same checks on binary64 values and compares each
residual, relative to max(1, the largest side), against
FLOAT_RELATIVE_TOLERANCE instead of literal zero.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import numpy as np

RATIONAL = "rational"
FLOAT64 = "float64"

FIELDS = (RATIONAL, FLOAT64)

FLOAT_RELATIVE_TOLERANCE = 1e-9


def check_field(field: str) -> str:
    if field not in FIELDS:
        raise ValueError(f"unknown scalar field {field!r}")
    return field


def zeros(shape, field: str):
    """A zero value array: float64 for float forms, object (Python ints) otherwise."""
    return np.zeros(shape, dtype=float if field == FLOAT64 else object)


def coerce(value, field: str):
    if field == FLOAT64:
        return float(value)
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"cannot coerce non-integral float {value} to rational")
        return int(value)
    return Fraction(value)


def parse_scalar(text, field: str):
    if field == FLOAT64:
        return float(text)
    if isinstance(text, str):
        return Fraction(text) if "/" in text else int(text)
    return coerce(text, RATIONAL)


def format_scalar(value, field: str):
    """A report value: a float, or an exact value as a decimal or "p/q" string.

    Python's int-to-string limit stays in force; an exact value past it
    is a ValueError that names the bound.
    """
    if field == FLOAT64:
        return float(value)
    try:
        if isinstance(value, Fraction) and value.denominator != 1:
            return f"{value.numerator}/{value.denominator}"
        return str(int(value))
    except ValueError:
        raise ValueError(f"an exact value has more than {sys.get_int_max_str_digits()} "
                         "digits, which the report cannot write") from None
