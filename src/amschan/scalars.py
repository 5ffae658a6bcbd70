"""Scalar arithmetic policy.

Probabilities are either exact rationals (`fractions.Fraction`, the default)
or binary floats.  The policy is carried by the values themselves: as soon as
a float enters a computation the result degrades to float, and every
probability comparison involving a float uses the absolute tolerance EPS.
Exact values compare by exact equality, so verdicts like "defect == 0" never
depend on a tolerance.
"""

from __future__ import annotations

from fractions import Fraction

Scalar = int | float | Fraction

#: absolute tolerance for probability comparisons in float mode
EPS = 1e-9


def scalar_eq(a: Scalar, b: Scalar) -> bool:
    """Exact equality for exact operands, |a-b| <= EPS when a float is involved."""
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= EPS
    return a == b


def is_zero(x: Scalar) -> bool:
    return scalar_eq(x, 0)


def is_positive(x: Scalar) -> bool:
    return not is_zero(x) and x > 0


def to_float(x: Scalar) -> float:
    return float(x)


def exact(x: int | str | Fraction) -> Fraction:
    """Coerce an integer, rational string ("3/4", "0.25") or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


def format_scalar(x: Scalar) -> str:
    """Serialize a probability: rationals as "num/den", floats as repr."""
    if isinstance(x, float):
        return repr(x)
    f = x if isinstance(x, Fraction) else Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
