"""Exact-rational and floating scalar handling.

All quantities in the library are either `fractions.Fraction` (exact mode,
the default) or `float` (float mode, used when the rotation parameter of the
neutrally stable model is irrational).  Decimal strings parse exactly in
exact mode, so "0.42" becomes 21/50 and every downstream inequality is
decided without rounding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, float]

#: default absolute tolerance for float-mode comparisons
FLOAT_TOL = 1e-9

#: log2(5), to guess the power of five in a denominator from its bit length
_LOG2_5 = 2.321928094887362


class ScalarFormatError(ValueError):
    """A scalar string could not be parsed."""


def parse_scalar(text: str, mode: str = "exact") -> Scalar:
    """Parse a decimal or "p/q" string into a Scalar for the given mode.

    Accepts exactly what `Fraction(str)` accepts.  The two forms that
    `format_scalar` writes, ASCII `-?[0-9]+(.[0-9]+)?` and `-?[0-9]+/[0-9]+`,
    are built straight from `int()`; any other text goes through `Fraction`.
    """
    text = text.strip()
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    unsigned = text[1:] if text[:1] == "-" else text
    whole, dot, decimals = unsigned.partition(".")
    top, _, bottom = unsigned.partition("/")
    canonical = unsigned.isascii()
    try:
        if canonical and whole.isdigit() and (not dot or decimals.isdigit()):
            value = Fraction(int(text.replace(".", "")), 10 ** len(decimals))
        elif canonical and top.isdigit() and bottom.isdigit():
            value = Fraction(int(text.partition("/")[0]), int(bottom))
        else:
            value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarFormatError(f"cannot parse scalar {text!r}") from exc
    return value if mode == "exact" else float(value)


def format_scalar(value: Scalar) -> str:
    """Render a scalar exactly.

    Fractions with a terminating decimal expansion are printed as the
    shortest exact decimal; non-terminating ones as "p/q".  Floats use repr.
    """
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        n, d = value.numerator, value.denominator
        if d == 1:
            return str(n)
        twos = (d & -d).bit_length() - 1
        rest = d >> twos
        # 5**k has bit length floor(k*log2(5)) + 1, so bit_length/log2(5)
        # lies in (k, k + 0.431] and truncates to the only k that can match
        fives = int(rest.bit_length() / _LOG2_5)
        if rest != 5**fives:
            return f"{n}/{d}"
        digits = max(twos, fives)
        scaled = n * 5 ** (twos - fives) if twos >= fives else n << (fives - twos)
        sign = "-" if scaled < 0 else ""
        body = str(abs(scaled)).rjust(digits + 1, "0")
        return f"{sign}{body[:-digits]}.{body[-digits:]}"
    return repr(float(value))


def is_exact(value: Scalar) -> bool:
    return isinstance(value, (Fraction, int))


def scalars_equal(x: Scalar, y: Scalar, tol: float = FLOAT_TOL) -> bool:
    """Equality test: bit-exact for rationals, absolute tolerance for floats."""
    if is_exact(x) and is_exact(y):
        return x == y
    return abs(x - y) <= tol
