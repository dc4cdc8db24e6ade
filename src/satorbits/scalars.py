"""Exact-rational and floating scalar handling.

All quantities in the library are either `fractions.Fraction` (exact mode,
the default) or `float` (float mode, used when the rotation parameter of the
neutrally stable model is irrational).  Text crosses this module through
one reader and one writer.  `parse_scalar` reads every text through
`Fraction`, so "0.42" becomes 21/50 in exact mode and every downstream
inequality is decided without rounding.  `ratio_texts` writes rationals, a
terminating decimal as the shortest exact decimal and any other value as
"p/q"; `format_scalar` writes one scalar through it.  Every rational written
reads back to its value.

Tolerance policy: `scalars_equal` is the one equality test.  Rationals are
compared bit-exactly; a pair with a float in it is equal when it differs by
at most `FLOAT_TOL`, an absolute bound.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, TypeVar, Union

Scalar = Union[Fraction, float]
T = TypeVar("T")
R = TypeVar("R")

#: the one float tolerance: absolute, applied to float equality by
#: `scalars_equal` only (and by `normalize_ns` to its controllability gate)
FLOAT_TOL = 1e-9

#: log2(5), to guess the power of five in a denominator from its bit length
_LOG2_5 = 2.321928094887362


class ScalarFormatError(ValueError):
    """A scalar string could not be parsed."""


def _quoted(text: str) -> str:
    """repr(text), cut to 37 characters and "..." when longer than 40."""
    return repr(text if len(text) <= 40 else text[:37] + "...")


def parse_int(text: str) -> int:
    """An optionally signed integer of ASCII digits 0-9, around which blanks are allowed.

    `int()` alone also reads any Unicode decimal digit ("\u0663" is 3) and underscores.
    """
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(body)


def parse_scalar(text: str, mode: str = "exact") -> Scalar:
    """Parse a decimal or "p/q" string into a Scalar for the given mode.

    Reads exactly what `Fraction(str)` reads, blanks around it allowed.  A
    text that cannot be read, a number with more digits than Python converts
    from text to an integer (`sys.get_int_max_str_digits()`) and, in float
    mode, a value beyond the float range raise `ScalarFormatError`.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    text = text.strip()
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        # int() raises the digit limit; Fraction's own error is "Invalid literal ..."
        if str(exc).startswith("Exceeds the limit"):
            raise ScalarFormatError(
                f"scalar {_quoted(text)} has more than {sys.get_int_max_str_digits()} "
                "digits, beyond Python's limit on converting text to an integer"
            ) from exc
        raise ScalarFormatError(f"cannot parse scalar {_quoted(text)}") from exc
    if mode == "exact":
        return value
    try:
        return float(value)
    except OverflowError as exc:
        raise ScalarFormatError(f"scalar {_quoted(text)} outside the float range") from exc


def decimal_scale(d: int) -> Optional[tuple[int, int]]:
    """(digits, c) with 1/d == c / 10**digits, or None unless d = 2^a 5^b > 0.

    c is one power of 2 or of 5, so scaling a numerator needs no division.
    """
    twos = (d & -d).bit_length() - 1
    rest = d >> twos
    if rest % 5 and rest != 1:
        return None
    # 5**k has bit length floor(k*log2(5)) + 1, so bit_length/log2(5)
    # lies in (k, k + 0.431] and truncates to the only k that can match
    fives = int(rest.bit_length() / _LOG2_5)
    if rest != 5**fives:
        return None
    if twos >= fives:
        return twos, 5 ** (twos - fives)
    return fives, 1 << (fives - twos)


def _format_decimal(n: int, digits: int) -> str:
    """n / 10**digits as the shortest exact decimal (trailing zeros dropped)."""
    if not digits:
        return str(n)
    body = str(abs(n)).rjust(digits + 1, "0")
    head, tail = body[:-digits], body[-digits:].rstrip("0")
    sign = "-" if n < 0 else ""
    return f"{sign}{head}.{tail}" if tail else f"{sign}{head}"


def format_scalar(value: Scalar) -> str:
    """Render a scalar exactly: `ratio_texts` for rationals, repr for floats."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return ratio_texts([value.numerator], value.denominator)[0]
    return repr(float(value))


def ratio_texts(N: list[int], D: int) -> list[str]:
    """The `format_scalar` text of each n/D, for D > 0 and n/D in any terms.

    When D = 2^a 5^b every value is n times one fixed power of 2 or 5 over
    10**digits, and dropping trailing zeros reduces it, so no gcd is taken.
    Otherwise each value is reduced by its gcd with D.
    """
    scale = decimal_scale(D)
    if scale is not None:
        digits, c = scale
        return [_format_decimal(n * c, digits) for n in N]
    texts = []
    # the values of a row share a few reduced denominators
    scales: dict[int, Optional[tuple[int, int]]] = {}
    for n in N:
        g = math.gcd(n, D)
        p, q = n // g, D // g
        if q not in scales:
            scales[q] = decimal_scale(q)
        scale = scales[q]
        texts.append(f"{p}/{q}" if scale is None else _format_decimal(p * scale[1], scale[0]))
    return texts


def distinct(values: Iterable[T]) -> Iterable[T]:
    """The distinct objects of `values`, in first-occurrence order, told apart
    by identity as in `per_object`."""
    return {id(v): v for v in values}.values()


def per_object(fn: Callable[[T], R], values: Sequence[T]) -> list[R]:
    """[fn(v) for v in values], calling fn once per distinct object of `values`.

    A parsed graph shares one weight object per distinct text and a
    synthesized plan one start state per class, so this does a per-edge or
    per-agent computation once per distinct value.  Objects are told apart
    by `id`, never by value: hashing a `Fraction` costs more than most of
    the work it would save.  `values` holds its objects while this runs, so
    no id is reused.
    """
    done = {key: fn(v) for key, v in {id(v): v for v in values}.items()}
    return list(map(done.__getitem__, map(id, values)))


def is_exact(value: Scalar) -> bool:
    return isinstance(value, (Fraction, int))


def scalars_equal(x: Scalar, y: Scalar) -> bool:
    """Equality test: bit-exact for rationals, within `FLOAT_TOL` when either is a float."""
    if is_exact(x) and is_exact(y):
        return x == y
    return abs(x - y) <= FLOAT_TOL
