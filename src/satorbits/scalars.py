"""Exact-rational and floating scalar handling.

All quantities in the library are either `fractions.Fraction` (exact mode,
the default) or `float` (float mode, used when the rotation parameter of the
neutrally stable model is irrational).  Inside the stepping kernel a run of
terminating decimals holds its values as `decimal.Decimal`s, computed in
the exact context `EXACT` and given out as `Fraction`s.  Text crosses this module through
one reader and one writer.  `parse_scalar` reads every text to the value
`Fraction(str)` gives, so "0.42" becomes 21/50 in exact mode and every
downstream inequality is decided without rounding.  `ratio_texts` writes
rationals, each value it is given, a terminating decimal as the shortest
exact decimal and any other value as "p/q"; `format_scalar` writes one
scalar through it.  Every rational written reads back to its value.

Tolerance policy: `scalars_equal` is the one equality test.  Rationals are
compared bit-exactly; a pair with a float in it is equal when it differs by
at most `FLOAT_TOL`, an absolute bound.
"""

from __future__ import annotations

import functools
import math
import sys
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    localcontext,
)
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

#: the context of all `Decimal` arithmetic: the caller's, 28 digits by
#: default, would round silently; here no sum or product of terminating
#: decimals is rounded, and one that would be raises
EXACT = Context(
    prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, clamp=0,
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)


class ScalarFormatError(ValueError):
    """A scalar string could not be parsed."""


def quoted(text: str) -> str:
    """repr(text), cut to 37 characters and "..." when longer than 40."""
    return repr(text if len(text) <= 40 else text[:37] + "...")


def over_digit_limit(what: str) -> str:
    """The message for `what`, a text of more digits than Python reads into an integer."""
    return (
        f"{what} has more than {sys.get_int_max_str_digits()} digits, "
        "beyond Python's limit on converting text to an integer"
    )


def parse_int(text: str) -> int:
    """An optionally signed integer of ASCII digits 0-9, around which blanks are allowed.

    `int()` alone also reads any Unicode decimal digit ("\u0663" is 3) and
    underscores.  A text that is not such an integer, or has more digits than
    Python converts from text (`sys.get_int_max_str_digits()`), raises
    `ValueError` quoting at most 40 characters of it.
    """
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {quoted(text)}")
    try:
        return int(body)
    except ValueError:
        raise ValueError(over_digit_limit(f"integer {quoted(text)}")) from None


def _plain_decimal(text: str) -> Optional[Fraction]:
    """A plain decimal text's value, its digits over a power of ten; None for
    any other text.  Past Python's digit limit it raises, as the writer's does."""
    head, dot, tail = text.partition(".")
    digits = head[1:] if head[:1] == "-" else head
    if not (text.isascii() and digits.isdigit() and (tail.isdigit() or not dot)):
        return None
    try:
        return Fraction(int(head + tail), 10 ** len(tail))
    except ValueError:
        raise ScalarFormatError(over_digit_limit(f"scalar {quoted(text)}")) from None


def parse_scalar(text: str, mode: str = "exact") -> Scalar:
    """Parse a decimal or "p/q" string into a Scalar for the given mode.

    Reads exactly what `Fraction(str)` reads, blanks around it allowed.  A
    text that cannot be read, a number with more digits than Python converts
    from text to an integer (`sys.get_int_max_str_digits()`) and, in float
    mode, a value beyond the float range raise `ScalarFormatError`.

    A plain decimal (ASCII `-?[0-9]+(.[0-9]+)?`, the form `ratio_texts`
    gives every terminating value) is read as its digits over a power of
    ten, the value `Fraction(str)` gives, without its regular expression,
    its digits on both sides of the point counted together against the
    limit; every other text goes through `Fraction(str)`.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    text = text.strip()
    value = _plain_decimal(text)
    try:
        if value is None:
            value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        # int() raises the digit limit; Fraction's own error is "Invalid literal ..."
        if str(exc).startswith("Exceeds the limit"):
            raise ScalarFormatError(over_digit_limit(f"scalar {quoted(text)}")) from exc
        raise ScalarFormatError(f"cannot parse scalar {quoted(text)}") from exc
    if mode == "exact":
        return value
    try:
        return float(value)
    except OverflowError as exc:
        raise ScalarFormatError(f"scalar {quoted(text)} outside the float range") from exc


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
        # a Fraction is reduced: no gcd, and one scale for its denominator
        n, d = value.numerator, value.denominator
        scale = decimal_scale(d)
        return f"{n}/{d}" if scale is None else _format_decimal(n * scale[1], scale[0])
    return repr(float(value))


def ratio_texts(N: list[int], D: int) -> list[str]:
    """The `format_scalar` text of each n/D, for D > 0 and n/D in any terms.

    When D = 2^a 5^b every value is n times one fixed power of 2 or 5 over
    10**digits, and dropping trailing zeros reduces it, so no gcd is taken.
    Otherwise each value is reduced by its gcd with D.  Every value is
    formatted, repeats too: the CSV writer passes a class-built row's
    distinct values alone (see `cli._csv_pieces`).
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


def decimal_texts(N: Sequence[Decimal], D: Decimal) -> list[str]:
    """The `ratio_texts` text of each `Decimal` n (D is 1): n normalized and
    written with no exponent, and 0, of either sign, as "0".

    Each n must have no trailing zero after its point, as no value the
    decimal kind makes has: its `str` is then its text, but for a value
    whose `str` holds an exponent or reads "-0", which is written again alone.

    A text of more digits, before and after its point, leading zeros
    included, than Python converts from text to an integer
    (`sys.get_int_max_str_digits()`) raises `ValueError`, as `str()` of such
    an integer does: `parse_scalar` reads a plain decimal as that integer.
    """
    texts = list(map(str, N))
    # str() of a normalized value writes an exponent only for an integer with
    # trailing zeros and below 1e-6, and 0 of either sign as "0" or "-0"
    if "-0" in texts or "E" in "".join(texts):
        for i, text in enumerate(texts):
            if "E" in text or text == "-0":
                texts[i] = format(N[i].normalize(EXACT), "f") if N[i] else "0"
    limit = sys.get_int_max_str_digits()
    # a text of at most `limit` characters has at most `limit` digits
    if limit and max(map(len, texts), default=0) > limit:
        for text in texts:
            if len(text) - text.startswith("-") - ("." in text) > limit:
                raise ValueError(f"a text of more than {limit} digits")
    return texts


def to_decimal(value: Fraction) -> Decimal:
    """The exact `Decimal` of a rational whose denominator is 2^a 5^b."""
    digits, c = decimal_scale(value.denominator)
    return Decimal(value.numerator * c).scaleb(-digits, EXACT)


def exactly(fn: Callable[..., R]) -> Callable[..., R]:
    """`fn` run in `EXACT`, whatever the caller's decimal context; the entry
    points of the kernel, the writer and the checks are so wrapped."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        with localcontext(EXACT):
            return fn(*args, **kwargs)

    return run


def negated_texts(texts: Iterable[str]) -> list[str]:
    """The `ratio_texts` text of each value negated, from the value's own text:
    `ratio_texts` writes -q as "-" and the text of q, and 0 as "0"."""
    return [t[1:] if t[0] == "-" else t if t == "0" else "-" + t for t in texts]


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
