from __future__ import annotations

import sys
from fractions import Fraction

import pytest

from satorbits.scalars import (
    ScalarFormatError,
    format_scalar,
    parse_scalar,
    ratio_texts,
)


def reference_format(value) -> str:
    """Reference formatter: strips each factor of 2 and 5 with its own division."""
    if isinstance(value, int):
        return str(value)
    n, d = value.numerator, value.denominator
    if d == 1:
        return str(n)
    twos = fives = 0
    rest = d
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{n}/{d}"
    digits = max(twos, fives)
    scaled = n * 10**digits // d
    sign = "-" if scaled < 0 else ""
    body = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{body[:-digits]}.{body[-digits:]}"


EXPONENTS = [0, 1, 2, 7, 50, 399, 2000]
FACTORS = [1, 3, 7, 3**40]
NUMERATORS = [1, -7, 2**70 + 1, -(10**30) - 3]


def _values():
    for a in EXPONENTS:
        for b in EXPONENTS:
            for c in FACTORS:
                for p in NUMERATORS:
                    yield Fraction(p, 2**a * 5**b * c)
    yield from [Fraction(0), Fraction(-12), Fraction(10**40), 0, 17, -5, 10**25]


VALUES = list(_values())


def test_format_matches_division_loop():
    for value in VALUES:
        assert format_scalar(value) == reference_format(value), value


def test_parse_inverts_format():
    for value in VALUES:
        assert parse_scalar(format_scalar(value)) == value, value


@pytest.mark.parametrize("text", ["0.5", "-12.250", "007", "-0", "3/4", "-10/4"])
def test_canonical_forms_parse_like_fraction(text):
    value = parse_scalar(text)
    assert value == Fraction(text) and type(value) is Fraction
    assert parse_scalar(text, "float") == float(Fraction(text))


@pytest.mark.parametrize(
    "text",
    ["+3", " 2 ", ".5", "5.", "1e3", "1_0", "٣", "²", "1/0", "-", "", "1.2.3"],
)
def test_other_text_parses_like_fraction(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ScalarFormatError):
            parse_scalar(text)
    else:
        assert parse_scalar(text) == expected


@pytest.mark.parametrize(
    "D", [1, 10, 2**7 * 5**3, 2**300 * 5**2, 5**466 * 2**321, 3 * 2**5, 7**20, 10**50 * 3]
)
def test_ratio_texts_match_format_scalar(D):
    """Numerators in any terms over one denominator, as `format_scalar` writes them."""
    N = [0, 1, -1, D, -D, 3 * D, -7 * D + 1, 2**70 + 1, -(10**30) - 3]
    N += [n * f for n in (1, -3, 11) for f in (2, 5, 10, 2**9, 5**7, D // 2 or 1, D // 5 or 1)]
    assert ratio_texts(N, D) == [format_scalar(Fraction(n, D)) for n in N]


@pytest.mark.parametrize(
    "text,message",
    [
        (" 1/0 ", "cannot parse scalar '1/0'"),
        ("x" * 40, f"cannot parse scalar {'x' * 40!r}"),
        ("x" * 41, f"cannot parse scalar '{'x' * 37}...'"),
        ("1" * 50 + "x", f"cannot parse scalar '{'1' * 37}...'"),
    ],
)
def test_unparsable_text_is_quoted_up_to_40_characters(text, message):
    with pytest.raises(ScalarFormatError) as exc:
        parse_scalar(text)
    assert str(exc.value) == message


def test_float_range_message_is_quoted_up_to_40_characters():
    with pytest.raises(ScalarFormatError) as exc:
        parse_scalar("9" * 400, "float")
    assert str(exc.value) == f"scalar '{'9' * 37}...' outside the float range"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize(
    "text",
    ["7" * 700, "-0." + "7" * 700, "7" * 700 + "/3", "1/" + "3" * 700],
    ids=["integer", "decimal", "numerator", "denominator"],
)
def test_number_beyond_the_digit_limit_names_the_limit(text):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ScalarFormatError) as exc:
            parse_scalar(text)
        # 640 digits are within the limit
        assert parse_scalar("7" * 640) == 7 * (10**640 - 1) // 9
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(exc.value) == (
        f"scalar '{text[:37]}...' has more than 640 digits, "
        "beyond Python's limit on converting text to an integer"
    )
