from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satorbits.scalars import (
    ScalarFormatError,
    format_scalar,
    negated_texts,
    over_digit_limit,
    parse_scalar,
    quoted,
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


@pytest.mark.parametrize(
    "value,text",
    [
        (Fraction(1, 3), "1/3"),
        (Fraction(-7, 12), "-7/12"),
        (Fraction(1, 8), "0.125"),
        (Fraction(5), "5"),
    ],
)
def test_format_pins(value, text):
    """A reduced Fraction and the same value over a common multiple read alike."""
    assert format_scalar(value) == text
    assert ratio_texts([value.numerator * 6], value.denominator * 6) == [text]


def test_parse_inverts_format():
    for value in VALUES:
        assert parse_scalar(format_scalar(value)) == value, value


@pytest.mark.parametrize("text", ["0.5", "-12.250", "007", "-0", "3/4", "-10/4"])
def test_canonical_forms_parse_like_fraction(text):
    value = parse_scalar(text)
    assert value == Fraction(text) and type(value) is Fraction
    assert parse_scalar(text, "float") == float(Fraction(text))


#: plain decimal texts: a sign or none, leading zeros, and up to 60 fraction
#: digits with trailing zeros
PLAIN_DECIMALS = st.builds(
    lambda sign, head, tail: sign + head + ("." + tail if tail is not None else ""),
    st.sampled_from(("", "-")),
    st.from_regex(r"0{0,3}[0-9]{1,25}", fullmatch=True),
    st.none() | st.from_regex(r"[0-9]{1,57}0{0,3}", fullmatch=True),
)


@given(PLAIN_DECIMALS)
def test_plain_decimals_read_as_fraction_reads_them(text):
    value = parse_scalar(text)
    assert value == Fraction(text) and type(value) is Fraction
    assert parse_scalar(text, "float") == float(Fraction(text))


@given(st.text(alphabet="0123456789.-+_/e \u0663", max_size=8))
def test_short_texts_read_as_fraction_reads_them(text):
    """Texts on and off the plain decimal form, exact mode."""
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ScalarFormatError):
            parse_scalar(text)
    else:
        value = parse_scalar(text)
        assert value == expected and type(value) is Fraction


@pytest.mark.parametrize(
    "text,value",
    [
        ("1.", Fraction(1)),
        (".5", Fraction(1, 2)),
        ("+0.5", Fraction(1, 2)),
        ("1_0.5", Fraction(21, 2)),
        ("\u0663.\u0665", Fraction(7, 2)),
        ("1e3", Fraction(1000)),
        ("-0.0", Fraction(0)),
    ],
)
def test_near_plain_decimals_read_as_fraction_reads_them(text, value):
    """Texts just off the plain decimal form, and -0.0: as Fraction(str) reads each."""
    got = parse_scalar(text)
    assert got == value and type(got) is Fraction
    assert repr(parse_scalar(text, "float")) == repr(float(value))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_plain_decimal_past_the_digit_limit_is_refused():
    """The digits of a plain decimal, before and after its point together,
    count against the limit, as the writer counts them, though Fraction(str)
    reads 400 digits on each side as two integers within a 640-digit limit;
    a "p/q" text still reads as Fraction(str) reads it."""
    text = "-" + "7" * 400 + "." + "3" * 400
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for plain in (text, "7" * 700 + ".5"):
            with pytest.raises(ScalarFormatError) as exc:
                parse_scalar(plain)
            assert str(exc.value) == over_digit_limit(f"scalar {quoted(plain)}")
        ratio = "7" * 400 + "/" + "3" * 400
        value = parse_scalar(ratio)
    finally:
        sys.set_int_max_str_digits(limit)
    assert value == Fraction(ratio)


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


@given(
    values=st.lists(
        st.one_of(st.integers(-1000, 1000), st.integers(-(2**130), 2**130)), min_size=1, max_size=12
    ),
    copies=st.integers(1, 3),
    twos=st.integers(0, 90),
    fives=st.integers(0, 40),
    other=st.sampled_from([1, 1, 3, 7, 21, 2**61 - 1]),
)
def test_negated_texts_are_the_texts_of_the_negated_values(values, copies, twos, fives, other):
    """Toggling the sign of each text gives the texts of the negated row: on
    decimal rows, with repeats and without, and on rows over any other D."""
    N = values * copies
    D = 2**twos * 5**fives * other
    assert negated_texts(ratio_texts(N, D)) == ratio_texts([-n for n in N], D)


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


@pytest.mark.parametrize("mode", ["fixed", "Exact", ""])
def test_unknown_mode_is_refused(mode):
    """`parse_scalar` reads in "exact" or "float" mode only."""
    with pytest.raises(ValueError) as exc:
        parse_scalar("1", mode)
    assert str(exc.value) == f"unknown mode {mode!r}"
