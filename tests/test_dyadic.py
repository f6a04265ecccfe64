"""Dyadic arithmetic: canonical form, exact laws, parsing."""

import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sharedsched.dyadic import ONE, ZERO, Dyadic, _quoted, as_dyadic

from conftest import literal_corpus

dyadics = st.builds(
    Dyadic, st.integers(-(10**9), 10**9), st.integers(min_value=0, max_value=40)
)


def test_canonical_form():
    assert Dyadic(12, 2) == Dyadic(3)
    assert Dyadic(12, 2).exponent == 0
    assert Dyadic(6, 1).mantissa == 3
    assert Dyadic(0, 7) == ZERO
    assert Dyadic(0, 7).exponent == 0
    assert Dyadic(5, 0).mantissa == 5


def test_constructor_rejections():
    with pytest.raises(ValueError):
        Dyadic(1, -1)
    with pytest.raises(TypeError):
        Dyadic(1.5)  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        Dyadic(True)  # type: ignore[arg-type]
    with pytest.raises(TypeError, match="^exponent must be an int, got bool$"):
        Dyadic(1, True)  # type: ignore[arg-type]


def test_immutable():
    d = Dyadic(3, 1)
    with pytest.raises(AttributeError):
        d.mantissa = 4  # type: ignore[misc]


def test_spec_arithmetic_examples():
    assert Dyadic(1, 1) + Dyadic(1, 2) == Dyadic(3, 2)  # 1/2 + 1/4 = 3/4
    assert Dyadic(5).half() == Dyadic(5, 1)  # halve(5) = 5/2
    assert Dyadic(3, 3) * Dyadic(4) == Dyadic(3, 1)  # 3/8 * 4 = 3/2


@pytest.mark.parametrize(
    "text,expected",
    [
        ("4", Dyadic(4)),
        ("-3", Dyadic(-3)),
        ("7/2", Dyadic(7, 1)),
        ("3/4", Dyadic(3, 2)),
        ("-5/8", Dyadic(-5, 3)),
        ("3/2^5", Dyadic(3, 5)),
        ("0/8", ZERO),
        ("6/2", Dyadic(3)),
        ("5/1", Dyadic(5)),
    ],
)
def test_parse(text, expected):
    assert Dyadic.from_string(text) == expected


@pytest.mark.parametrize("text", ["1/3", "1.5", "", "a", "1/0", "3/6", "+3", "1 /2", "2^3"])
def test_parse_rejections(text):
    with pytest.raises(ValueError):
        Dyadic.from_string(text)


_INT_RE = re.compile(r"^-?\d+$")
_FRAC_RE = re.compile(r"^(-?\d+)/(\d+)$")
_POW_RE = re.compile(r"^(-?\d+)/2\^(\d+)$")


def three_pattern_from_string(text):
    """The parser that one literal pattern replaced, kept as a reference."""
    if _INT_RE.match(text):
        return Dyadic(int(text))
    m = _POW_RE.match(text)
    if m:
        return Dyadic(int(m.group(1)), int(m.group(2)))
    m = _FRAC_RE.match(text)
    if m:
        den = int(m.group(2))
        if den <= 0 or den & (den - 1):
            raise ValueError(f"denominator is not a power of two: {text!r}")
        return Dyadic(int(m.group(1)), den.bit_length() - 1)
    raise ValueError(f"not a dyadic literal: {text!r}")


def parse_outcome(parse, text):
    try:
        value = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return value.mantissa, value.exponent


PINNED_LITERALS = ["1/0", "3/2^", "3/24", "4\n", "٣/2", "3/2^4\n", "4\n\n", "", "/2", "1" * 5000]


def test_from_string_matches_three_pattern_parser():
    corpus = literal_corpus(random.Random(2024), 20_000) + PINNED_LITERALS
    kinds = Counter()
    for text in corpus:
        got = parse_outcome(Dyadic.from_string, text)
        expected = parse_outcome(three_pattern_from_string, text)
        if not text.isascii() or text.endswith("\n"):
            # the strict grammar: ASCII digits only, and no final newline
            expected = "error", f"not a dyadic literal: {text!r}"
        elif expected[0] == "error" and expected[1].startswith("Exceeds the limit"):
            # CPython's own text for the int-from-str digit limit
            expected = "error", f"a number has more than {sys.get_int_max_str_digits()} digits"
        assert got == expected, repr(text)
        kinds[got[1].split(":")[0] if got[0] == "error" else "ok"] += 1
    assert min(kinds["ok"], kinds["not a dyadic literal"]) > 5000
    assert kinds["denominator is not a power of two"] > 1000
    # the reference parser accepted both (as 4 and 3/2)
    assert parse_outcome(Dyadic.from_string, "4\n") == ("error", "not a dyadic literal: '4\\n'")
    assert parse_outcome(Dyadic.from_string, "٣/2") == ("error", "not a dyadic literal: '٣/2'")


def test_str_forms():
    assert str(Dyadic(3, 2)) == "3/4"
    assert str(Dyadic(-7, 1)) == "-7/2"
    assert str(Dyadic(5)) == "5"
    assert str(ZERO) == "0"


def test_as_dyadic_coercions():
    assert as_dyadic(4) == Dyadic(4)
    assert as_dyadic("7/2") == Dyadic(7, 1)
    assert as_dyadic(ONE) is ONE
    with pytest.raises(TypeError):
        as_dyadic(1.5)
    with pytest.raises(TypeError):
        as_dyadic(True)


def test_int_interop():
    assert Dyadic(4) == 4
    assert Dyadic(9, 1) > 4
    assert 4 < Dyadic(9, 1)
    assert Dyadic(3, 1) + 1 == Dyadic(5, 1)
    assert 1 - Dyadic(1, 2) == Dyadic(3, 2)
    assert 2 * Dyadic(3, 2) == Dyadic(3, 1)
    assert hash(Dyadic(4)) == hash(4)
    assert hash(Dyadic(3, 1)) == hash(Fraction(3, 2))


@pytest.mark.parametrize(
    "op",
    [
        lambda: Dyadic(1) + 1.5,
        lambda: Dyadic(1) - "x",
        lambda: "x" - Dyadic(1),
        lambda: Dyadic(1) * None,
        lambda: Dyadic(1) < 1.5,
    ],
    ids=["add", "sub", "rsub", "mul", "lt"],
)
def test_operators_refuse_what_is_not_a_number(op):
    # each operator returns NotImplemented, so Python raises TypeError
    with pytest.raises(TypeError):
        op()


def test_truth_is_a_nonzero_mantissa():
    assert Dyadic(1, 3) and Dyadic(-2)
    assert not ZERO and not Dyadic(0, 5)


def test_mul_pow2():
    assert Dyadic(3).mul_pow2(-2) == Dyadic(3, 2)
    assert Dyadic(3, 2).mul_pow2(2) == Dyadic(3)
    assert Dyadic(3, 1).mul_pow2(4) == Dyadic(24)
    assert ZERO.mul_pow2(5) == ZERO


@given(dyadics, dyadics)
def test_add_sub_roundtrip(a, b):
    assert (a + b) - b == a


@given(dyadics, dyadics, dyadics)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(dyadics, dyadics)
def test_comparisons_match_fractions(a, b):
    fa = Fraction(a.mantissa, 1 << a.exponent)
    fb = Fraction(b.mantissa, 1 << b.exponent)
    assert (a < b) == (fa < fb)
    assert (a == b) == (fa == fb)
    assert (a >= b) == (fa >= fb)


@given(dyadics)
def test_string_roundtrip(a):
    assert Dyadic.from_string(str(a)) == a


@given(dyadics)
def test_half_and_neg(a):
    assert a.half() + a.half() == a
    assert a + (-a) == ZERO
    assert abs(a).sign in (0, 1)


@given(dyadics, st.integers(-20, 20))
def test_mul_pow2_matches_fraction(a, k):
    expected = Fraction(a.mantissa, 1 << a.exponent) * Fraction(2) ** k
    got = a.mul_pow2(k)
    assert Fraction(got.mantissa, 1 << got.exponent) == expected


def test_hash_matches_fraction_and_int():
    modulus = sys.hash_info.modulus
    mantissas = [0, 1, 2, 3, 5, modulus - 2, modulus - 1, modulus, modulus + 1, modulus + 2]
    mantissas += [2 * modulus + 1, modulus * modulus + 3, 3**90]
    for e in range(201):
        for m in mantissas:
            for signed in (m, -m):
                value = Dyadic(signed, e)
                assert hash(value) == hash(Fraction(signed, 2**e)), (signed, e)
                if value.is_integer:
                    assert hash(value) == hash(value.mantissa)
    assert hash(Dyadic(-1)) == hash(-1) == -2


def test_quoted_input_is_bounded():
    # up to 60 characters a value reads as its repr; past that, a prefix and the length
    for value in ("", "a b", "x" * 58, 7, -(10**50), ["X", 1], None):
        assert _quoted(value) == repr(value)
    assert _quoted("x" * 59) == "'" + "x" * 59 + "... (61 characters)"
    assert _quoted("é" * 10**6) == "'" + "é" * 59 + "... (1000002 characters)"
    assert _quoted(10**99) == "1" + "0" * 59 + "... (100 characters)"
    assert _quoted(list(range(10**5))) == repr(list(range(30)))[:60] + "... (688890 characters)"
    with pytest.raises(ValueError) as exc:
        Dyadic.from_string("1/3" + "x" * 100_000)
    assert str(exc.value) == "not a dyadic literal: '1/3" + "x" * 56 + "... (100005 characters)"
