"""Exact rationals: floor and fractional part as theta(1, x) and nu(1, x), p/q serialization."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from totdk import DomainError, format_rational, nu, parse_rational, theta

nonzero = st.integers(min_value=-10**12, max_value=10**12).filter(lambda x: x != 0)
ints = st.integers(min_value=-10**12, max_value=10**12)
rationals = st.builds(Fraction, ints, nonzero)


@pytest.mark.parametrize(
    "x,floor,frac",
    [
        (Fraction(7, 3), 2, Fraction(1, 3)),
        (Fraction(-1, 3), -1, Fraction(2, 3)),
        (Fraction(4, 1), 4, Fraction(0)),
        (Fraction(-7, 2), -4, Fraction(1, 2)),
        (0, 0, Fraction(0)),
    ],
)
def test_floor_and_frac(x, floor, frac):
    # 1 is the only divisor of 1, so theta(1, x) = floor(x) and nu(1, x) = frac(x).
    assert theta(1, x) == floor
    assert nu(1, x) == frac
    assert type(nu(1, x)) is Fraction


@given(rationals)
def test_floor_frac_decomposition(x):
    f = nu(1, x)
    assert x == theta(1, x) + f
    assert 0 <= f < 1


@pytest.mark.parametrize(
    "x,text",
    [
        (Fraction(-1, 18), "-1/18"),
        (Fraction(0), "0"),
        (Fraction(30), "30"),
        (Fraction(3, 2), "3/2"),
    ],
)
def test_canonical_text_form(x, text):
    assert format_rational(x) == text
    assert parse_rational(text) == x


@given(rationals)
def test_serialization_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_parse_rejects_garbage():
    for text in ["one half", "1/0", "0.5", "1e3", "1_000", "1/-2", "1/2/3", "", "/2", "inf"]:
        with pytest.raises(DomainError):
            parse_rational(text)


def test_parse_accepts_signs_and_whitespace():
    assert parse_rational(" -5/2 ") == Fraction(-5, 2)
    assert parse_rational("+4/6") == Fraction(2, 3)
    assert parse_rational("007") == 7
