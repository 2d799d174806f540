"""Exact rationals: floor and fractional part as theta(1, x) and nu(1, x); the p/q
text that reports render with str() and that `totdk eval` parses and prints."""

import argparse
import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from totdk import IdentityResult, VerificationReport, nu, theta
from totdk.cli import _rational, main

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


def report_text(x):
    """x as a verify report renders it, in an IdentityResult row."""
    report = VerificationReport("chain", 2, 2, 1, [IdentityResult(1, "x", x, x, True)])
    [row] = json.loads(report.render("json"))["failures"]
    assert row["lhs"] == row["rhs"]
    return row["lhs"]


def eval_stdout(kind, text):
    """stdout of `totdk eval KIND 1 -- TEXT`: floor(x) for theta, frac(x) for nu."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["eval", kind, "1", "--", text]) == 0
    return out.getvalue()


# floor(x) and frac(x) of each canonical text, as `eval theta 1` and `eval nu 1` print them
EVAL_TEXTS = {
    "-1/18": ("-1\n", "17/18\n"),
    "0": ("0\n", "0\n"),
    "30": ("30\n", "0\n"),
    "3/2": ("1\n", "1/2\n"),
}


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
    assert report_text(x) == text
    assert _rational(text) == x
    assert (eval_stdout("theta", text), eval_stdout("nu", text)) == EVAL_TEXTS[text]


@given(rationals)
def test_serialization_round_trip(x):
    text = report_text(x)
    assert _rational(text) == x
    floor, frac = eval_stdout("theta", text), eval_stdout("nu", text)
    assert _rational(floor) == x // 1
    assert _rational(frac) == x % 1


def test_parse_rejects_garbage():
    garbage = ["one half", "1/0", "1/00", "0.5", "1e3", "1_000", "1/-2", "1/2/3", "", "/2", "inf"]
    garbage.append("\u0663")  # ASCII digits alone: not the Arabic-Indic 3
    for text in garbage:
        with pytest.raises(argparse.ArgumentTypeError):
            _rational(text)
        assert main(["eval", "nu", "1", "--", text]) == 2, text


def test_parse_accepts_signs_and_whitespace():
    assert _rational(" -5/2 ") == Fraction(-5, 2)
    assert _rational("+4/6") == Fraction(2, 3)
    assert _rational("007") == 7
    assert _rational("1/007") == Fraction(1, 7)  # a zero-padded denominator is not zero
