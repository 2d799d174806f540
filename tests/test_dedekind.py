"""Sawtooth function and Dedekind sums: naive oracle, fast evaluator, reciprocity."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import closed_form_three_pass, dedekind_naive_full, reciprocity_rhs, sawtooth
from totdk import (
    NAIVE_BOUND,
    DomainError,
    ResourceLimitError,
    dedekind_fast,
    dedekind_naive,
)
from totdk.dedekind import _closed_form

nonzero = st.integers(min_value=-10**6, max_value=10**6).filter(lambda x: x != 0)
ints = st.integers(min_value=-10**6, max_value=10**6)
rationals = st.builds(Fraction, ints, nonzero)


# ------------------------------------------------------------------- sawtooth


@pytest.mark.parametrize(
    "x,expected",
    [
        (Fraction(3, 1), Fraction(0)),
        (Fraction(1, 3), Fraction(-1, 6)),
        (Fraction(1, 2), Fraction(0)),
        (Fraction(-1, 3), Fraction(1, 6)),
        (0, Fraction(0)),
        (Fraction(7, 4), Fraction(1, 4)),
        (Fraction(-5, 2), Fraction(0)),
    ],
)
def test_sawtooth_known(x, expected):
    assert sawtooth(x) == expected


@given(rationals)
def test_sawtooth_is_odd(x):
    assert sawtooth(x) + sawtooth(-x) == 0


@given(rationals)
def test_sawtooth_range_and_integer_branch(x):
    v = sawtooth(x)
    if x.denominator == 1:
        assert v == 0
    else:
        assert Fraction(-1, 2) < v < Fraction(1, 2)


@given(rationals, ints)
def test_sawtooth_period_one(x, k):
    assert sawtooth(x + k) == sawtooth(x)


# ------------------------------------------------------------- naive evaluator


@pytest.mark.parametrize(
    "b,a,expected",
    [
        (1, 1, Fraction(0)),
        (1, 3, Fraction(1, 18)),
        (2, 3, Fraction(-1, 18)),
        (5, 5, Fraction(0)),
        (3, 2, Fraction(0)),
        (0, 7, Fraction(0)),
    ],
)
def test_naive_known(b, a, expected):
    assert dedekind_naive(b, a) == expected


def literal_definition(b: int, a: int) -> Fraction:
    # sum_{k=1..a} sawtooth(k*b/a) * sawtooth(k/a), straight from the definition
    return sum(
        (sawtooth(Fraction(k * b, a)) * sawtooth(Fraction(k, a)) for k in range(1, a + 1)),
        Fraction(0),
    )


def test_naive_matches_literal_definition_exhaustive():
    for a in range(1, 25):
        for b in range(0, 25):
            assert dedekind_naive(b, a) == literal_definition(b, a)


@given(st.integers(min_value=1, max_value=120), st.integers(min_value=1, max_value=400))
def test_naive_matches_literal_definition_sampled(a, b):
    assert dedekind_naive(b, a) == literal_definition(b, a)


def test_naive_half_range_equals_full_range():
    # Even a, zero terms inside the half range (gcd(b, a) > 1), b >= a and b = 0
    for a in range(1, 101):
        for b in range(0, 2 * a + 2):
            assert dedekind_naive(b, a) == dedekind_naive_full(b, a), (b, a)
    rng = random.Random(20261020)
    for _ in range(40):
        a = rng.randint(1, 10**4)
        b = rng.choice((0, rng.randrange(a), rng.randint(a, 3 * a), a * rng.randint(1, 3)))
        assert dedekind_naive(b, a) == dedekind_naive_full(b, a), (b, a)


def test_naive_b1_closed_form():
    # s(1, a) = (a-1)(a-2)/(12a)
    for a in range(1, 200):
        assert dedekind_naive(1, a) == Fraction((a - 1) * (a - 2), 12 * a)


def test_naive_rejects_bad_arguments():
    with pytest.raises(DomainError):
        dedekind_naive(1, 0)
    with pytest.raises(DomainError):
        dedekind_naive(-1, 3)


def test_naive_resource_bound():
    # The bound is checked before the O(a) loop, so this raises at once.
    with pytest.raises(ResourceLimitError, match=str(NAIVE_BOUND)):
        dedekind_naive(1, NAIVE_BOUND + 1)


def test_naive_accepts_a_at_the_bound():
    # b = 0 zeroes every term, so the O(a) loop over half of a = 10**7 costs about 0.3 s
    assert dedekind_naive(0, NAIVE_BOUND) == 0


# ------------------------------------------------------------------ reciprocity


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (1, 1, Fraction(0)),
        (2, 3, Fraction(-1, 18)),
        (1, 3, Fraction(1, 18)),
    ],
)
def test_reciprocity_rhs_known(a, b, expected):
    assert reciprocity_rhs(a, b) == expected


def test_reciprocity_rhs_equals_spelled_out_form():
    for a in range(1, 30):
        for b in range(1, 30):
            spelled = (
                Fraction(-1, 4)
                + Fraction(1, 12) * (Fraction(a, b) + Fraction(1, a * b) + Fraction(b, a))
            )
            assert reciprocity_rhs(a, b) == spelled


def test_reciprocity_law_on_coprime_pairs():
    for a in range(1, 60):
        for b in range(1, 60):
            if math.gcd(a, b) == 1:
                assert dedekind_naive(a, b) + dedekind_naive(b, a) == reciprocity_rhs(a, b)


# --------------------------------------------- fast evaluator, step by step


def test_reduction_step_scaling():
    # s(b*c, a*c) == s(b, a), tested against the naive oracle in isolation
    for a in range(1, 20):
        for b in range(1, 20):
            base = dedekind_naive(b, a)
            for c in range(1, 8):
                assert dedekind_naive(b * c, a * c) == base


def test_reduction_step_periodicity():
    # s(b + a, a) == s(b, a) and s(b mod a, a) == s(b, a)
    for a in range(1, 40):
        for b in range(1, 40):
            assert dedekind_naive(b + a, a) == dedekind_naive(b, a)
            assert dedekind_naive(b % a, a) == dedekind_naive(b, a)


def test_reduction_step_base_cases():
    # s(0, a) == 0 and s(b, 1) == 0
    for a in range(1, 50):
        assert dedekind_naive(0, a) == 0
        assert dedekind_naive(a, 1) == 0


def test_reduction_step_reciprocity_swap():
    # s(b, a) == reciprocity_rhs(b, a) - s(a, b) for coprime pairs
    for a in range(2, 50):
        for b in range(1, a):
            if math.gcd(a, b) == 1:
                assert dedekind_naive(b, a) == reciprocity_rhs(b, a) - dedekind_naive(a, b)


@pytest.mark.parametrize(
    "b,a,expected",
    [
        (1, 3, Fraction(1, 18)),
        (3, 2, Fraction(0)),
        (5, 5, Fraction(0)),
        (0, 9, Fraction(0)),
    ],
)
def test_fast_known(b, a, expected):
    assert dedekind_fast(b, a) == expected


def test_fast_regression_large_coprime_pair():
    # frozen from an audited step-by-step reciprocity unrolling of this pair
    assert math.gcd(1000003, 999983) == 1
    assert dedekind_fast(1000003, 999983) == Fraction(8331800027, 1999966)
    # the reciprocity law must hold at the same pair
    assert dedekind_fast(1000003, 999983) + dedekind_fast(999983, 1000003) == reciprocity_rhs(
        1000003, 999983
    )


def test_fast_equals_naive_exhaustive_small():
    for a in range(1, 80):
        for b in range(1, 80):
            assert dedekind_fast(b, a) == dedekind_naive(b, a)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000))
def test_fast_equals_naive_sampled(a, b):
    assert dedekind_fast(b, a) == dedekind_naive(b, a)


def test_fast_depth_is_logarithmic():
    # Euclidean bound: depth <= 2 * log_phi(min(a, b)) + O(1)
    golden = (1 + math.sqrt(5)) / 2
    for b, a in [(1000003, 999983), (10**12 + 39, 10**12 + 61), (2, 10**15)]:
        numerator, k, depth = _closed_form(b, a)
        assert Fraction(numerator, 12 * k) == dedekind_fast(b, a)
        assert depth <= 2 * math.log(min(a, b) + 1, golden) + 4


def reciprocity_evaluator(b: int, a: int) -> tuple[Fraction, int]:
    """Independent big-number oracle built on the reciprocity law alone.

    After gcd scaling and b mod a, apply s(b, a) = rhs(b, a) - s(a mod b, b)
    until b = 0; returns the value and the number of swaps.
    """
    g = math.gcd(b, a)
    b, a = b // g, a // g
    b %= a
    total = Fraction(0)
    sign = 1
    swaps = 0
    while b:
        total += sign * reciprocity_rhs(b, a)
        sign = -sign
        a, b = b, a % b
        swaps += 1
    return total, swaps


@st.composite
def big_pairs(draw):
    # (b, a) up to 10**100: a shared factor g, b = 0, b >= a and 0 < b < a all occur
    g = draw(st.sampled_from((1, 1, 2, 12, 10**9 + 7, 10**40)))
    a = draw(st.integers(min_value=1, max_value=10**100 // g))
    b = draw(
        st.just(0)
        | st.integers(min_value=0, max_value=a)
        | st.integers(min_value=a, max_value=10**100 // g)
    )
    return b * g, a * g


@settings(max_examples=300, deadline=None)
@given(big_pairs())
def test_fast_equals_reciprocity_oracle_on_big_pairs(pair):
    b, a = pair
    assert (dedekind_fast(b, a), _closed_form(b, a)[2]) == reciprocity_evaluator(b, a)


@settings(max_examples=300, deadline=None)
@given(big_pairs())
def test_closed_form_equals_three_pass_oracle_on_big_pairs(pair):
    # One extended-Euclid pass against separate gcd, quotient and inverse passes
    b, a = pair
    assert _closed_form(b, a) == closed_form_three_pass(b, a)


def test_integer_closed_form_equals_naive():
    # s(b, a) = N / (12k) unreduced, with k = a / gcd(b, a), at the reciprocity
    # oracle's depth; s_double_sum scales each N by n // k and relies on that k
    for a in range(1, 61):
        for b in range(0, 2 * a + 1):
            numerator, k, depth = _closed_form(b, a)
            assert k == a // math.gcd(b, a)
            assert Fraction(numerator, 12 * k) == dedekind_naive(b, a), (b, a)
            assert depth == reciprocity_evaluator(b, a)[1]


def test_fast_rejects_bad_arguments():
    with pytest.raises(DomainError):
        dedekind_fast(1, 0)
    with pytest.raises(DomainError):
        dedekind_fast(-2, 5)
