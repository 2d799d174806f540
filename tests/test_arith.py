"""Integer arithmetic layer: factorization, multiplicative functions, totatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totdk import (
    ENUMERATION_BOUND,
    DomainError,
    ResourceLimitError,
    Sieve,
    coprime_residues,
    divisors,
    factorize,
    moebius,
    omega,
    radical,
    squarefree_divisors,
    totatives,
    totient,
)
from totdk.arith import distinct_primes, totient_from_primes

small_n = st.integers(min_value=1, max_value=50_000)


# ---------------------------------------------------------------- factorization


@pytest.mark.parametrize(
    "n,pairs",
    [
        (1, ()),
        (2, ((2, 1),)),
        (12, ((2, 2), (3, 1))),
        (97, ((97, 1),)),
        (360, ((2, 3), (3, 2), (5, 1))),
        (10**6, ((2, 6), (5, 6))),
    ],
)
def test_factorize_known(n, pairs):
    f = factorize(n)
    assert f == pairs
    assert math.prod(p**e for p, e in f) == n


def test_factorize_rejects_nonpositive():
    for bad in (0, -4):
        with pytest.raises(DomainError):
            factorize(bad)


@given(small_n)
def test_factorize_round_trips(n):
    f = factorize(n)
    assert math.prod(p**e for p, e in f) == n
    primes = [p for p, _ in f]
    assert primes == sorted(primes)
    assert all(factorize(p) == ((p, 1),) for p in primes)


# ------------------------------------------------- multiplicative functions


@pytest.mark.parametrize(
    "n,mu",
    [(1, 1), (2, -1), (4, 0), (6, 1), (30, -1), (12, 0), (210, 1)],
)
def test_moebius_known(n, mu):
    assert moebius(n) == mu


@pytest.mark.parametrize(
    "n,phi",
    [(1, 1), (2, 1), (5, 4), (6, 2), (10, 4), (12, 4), (97, 96), (360, 96)],
)
def test_totient_known(n, phi):
    assert totient(n) == phi


@pytest.mark.parametrize("n,w", [(1, 0), (2, 1), (12, 2), (30, 3), (97, 1)])
def test_omega_known(n, w):
    assert omega(n) == w


@pytest.mark.parametrize("n,rad", [(1, 1), (12, 6), (8, 2), (97, 97), (360, 30)])
def test_radical_known(n, rad):
    assert radical(n) == rad


def test_divisors_known():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(97) == [1, 97]


def test_squarefree_divisors_known():
    assert squarefree_divisors(1) == [(1, 1)]
    assert squarefree_divisors(12) == [(1, 1), (2, -1), (3, -1), (6, 1)]
    assert squarefree_divisors(30) == [
        (1, 1),
        (2, -1),
        (3, -1),
        (5, -1),
        (6, 1),
        (10, 1),
        (15, 1),
        (30, -1),
    ]


@given(small_n)
def test_squarefree_divisors_agree_with_moebius(n):
    pairs = squarefree_divisors(n)
    ds = [d for d, _ in pairs]
    assert ds == sorted(ds)
    assert set(ds) == {d for d in divisors(n) if moebius(d) != 0}
    assert all(mu == moebius(d) for d, mu in pairs)


@given(small_n)
def test_moebius_sum_over_divisors(n):
    # sum_{d | n} mu(d) is 1 at n == 1 and 0 otherwise
    total = sum(moebius(d) for d in divisors(n))
    assert total == (1 if n == 1 else 0)


@given(small_n)
def test_totient_ratio_survives_radical(n):
    # phi(n)/n == phi(rad(n))/rad(n), cross-multiplied to stay in integers
    m = radical(n)
    assert totient(n) * m == totient(m) * n
    assert omega(n) == omega(m)


@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=300),
)
def test_multiplicativity_on_coprime_pairs(a, b):
    if math.gcd(a, b) != 1:
        return
    assert totient(a * b) == totient(a) * totient(b)
    assert moebius(a * b) == moebius(a) * moebius(b)
    assert radical(a * b) == radical(a) * radical(b)
    assert omega(a * b) == omega(a) + omega(b)


# ------------------------------------------------------------------ totatives


def test_totatives_known():
    assert totatives(8) == [1, 3, 5, 7]
    assert totatives(5) == [1, 2, 3, 4]
    assert totatives(12) == [1, 5, 7, 11]
    assert totatives(1) == [1]


def test_totative_set_shape():
    ts = totatives(10)
    assert type(ts) is list
    assert all(type(a) is int for a in ts)
    assert ts == [1, 3, 7, 9]


@given(st.integers(min_value=1, max_value=5000))
def test_totative_count_matches_totient(n):
    assert len(totatives(n)) == totient(n)


@given(st.integers(min_value=2, max_value=2000))
def test_coprime_residues_definition(n):
    got = coprime_residues(n)
    expected = [a for a in range(1, n) if math.gcd(a, n) == 1]
    assert got.dtype == np.int64
    assert got.tolist() == expected


def test_enumeration_bound_is_enforced():
    n = ENUMERATION_BOUND + 1
    with pytest.raises(ResourceLimitError):
        coprime_residues(n)
    with pytest.raises(ResourceLimitError):
        totatives(n)
    top = coprime_residues(ENUMERATION_BOUND)
    assert len(top) == totient(ENUMERATION_BOUND)
    assert top[-1] == ENUMERATION_BOUND - 1


# ---------------------------------------------------------------------- sieve


def test_sieve_agrees_with_direct_functions():
    sieve = Sieve(3000)
    for n in range(1, 3201):  # past 3000, distinct_primes falls back to trial division
        primes = distinct_primes(n, sieve)
        assert primes == tuple(p for p, _ in factorize(n))
        assert totient_from_primes(n, primes) == totient(n)
        assert math.prod(primes) == radical(n)
        assert len(primes) == omega(n)


def test_sieve_range_checks():
    sieve = Sieve(100)
    with pytest.raises(DomainError):
        sieve.distinct_primes(101)
    with pytest.raises(DomainError):
        sieve.distinct_primes(0)


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=10**4))
def test_gcd_divisor_identity_sampled(n):
    # d1 * d2 * gcd(n/d1, n/d2) == n * gcd(d1, d2) for divisor pairs of n
    ds = divisors(n)
    for d1 in ds:
        for d2 in ds:
            assert d1 * d2 * math.gcd(n // d1, n // d2) == n * math.gcd(d1, d2)
