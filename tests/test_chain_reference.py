"""The integer proof chain against a Fraction-based reference chain.

`reference_chain` is the chain as it was computed before its sides moved to
integers: one numpy reduction per divisor and Fraction arithmetic for every
right-hand side.  It reads `coprime_residues` and `s_double_sum` through
`totdk.spence`, so a fault planted there reaches both chains alike.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import totdk.spence
from totdk import (
    Sieve,
    dedekind_fast,
    delange_closed_form,
    delange_double_sum,
    s_closed_form,
    s_double_sum,
    spence_closed_form,
    sum_squares_totatives,
    verify_chain,
)
from totdk.arith import distinct_primes, squarefree_divisors_from
from totdk.spence import IdentityResult


def reference_s_double_sum(n):
    """S(n) from one reduced dedekind_fast Fraction per divisor pair."""
    sq = squarefree_divisors_from(distinct_primes(n))
    common = 12 * n
    total = 0
    for d1, mu1 in sq:
        for d2, mu2 in sq:
            s = dedekind_fast(n // d1, n // d2)
            total += mu1 * mu2 * s.numerator * (common // s.denominator)
    return Fraction(total, 12)


def reference_chain(n):
    primes = distinct_primes(n)
    sq = squarefree_divisors_from(primes)
    residues = totdk.spence.coprime_residues(n)
    phi_n = len(residues)
    m = math.prod(primes)

    jaj = int(np.arange(1, phi_n + 1, dtype=np.int64) @ residues)
    theta_weighted = sum(mu * int((residues // d) @ residues) for d, mu in sq)
    sum_sq = int(residues @ residues)
    nu_weighted = Fraction(
        sum(mu * (m // d) * int((residues % d) @ residues) for d, mu in sq if d > 1), m
    )
    s_dbl = totdk.spence.s_double_sum(n)

    def link(tag, lhs, rhs):
        lhs, rhs = Fraction(lhs), Fraction(rhs)
        return IdentityResult(n, tag, lhs, rhs, lhs == rhs)

    return [
        link("theta_reindex", jaj, theta_weighted),
        link("theta_split", theta_weighted, Fraction(phi_n, n) * sum_sq - nu_weighted),
        link("sum_of_squares", sum_sq, sum_squares_totatives(n)),
        link("nu_weighted_sum", nu_weighted, Fraction(-n * phi_n, 4) + s_dbl),
        link("dedekind_double_sum", s_dbl, s_closed_form(n)),
        link("delange_product", delange_double_sum(n), delange_closed_form(n)),
        link("spence_formula", jaj, spence_closed_form(n)),
    ]


def assert_same_chain(n):
    got, want = verify_chain(n), reference_chain(n)
    assert got == want, n
    assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
    assert all(type(r.lhs) is type(r.rhs) is Fraction for r in got)
    return got


def failing(results):
    return {r.identity for r in results if not r.matched}


def test_chain_equals_reference_link_by_link():
    with Sieve(1500):
        for n in range(2, 1501):
            assert all(r.matched for r in assert_same_chain(n))
            assert s_double_sum(n) == reference_s_double_sum(n), n


@pytest.mark.parametrize("n", [1_531_530, 1_999_993])
def test_chain_equals_reference_near_the_enumeration_bound(n):
    # 1531530 has seven distinct primes, so 128 divisor rows of ~2.8e5 residues
    assert all(r.matched for r in assert_same_chain(n))
    assert s_double_sum(n) == reference_s_double_sum(n)


def test_planted_s_fault_fails_exactly_the_two_links_that_read_s(monkeypatch):
    real = totdk.spence.s_double_sum
    monkeypatch.setattr(totdk.spence, "s_double_sum", lambda n: real(n) + Fraction(1, 12))
    with Sieve(300):
        for n in range(2, 301):
            assert failing(assert_same_chain(n)) == {"nu_weighted_sum", "dedekind_double_sum"}


def test_planted_residue_fault_fails_where_the_reference_fails(monkeypatch):
    real = totdk.spence.coprime_residues
    monkeypatch.setattr(totdk.spence, "coprime_residues", lambda n: real(n)[:-1])
    with Sieve(300):
        for n in range(3, 301):
            got = failing(assert_same_chain(n))
            assert got == failing(reference_chain(n))
            assert "spence_formula" in got and "sum_of_squares" in got


@pytest.mark.parametrize("cap", [1, 7, 150])
def test_chain_equals_reference_at_any_block_size(monkeypatch, cap):
    # 1 gives one divisor row per block, 7 and 150 cut blocks of several rows
    # with a partial last block (150 // phi(210) = 3 rows of 16 divisors)
    monkeypatch.setattr(totdk.spence, "_BLOCK_ELEMENTS", cap)
    with Sieve(400):
        for n in range(2, 401):
            assert all(r.matched for r in assert_same_chain(n))
