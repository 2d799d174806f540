"""Acceptance gate: every headline guarantee, one pass/fail line per criterion.

Each test prints exactly one line to the real stdout (bypassing capture):

    ACCEPTANCE PASS: <criterion>     or     ACCEPTANCE FAIL: <criterion>

All equality checks are exact (rational arithmetic); the only tolerances in
this file are the wall-clock limits of the performance criterion.
"""

import gc
import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    delange_double_sum,
    divisors,
    mobius_transform_sum,
    moebius,
    nu_weighted_sum_bruteforce,
    reciprocity_rhs,
    sawtooth,
    totient,
)
from totdk import (
    coprime_residues,
    dedekind_fast,
    dedekind_naive,
    delange_closed_form,
    distinct_primes,
    nu,
    run_suite,
    s_closed_form,
    s_double_sum,
    spence_closed_form,
    theta,
)
from totdk.bench import depth_ceiling, lcg_states, run_bench
from totdk.dedekind import _closed_form


@pytest.fixture
def criterion(capsys):
    """One pass/fail line per criterion, written outside pytest's capture."""

    @contextmanager
    def _criterion(name: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\nACCEPTANCE FAIL: {name}", flush=True)
            raise
        with capsys.disabled():
            print(f"\nACCEPTANCE PASS: {name}", flush=True)

    return _criterion


def assert_sweep_passes(suite: str, start: int, end: int):
    """The sweep `totdk verify --suite <suite>` runs: every n checked, none failed."""
    report = run_suite(suite, start, end, workers=1)
    assert report.ok and report.checked == end - start + 1, report.render("human")


# --------------------------------------------------------------- criterion 1


def test_acceptance_spence_exhaustive(criterion):
    with criterion("Spence formula exact for all 2 <= n <= 100000"):
        assert spence_closed_form(4) == 7
        assert spence_closed_form(5) == 30
        assert spence_closed_form(6) == 11
        assert_sweep_passes("spence", 2, 100_000)


# --------------------------------------------------------------- criterion 2


def test_acceptance_dedekind_oracle_equivalence(criterion):
    with criterion("dedekind_fast == dedekind_naive on the full 500 x 500 grid"):
        assert_sweep_passes("dedekind", 1, 500)


# --------------------------------------------------------------- criterion 3


def test_acceptance_reciprocity_law(criterion):
    with criterion("reciprocity law exact for all coprime a, b <= 300"):
        for a in range(1, 301):
            for b in range(a, 301):
                if math.gcd(a, b) == 1:
                    total = dedekind_naive(a, b) + dedekind_naive(b, a)
                    assert total == reciprocity_rhs(a, b), f"failed at ({a}, {b})"


# --------------------------------------------------------------- criterion 4


def test_acceptance_scaling_identity(criterion):
    with criterion("scaling s(a*c, b*c) == s(a, b) for a, b <= 40, c <= 10"):
        for a in range(1, 41):
            for b in range(1, 41):
                base = dedekind_naive(a, b)
                for c in range(1, 11):
                    got = dedekind_naive(a * c, b * c)
                    assert got == base, f"failed at (a={a}, b={b}, c={c})"


# --------------------------------------------------------------- criterion 5


def test_acceptance_s_identity(criterion):
    with criterion("S(n) double sum == closed form for all 2 <= n <= 2000"):
        assert s_double_sum(5) == Fraction(-1)
        assert s_closed_form(5) == Fraction(-1)
        for n in range(2, 2001):
            lhs = s_double_sum(n)
            rhs = s_closed_form(n)
            assert lhs == rhs, f"S(n) mismatch at n={n}: {lhs} != {rhs}"


# --------------------------------------------------------------- criterion 6


def test_acceptance_delange_identity(criterion):
    with criterion("Delange double sum == 2^omega(n) phi(n)/n for all n <= 10000"):
        for p in (2, 3, 5, 7, 11, 13):
            for alpha in (1, 2, 3):
                expected = 2 * (1 - Fraction(1, p))
                assert delange_double_sum(p**alpha) == expected
        for n in range(1, 10_001):
            lhs = delange_double_sum(n)
            rhs = delange_closed_form(n)
            assert lhs == rhs, f"Delange mismatch at n={n}: {lhs} != {rhs}"
            primes = distinct_primes(n)
            assert rhs == Fraction(2 ** len(primes) * totient(n), n)


# --------------------------------------------------------------- criterion 7


def test_acceptance_proof_chain(criterion):
    with criterion("all proof-chain links matched for all 2 <= n <= 5000"):
        assert_sweep_passes("chain", 2, 5000)


# --------------------------------------------------------------- criterion 8


def _check_sawtooth_oddness():
    for q in range(1, 13):
        for p in range(-6 * q, 6 * q + 1):
            x = Fraction(p, q)
            assert sawtooth(x) + sawtooth(-x) == 0, f"oddness failed at {x}"
            if x.denominator == 1:
                assert sawtooth(x) == 0
    # half-integers explicitly
    for k in range(-10, 11):
        assert sawtooth(Fraction(2 * k + 1, 2)) == 0


def _check_vanishing_totative_sums():
    # sum of sawtooth(a/d) over a in U(n) is 0 for every n <= 3000 and d | n;
    # with r = a mod d the numerator over 2d is sum of (2r - d) where r != 0
    for n in range(2, 3001):
        residues = coprime_residues(n)
        for d in divisors(n):
            r = residues % d
            numerator = int(((2 * r - d) * (r != 0)).sum())
            assert numerator == 0, f"totative sawtooth sum nonzero: n={n}, d={d}"


def _check_vanishing_row_sums():
    # sum over j = 1..b-1 of sawtooth(j*a/b) is 0 for all 1 <= a, b <= 200
    a_values = np.arange(1, 201, dtype=np.int64)
    for b in range(1, 201):
        j_values = np.arange(1, b, dtype=np.int64)
        r = np.outer(a_values, j_values) % b
        numerators = ((2 * r - b) * (r != 0)).sum(axis=1)
        assert not numerators.any(), f"row sawtooth sum nonzero at b={b}"


def _check_theta_nu_identity():
    for n in range(1, 1001):
        ratio = Fraction(totient(n), n)
        xs = [
            Fraction(0),
            Fraction(1),
            Fraction(-1),
            Fraction(-7),
            Fraction(1, 2),
            Fraction(n) + Fraction(1, 3),
            Fraction(-n) - Fraction(1, 2),
        ]
        for d in divisors(n):
            xs += [Fraction(d), Fraction(d) - 1, Fraction(d) + Fraction(1, 2)]
        for x in xs:
            assert theta(n, x) + nu(n, x) == x * ratio, f"failed at n={n}, x={x}"


def _check_theta_counting():
    # theta(n, x) counts 1 <= k <= x coprime to n, exhaustive over 0 <= x <= n
    for n in range(2, 1001):
        x_grid = np.arange(0, n + 1, dtype=np.int64)
        theta_vec = np.zeros(n + 1, dtype=np.int64)
        for d, mu in _squarefree_pairs(n):
            theta_vec += mu * (x_grid // d)
        mask = np.ones(n, dtype=bool)
        mask[0] = False
        for p in distinct_primes(n):
            mask[p::p] = False
        counts = np.zeros(n + 1, dtype=np.int64)
        counts[1:n] = np.cumsum(mask[1:])
        counts[n] = counts[n - 1]
        assert np.array_equal(theta_vec, counts), f"theta count mismatch at n={n}"
    assert theta(1, 5) == 5  # n = 1: every k counts


def _squarefree_pairs(n):
    return [(d, moebius(d)) for d in divisors(math.prod(distinct_primes(n)))]


def _check_gcd_divisor_identity():
    # d1 * d2 * gcd(n/d1, n/d2) == n * gcd(d1, d2), exhaustive for n <= 10^4
    for n in range(1, 10_001):
        ds = divisors(n)
        for d1 in ds:
            n1 = n // d1
            for d2 in ds:
                assert d1 * d2 * math.gcd(n1, n // d2) == n * math.gcd(d1, d2), (
                    f"gcd identity failed at n={n}, d1={d1}, d2={d2}"
                )


def _check_mod24_integrality():
    for n in range(2, 20_001):
        m = math.prod(distinct_primes(n))
        phi_n = totient(n)
        phi_m = totient(m)
        w = len(distinct_primes(m))
        sign = -1 if w % 2 else 1
        product = phi_n * (8 * n * phi_n + 6 * n + 2 * sign * phi_m - 2**w)
        assert product % 24 == 0, f"24 does not divide the product at n={n}"


def _check_mobius_transform_contract():
    for n in range(1, 501):
        members = coprime_residues(n).tolist()
        for f in (lambda x: x, lambda x: x * x, lambda x: x**3):
            assert mobius_transform_sum(n, f) == sum(f(a) for a in members)
        for d in divisors(n):
            f = lambda x, d=d: sawtooth(Fraction(x, d)) * x
            expected = sum((f(a) for a in members), Fraction(0))
            assert mobius_transform_sum(n, f) == expected, f"failed at n={n}, d={d}"


def _check_periodicity():
    for a in range(1, 201):
        for b in range(1, 201):
            assert dedekind_naive(b + a, a) == dedekind_naive(b, a)


def _check_nu_weighted_link():
    # sum of nu(n, a) * a over U(n) == -n phi(n)/4 + S(n) for 2 <= n <= 2000
    for n in range(2, 2001):
        lhs = nu_weighted_sum_bruteforce(n)
        phi_n = totient(n)
        rhs = Fraction(-n * phi_n, 4) + s_double_sum(n)
        assert lhs == rhs, f"nu-weighted link failed at n={n}"


def _check_arith_invariants():
    for n in range(1, 3001):
        assert sum(moebius(d) for d in divisors(n)) == (1 if n == 1 else 0)
        m = math.prod(distinct_primes(n))
        phi_n = totient(n)
        assert phi_n * m == totient(m) * n
        assert len(distinct_primes(n)) == len(distinct_primes(m))
    for n in range(1, 2001):
        assert len(coprime_residues(n)) == totient(n)
    for a, b in [(3, 4), (8, 9), (5, 12), (7, 10), (25, 36), (11, 13)]:
        phi_a, phi_b = (totient(k) for k in (a, b))
        assert totient(a * b) == phi_a * phi_b
        assert moebius(a * b) == moebius(a) * moebius(b)


def _check_delange_multiplicativity():
    values = {n: delange_double_sum(n) for n in range(1, 101)}
    for a in range(1, 101):
        for b in range(1, 101):
            if a * b <= 100 and math.gcd(a, b) == 1:
                assert values[a * b] == values[a] * values[b]
    # and across the product boundary, against the closed form
    for a in range(1, 101):
        for b in range(1, 101):
            if math.gcd(a, b) == 1:
                assert delange_closed_form(a * b) == values[a] * values[b]


def test_acceptance_property_suites(criterion):
    with criterion(
        "property suites: sawtooth oddness, vanishing sums, theta+nu, theta "
        "counting, gcd identity, mod-24 integrality, Moebius transform, "
        "periodicity, nu-weighted link, arithmetic invariants, Delange "
        "multiplicativity"
    ):
        _check_sawtooth_oddness()
        _check_vanishing_totative_sums()
        _check_vanishing_row_sums()
        _check_theta_nu_identity()
        _check_theta_counting()
        _check_gcd_divisor_identity()
        _check_mod24_integrality()
        _check_mobius_transform_contract()
        _check_periodicity()
        _check_nu_weighted_link()
        _check_arith_invariants()
        _check_delange_multiplicativity()


# --------------------------------------------------------------- criterion 9


def _coprime_pairs_near(base: int, count: int, spread: int, seed: int):
    states = lcg_states(seed)
    pairs = []
    while len(pairs) < count:
        b = base + next(states) % spread
        a = base + next(states) % spread
        if math.gcd(b, a) == 1:
            pairs.append((b, a))
    return pairs


def _best_of(repeats: int, fn, *args):
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_acceptance_performance(criterion):
    with criterion(
        "performance: fast < 1 ms/call with depth <= 90 near 10^12; "
        "naive at a = 10^6 is >= 1000x slower; bench values equal"
    ):
        pairs = _coprime_pairs_near(10**12, count=20, spread=10**11, seed=2026)
        gc.disable()
        try:
            dedekind_fast(10**12 + 1, 10**12 + 3)  # warm-up
            for b, a in pairs:
                seconds, value = _best_of(3, dedekind_fast, b, a)
                numerator, k, depth = _closed_form(b, a)
                assert depth <= 90, f"depth {depth} > 90 at (b={b}, a={a})"
                assert seconds < 1e-3, f"fast path took {seconds * 1e3:.3f} ms at (b={b}, a={a})"
                assert value == Fraction(numerator, 12 * k)

            a6 = 10**6
            b6 = next(
                b for b in itertools.count(333667) if math.gcd(b, a6) == 1
            )
            naive_seconds, naive_value = _best_of(1, dedekind_naive, b6, a6)
            fast_seconds, fast_value = _best_of(5, dedekind_fast, b6, a6)
            assert fast_value == naive_value  # value equality where both run
            ratio = naive_seconds / fast_seconds
            assert ratio >= 1000, f"naive only {ratio:.0f}x slower than fast"
        finally:
            gc.enable()

        rows = run_bench(5, 10**5, seed=2026)
        assert all(r.equal for r in rows)  # bench reports both, asserts equality
        assert all(r.depth <= depth_ceiling(10**5) for r in rows)
