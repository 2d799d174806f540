"""Every identity of the proof chain: brute-force twin vs closed form."""

import contextlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    delange_double_sum,
    divisors,
    mobius_transform_sum,
    moebius,
    nu_weighted_sum_bruteforce,
    sawtooth,
    sum_j_aj_by_gcd,
    sum_squares_totatives_bruteforce,
    totient,
)
from totdk import (
    CHAIN_IDENTITIES,
    ENUMERATION_BOUND,
    DomainError,
    InvariantViolation,
    ResourceLimitError,
    VerificationReport,
    coprime_residues,
    dedekind_naive,
    delange_closed_form,
    nu,
    s_closed_form,
    s_double_sum,
    spence_closed_form,
    sum_j_aj_bruteforce,
    theta,
    verify_chain,
)
import totdk.arith
import totdk.spence
from totdk.arith import Sieve, distinct_primes
from totdk.spence import _closed_forms


def sum_squares_totatives(n):
    """The library's closed form for sum(a^2) over U(n): its numerator over 6."""
    numerator = _closed_forms(n)[2]
    assert numerator % 6 == 0
    return numerator // 6

# ------------------------------------------------------------------ theta / nu


@pytest.mark.parametrize(
    "n,x,expected",
    [
        (6, 4, 1),
        (6, 6, 2),
        (5, 0, 0),
        (12, 0, 0),
        (5, 5, 4),
        (7, Fraction(13, 2), 6),
        (1, 3, 3),
    ],
)
def test_theta_known(n, x, expected):
    assert theta(n, x) == expected


@pytest.mark.parametrize(
    "n,x,expected",
    [
        (6, 4, Fraction(1, 3)),
        (6, 0, Fraction(0)),
        (9, 0, Fraction(0)),
        (5, 2, Fraction(-2, 5)),
    ],
)
def test_nu_known(n, x, expected):
    assert nu(n, x) == expected


def test_theta_nu_accept_rational_and_integer_x():
    assert theta(6, Fraction(4, 1)) == theta(6, 4)
    assert nu(6, Fraction(4, 1)) == nu(6, 4)


def test_theta_counts_coprime_prefix():
    for n in range(1, 200):
        count = 0
        for x in range(0, n + 1):
            if x >= 1 and math.gcd(x, n) == 1:
                count += 1
            assert theta(n, x) == count


def theta_direct(n, x):
    return sum(mu * math.floor(Fraction(x) / d) for d, mu in _sq_divs(n))


def nu_direct(n, x):
    x = Fraction(x)
    return sum(
        (mu * (Fraction(x, d) - math.floor(Fraction(x, d))) for d, mu in _sq_divs(n)),
        Fraction(0),
    )


def _sq_divs(n):
    return [(d, moebius(d)) for d in divisors(n) if moebius(d) != 0]


@settings(max_examples=150)
@given(
    st.integers(min_value=1, max_value=400),
    st.builds(
        Fraction,
        st.integers(min_value=-3000, max_value=3000),
        st.integers(min_value=1, max_value=60),
    ),
)
def test_theta_nu_match_definitional_sums(n, x):
    assert theta(n, x) == theta_direct(n, x)
    assert nu(n, x) == nu_direct(n, x)


@settings(max_examples=150)
@given(
    st.integers(min_value=1, max_value=1000),
    st.builds(
        Fraction,
        st.integers(min_value=-5000, max_value=5000),
        st.integers(min_value=1, max_value=48),
    ),
)
def test_theta_plus_nu_identity(n, x):
    # theta_n(x) + nu_n(x) == x * phi(n) / n for any rational x
    phi_n = totient(n)
    assert theta(n, x) + nu(n, x) == x * Fraction(phi_n, n)


def test_theta_plus_nu_on_awkward_points():
    # negatives, integers, points adjacent to divisors
    for n in (1, 2, 6, 12, 30, 360):
        ratio = Fraction(totient(n), n)
        xs = [Fraction(v) for v in (-7, -1, 0, 1, n, -n)]
        for d in divisors(n):
            xs += [
                Fraction(d),
                Fraction(d) - 1,
                Fraction(d) + Fraction(1, 2),
                Fraction(-d) + Fraction(1, 3),
            ]
        for x in xs:
            assert theta(n, x) + nu(n, x) == x * ratio


# ------------------------------------------------------- Spence's formula


@pytest.mark.parametrize("n,expected", [(5, 30), (4, 7), (6, 11)])
def test_sum_j_aj_known(n, expected):
    assert sum_j_aj_bruteforce(n) == expected


@pytest.mark.parametrize("n,expected", [(5, 30), (4, 7), (6, 11)])
def test_spence_closed_form_known(n, expected):
    assert spence_closed_form(n) == expected


def test_spence_brute_force_definition():
    # rank-weighted sum recomputed with plain python over the totative list
    for n in range(2, 400):
        members = coprime_residues(n).tolist()
        expected = sum(j * a for j, a in enumerate(members, start=1))
        assert sum_j_aj_bruteforce(n) == expected
        assert spence_closed_form(n) == expected


def test_bruteforce_matches_a_gcd_enumeration():
    # an oracle that never tiles the radical's totatives
    for n in range(2, 3001):
        assert sum_j_aj_bruteforce(n) == sum_j_aj_by_gcd(n)


@pytest.mark.parametrize("n", [2**20, 3**13, 2**10 * 3**6, 1_999_998, 2 * 10**6])
def test_bruteforce_exact_at_heavily_tiled_n(n):
    # 2**20 is the one totative of 2 tiled 2**19 times; 2 * 10**6 = 2**7 * 5**6
    assert sum_j_aj_bruteforce(n) == spence_closed_form(n)


def test_spence_rejects_n_1():
    with pytest.raises(DomainError):
        sum_j_aj_bruteforce(1)
    with pytest.raises(DomainError):
        spence_closed_form(1)


@pytest.mark.parametrize(
    "brute",
    [
        sum_j_aj_bruteforce,
        sum_squares_totatives_bruteforce,
        nu_weighted_sum_bruteforce,
        verify_chain,
    ],
)
def test_bruteforce_refuses_past_the_enumeration_bound(brute):
    # past the bound the int64 reductions could overflow silently; 2**21 and
    # 2 * 3**13 are refused although their radicals are far below it
    for n in (ENUMERATION_BOUND + 1, 2**21, 2 * 3**13):
        with pytest.raises(ResourceLimitError):
            brute(n)


@pytest.mark.parametrize("n", [1_999_993, 1_531_530])
def test_bruteforce_exact_at_top_of_enumeration_range(n):
    # the largest prime <= the bound, and 3 * 510510 (seven distinct primes)
    assert sum_j_aj_bruteforce(n) == spence_closed_form(n)
    assert sum_squares_totatives_bruteforce(n) == sum_squares_totatives(n)


def test_bruteforce_equals_closed_form_in_any_order_and_in_threads(monkeypatch):
    # totdk.arith's shared rank vector grows from nothing on each pass
    monkeypatch.setattr(totdk.arith, "_ranks", None)
    ns = range(2, 3001)
    expected = [spence_closed_form(n) for n in ns]
    assert [sum_j_aj_bruteforce(n) for n in ns] == expected
    assert [sum_j_aj_bruteforce(n) for n in reversed(ns)] == expected[::-1]

    # both threads grow the vector, one step by step, one at once
    monkeypatch.setattr(totdk.arith, "_ranks", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            up = pool.submit(lambda: [sum_j_aj_bruteforce(n) for n in ns])
            down = pool.submit(lambda: [sum_j_aj_bruteforce(n) for n in reversed(ns)])
            assert up.result(timeout=120) == expected
            assert down.result(timeout=120) == expected[::-1]
    finally:
        sys.setswitchinterval(interval)


def test_spence_closed_form_integrality_explicit():
    # phi(n) * (8 n phi(n) + 6 n + 2 phi(m) (-1)^omega - 2^omega) is divisible by 24
    for n in range(2, 5000):
        m = math.prod(distinct_primes(n))
        w = len(distinct_primes(m))
        sign = -1 if w % 2 else 1
        phi_n = totient(n)
        phi_m = totient(m)
        product = phi_n * (8 * n * phi_n + 6 * n + 2 * sign * phi_m - 2**w)
        assert product % 24 == 0
        assert spence_closed_form(n) == product // 24


# -------------------------------------------------------------- sum of squares


@pytest.mark.parametrize("n,expected", [(5, 30), (6, 26), (4, 10)])
def test_sum_squares_known(n, expected):
    assert sum_squares_totatives(n) == expected
    assert sum_squares_totatives_bruteforce(n) == expected


def test_sum_squares_definition():
    for n in range(2, 500):
        expected = sum(a * a for a in coprime_residues(n).tolist())
        assert sum_squares_totatives_bruteforce(n) == expected
        assert sum_squares_totatives(n) == expected


# ------------------------------------------------------------ Moebius transform


def test_mobius_transform_known():
    assert mobius_transform_sum(6, lambda x: x) == 6
    assert mobius_transform_sum(5, lambda x: x * x) == 30
    f = lambda x: Fraction(7, 3) * x  # noqa: E731
    assert mobius_transform_sum(1, f) == f(1)


def test_mobius_transform_contract_on_function_family():
    # equals the plain sum of f over U(n) for polynomial and sawtooth weights
    for n in range(1, 120):
        members = coprime_residues(n).tolist()
        for f in (
            lambda x: x,
            lambda x: x * x,
            lambda x: x**3,
        ):
            assert mobius_transform_sum(n, f) == sum(f(a) for a in members)
        for d in divisors(n):
            f = lambda x, d=d: sawtooth(Fraction(x, d)) * x
            expected = sum((f(a) for a in members), Fraction(0))
            assert mobius_transform_sum(n, f) == expected


# --------------------------------------------------------- nu-weighted sum


def nu_weighted_direct(n):
    # independent oracle: literal sum of nu(n, a) * a over the totatives
    return sum((nu(n, a) * a for a in coprime_residues(n).tolist()), Fraction(0))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_nu_weighted_sum_known(n):
    direct = nu_weighted_direct(n)
    assert nu_weighted_sum_bruteforce(n) == direct
    phi_n = totient(n)
    assert direct == Fraction(-n * phi_n, 4) + s_double_sum(n)


def test_nu_weighted_sum_matches_direct_summation():
    for n in range(2, 300):
        assert nu_weighted_sum_bruteforce(n) == nu_weighted_direct(n)


# ------------------------------------------------------------- S(n) double sum


@pytest.mark.parametrize(
    "n,expected",
    [(5, Fraction(-1)), (2, Fraction(0)), (6, Fraction(2, 3))],
)
def test_s_double_sum_known(n, expected):
    assert s_double_sum(n) == expected
    assert s_closed_form(n) == expected


def test_s_double_sum_prime_closed_form():
    # for prime p only the (1, p) term survives: S(p) = -(p-1)(p-2)/12
    for p in (2, 3, 5, 7, 11, 13, 97):
        assert s_double_sum(p) == Fraction(-(p - 1) * (p - 2), 12)
        assert s_closed_form(p) == Fraction(-(p - 1) * (p - 2), 12)


def test_s_equality_range():
    for n in range(2, 401):
        assert s_double_sum(n) == s_closed_form(n)


@pytest.mark.parametrize("n", [2, 12, 30, 30030, 360360])
def test_s_double_sum_evaluates_one_dedekind_sum_per_coprime_pair(monkeypatch, n):
    # One closed form per coprime (h, k) of square-free divisors with k > 1:
    # 3^omega - 2^omega of them (665 at 30030), where all ordered divisor
    # pairs would be 4^omega (4096).
    calls = []
    real = totdk.spence._closed_form

    def counted(b, a):
        calls.append((b, a))
        return real(b, a)

    monkeypatch.setattr(totdk.spence, "_closed_form", counted)
    s_double_sum(n)
    omega = len(distinct_primes(n))
    assert len(calls) == 3**omega - 2**omega
    assert len(set(calls)) == len(calls)
    assert all(a > 1 and math.gcd(b, a) == 1 for b, a in calls)


def test_s_double_sum_reads_the_divisor_table_of_arith(monkeypatch):
    # One divisor table per n, built by arith; s_double_sum builds none of its own.
    tables = []
    real = totdk.spence.squarefree_divisors_from

    def counted(primes):
        tables.append(real(primes))
        return tables[-1]

    monkeypatch.setattr(totdk.spence, "squarefree_divisors_from", counted)
    assert s_double_sum(30030) == s_closed_form(30030)
    assert len(tables) == 1 and len(tables[0]) == 64


def test_s_double_sum_matches_definition_with_naive_oracle():
    # S(n) = n * sum over d1, d2 | n of mu(d1) mu(d2) s(n/d1, n/d2), term by term
    for n in range(2, 301):
        squarefree = [(d, moebius(d)) for d in divisors(n) if moebius(d)]
        definition = n * sum(
            (
                mu1 * mu2 * dedekind_naive(n // d1, n // d2)
                for d1, mu1 in squarefree
                for d2, mu2 in squarefree
            ),
            Fraction(0),
        )
        assert s_double_sum(n) == definition, n


# ------------------------------------------------------------------- Delange


@pytest.mark.parametrize(
    "n,expected",
    [(1, Fraction(1)), (5, Fraction(8, 5))],
)
def test_delange_known(n, expected):
    assert delange_double_sum(n) == expected
    assert delange_closed_form(n) == expected


def test_delange_prime_powers():
    for p in (2, 3, 5, 7, 11):
        for alpha in (1, 2, 3, 4):
            expected = 2 * (1 - Fraction(1, p))
            assert delange_double_sum(p**alpha) == expected
            assert delange_closed_form(p**alpha) == expected


def test_delange_closed_form_shape():
    for n in range(1, 200):
        primes = distinct_primes(n)
        assert delange_closed_form(n) == Fraction(
            2 ** len(primes) * totient(n), n
        )


def test_delange_multiplicativity():
    for a in range(1, 60):
        for b in range(1, 60):
            if math.gcd(a, b) == 1:
                product = delange_double_sum(a) * delange_double_sum(b)
                assert delange_double_sum(a * b) == product
                assert delange_closed_form(a * b) == product


# ----------------------------------------------------------------- the chain


def test_chain_identity_names_and_order():
    assert CHAIN_IDENTITIES == (
        "theta_reindex",
        "theta_split",
        "sum_of_squares",
        "nu_weighted_sum",
        "dedekind_double_sum",
        "delange_product",
        "spence_formula",
    )


@pytest.mark.parametrize("n", [2, 5, 30])
def test_verify_chain_all_matched(n):
    results = verify_chain(n)
    assert [r.identity for r in results] == list(CHAIN_IDENTITIES)
    for r in results:
        assert r.n == n
        assert r.matched
        assert r.lhs == r.rhs


def test_verify_chain_range():
    for n in range(2, 301):
        assert all(r.matched for r in verify_chain(n))


def test_identity_result_serialization():
    report = VerificationReport("chain", 5, 5, 1, verify_chain(5)[:1])
    [row] = json.loads(report.render("json"))["failures"]
    assert row == {"n": 5, "identity": "theta_reindex", "lhs": "30", "rhs": "30", "matched": True}
    assert report.render("csv").splitlines()[1] == "5,theta_reindex,30,30,True"


def test_verify_chain_rejects_n_1():
    with pytest.raises(DomainError):
        verify_chain(1)


def test_two_omega_spellings_agree():
    # 2^omega(n) and 2^omega(radical(n)) enter different formulas; equal always
    for n in range(1, 2000):
        primes = distinct_primes(n)
        assert len(primes) == len(distinct_primes(math.prod(primes)))


@pytest.mark.parametrize(
    "fn",
    [
        pytest.param(lambda n: theta(n, Fraction(2 * n, 3)), id="theta"),
        pytest.param(lambda n: nu(n, Fraction(2 * n, 3)), id="nu"),
        sum_j_aj_bruteforce,
        spence_closed_form,
        sum_squares_totatives,
        sum_squares_totatives_bruteforce,
        nu_weighted_sum_bruteforce,
        s_double_sum,
        s_closed_form,
        delange_closed_form,
        verify_chain,
        distinct_primes,
        pytest.param(lambda n: coprime_residues(n).tolist(), id="coprime_residues"),
    ],
    ids=lambda fn: fn.__name__,
)
def test_values_equal_inside_and_outside_a_sieve_scope(fn):
    # 2..120 runs past the sieve, where the scope falls back to trial division
    outside = [fn(n) for n in range(2, 121)]
    with Sieve(100):
        inside = [fn(n) for n in range(2, 121)]
    assert inside == outside


@pytest.mark.parametrize(
    "fn",
    [
        pytest.param(lambda n: theta(n, 1), id="theta"),
        pytest.param(lambda n: nu(n, 1), id="nu"),
        pytest.param(lambda n: mobius_transform_sum(n, abs), id="mobius_transform_sum"),
        delange_closed_form,
    ],
    ids=lambda fn: fn.__name__,
)
@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("scoped", [False, True])
def test_n_below_1_rejected_with_or_without_a_sieve(fn, n, scoped):
    with Sieve(100) if scoped else contextlib.nullcontext():
        with pytest.raises(DomainError):
            fn(n)


def test_invariant_violation_is_exported():
    assert issubclass(InvariantViolation, RuntimeError)
