"""Integer arithmetic layer: distinct primes, multiplicative functions, totatives
and the int64 residue kernels over them."""

import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import divisors, factorize, moebius, smallest_prime_factor_table, totient
from totdk import (
    ENUMERATION_BOUND,
    DomainError,
    ResourceLimitError,
    coprime_residues,
    distinct_primes,
    spence_closed_form,
)
import totdk.arith
from totdk.arith import Sieve, _sum_j_aj, _theta_nu_sums, squarefree_divisors_from

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
    assert factorize(n) == pairs
    assert distinct_primes(n) == tuple(p for p, _ in pairs)


def test_factorize_rejects_nonpositive():
    for bad in (0, -4):
        with pytest.raises(DomainError):
            distinct_primes(bad)
    # coprime_residues refuses n < 1 through distinct_primes, before numpy runs
    for bad in (0, -3):
        with pytest.raises(DomainError, match="requires n >= 1"):
            coprime_residues(bad)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_round_trips(n):
    pairs = factorize(n)
    assert math.prod(p**e for p, e in pairs) == n
    assert distinct_primes(n) == tuple(p for p, _ in pairs)


@pytest.mark.parametrize(
    "n",
    [
        *(p * p for p in (5, 7, 11, 13, 17)),  # squares of the first wheel primes
        5**2 * 7**2 * 11**2,
        2**40,
        3**25,
        999_983 * 1_000_003,  # the primes either side of 10**6
        10**12 + 39,  # prime
        1_999_993**2,
    ],
)
def test_trial_division_edge_cases(n):
    expected = tuple(p for p, _ in factorize(n))
    assert distinct_primes(n) == expected
    if n <= 3000:
        with Sieve(3000):
            assert distinct_primes(n) == expected


def test_trial_division_past_its_cap_is_refused(monkeypatch):
    # Under a cap of 1000 the next divisor is 1001, and 1001**2 <= 1009 * 1013.
    monkeypatch.setattr(totdk.arith, "_TRIAL_DIVISION_CAP", 1000)
    with pytest.raises(ResourceLimitError, match="1000"):
        distinct_primes(1009 * 1013)
    with Sieve(1000), pytest.raises(ResourceLimitError, match="1000"):
        distinct_primes(1009 * 1013)  # a table below n does not lift the cap
    assert distinct_primes(997**2) == (997,)
    assert distinct_primes(997 * 1013) == (997, 1013)


def test_a_strong_pseudoprime_factors_under_the_cap():
    # A strong pseudoprime to every prime base 2..31: a probable-prime test passes it.
    assert distinct_primes(3825123056546413051) == (149491, 747451, 34233211)


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
    assert len(coprime_residues(n)) == phi
    assert totient(n) == phi


@pytest.mark.parametrize("n,w", [(1, 0), (2, 1), (12, 2), (30, 3), (97, 1)])
def test_omega_known(n, w):
    assert len(distinct_primes(n)) == w


@pytest.mark.parametrize("n,rad", [(1, 1), (12, 6), (8, 2), (97, 97), (360, 30)])
def test_radical_known(n, rad):
    assert math.prod(distinct_primes(n)) == rad


def test_divisors_known():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(97) == [1, 97]


def test_squarefree_divisors_known():
    assert squarefree_divisors_from(distinct_primes(1)) == [(1, 1)]
    assert squarefree_divisors_from(distinct_primes(12)) == [
        (1, 1),
        (2, -1),
        (3, -1),
        (6, 1),
    ]
    assert squarefree_divisors_from(distinct_primes(30)) == [
        (1, 1),
        (2, -1),
        (3, -1),
        (6, 1),
        (5, -1),
        (10, 1),
        (15, 1),
        (30, -1),
    ]


@given(small_n)
def test_squarefree_divisors_agree_with_moebius(n):
    primes = distinct_primes(n)
    pairs = squarefree_divisors_from(primes)
    # Entry i: the product of the primes at the set bits of i, weighted (-1)^popcount(i).
    assert pairs == [
        (math.prod(p for b, p in enumerate(primes) if i >> b & 1), (-1) ** i.bit_count())
        for i in range(1 << len(primes))
    ]
    ds = [d for d, _ in pairs]
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
    m = math.prod(distinct_primes(n))
    assert totient(n) * m == totient(m) * n
    assert len(distinct_primes(n)) == len(distinct_primes(m))


@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=300),
)
def test_multiplicativity_on_coprime_pairs(a, b):
    if math.gcd(a, b) != 1:
        return
    primes_a, primes_b, primes_ab = (distinct_primes(k) for k in (a, b, a * b))
    assert totient(a * b) == totient(a) * totient(b)
    assert moebius(a * b) == moebius(a) * moebius(b)
    assert math.prod(primes_ab) == math.prod(primes_a) * math.prod(primes_b)
    assert len(primes_ab) == len(primes_a) + len(primes_b)


# ------------------------------------------------------------------ totatives


def test_totatives_known():
    assert coprime_residues(8).tolist() == [1, 3, 5, 7]
    assert coprime_residues(5).tolist() == [1, 2, 3, 4]
    assert coprime_residues(12).tolist() == [1, 5, 7, 11]
    assert coprime_residues(1).tolist() == [1]


def test_totative_set_shape():
    ts = coprime_residues(10).tolist()
    assert type(ts) is list
    assert all(type(a) is int for a in ts)
    assert ts == [1, 3, 7, 9]


@given(st.integers(min_value=1, max_value=5000))
def test_totative_count_matches_totient(n):
    assert len(coprime_residues(n)) == totient(n)


def test_coprime_residues_definition():
    for n in range(1, 2001):
        got = coprime_residues(n)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        expected = [a for a in range(1, n) if math.gcd(a, n) == 1] if n > 1 else [1]
        assert got.tolist() == expected, n
    # One large n per path: odd square-free (the radical's own mask), even
    # square-free (odd numbers only), odd and even with a radical below n
    # (tiled), and a prime.
    for n in (255_255, 510_510, 3**13, 2**20, 2**7 * 5**6, 1_999_993):
        got = coprime_residues(n)
        assert got.dtype == np.int64 and got.flags.c_contiguous, n
        assert (got[1:] > got[:-1]).all(), n
        assert (got[0], got[-1]) == (1, n - 1), n
        assert len(got) == totient(n), n
        assert (np.gcd(got, n) == 1).all(), n


def test_enumeration_bound_is_enforced():
    n = ENUMERATION_BOUND + 1
    with pytest.raises(ResourceLimitError):
        coprime_residues(n)
    with pytest.raises(ResourceLimitError):
        coprime_residues(n).tolist()
    top = coprime_residues(ENUMERATION_BOUND)
    assert len(top) == totient(ENUMERATION_BOUND)
    assert top[-1] == ENUMERATION_BOUND - 1


# ------------------------------------------------------------ theta/nu kernel


def theta_nu_sums_reference(n, pairs):
    """_theta_nu_sums in Python ints: sum(a^2), then divmod of every totative
    by every d."""
    residues = coprime_residues(n).tolist()
    theta_weighted = nu_numerator = 0
    for d, mu in pairs:
        for a in residues:
            f, r = divmod(a, d)
            theta_weighted += mu * f * a
            nu_numerator += mu * (n // d) * r * a
    return sum(a * a for a in residues), theta_weighted, nu_numerator


# Each list of `count` pairs starts with (1, 1), whose row gives sum(a^2): all 64
# square-free divisors of 30030 = 2*3*5*7*11*13, 6 blocks of 11 rows; and (1, 1)
# with the three largest of 1531530 = 3 * 510510, whose totatives pass 2**15, so
# a block holds one row.
@pytest.mark.parametrize("n,count", [(30030, 64), (1_531_530, 4)])
def test_theta_nu_sums_match_python_divmod(n, count):
    pairs = sorted(squarefree_divisors_from(distinct_primes(n)))
    pairs = [pairs[0], *pairs[1 - count :]]
    assert pairs[0] == (1, 1) and len(set(pairs)) == count
    expected = theta_nu_sums_reference(n, pairs)
    assert _theta_nu_sums(coprime_residues(n), pairs, n) == expected


# ---------------------------------------------------------- shared rank vector


@pytest.fixture
def fresh_ranks(monkeypatch):
    """Put the shared rank vector back to its unbuilt start, so the test sees
    it grow from nothing."""

    def reset():
        monkeypatch.setattr(totdk.arith, "_ranks", None)

    reset()
    return reset


def test_rank_vector_is_read_only(fresh_ranks):
    assert _sum_j_aj(coprime_residues(1000), 1000, 1) == spence_closed_form(1000)
    ranks = totdk.arith._ranks
    assert len(ranks) >= totient(1000)
    with pytest.raises(ValueError):
        ranks[0] = 7
    with pytest.raises(ValueError):
        ranks[:10] += 1
    assert ranks[:3].tolist() == [1, 2, 3]


@pytest.mark.parametrize("built", [0, 1, 5])
def test_empty_residues_sum_to_the_int_zero(fresh_ranks, built):
    # whether the vector is unbuilt, one rank long or longer, an empty array
    # takes an int64 product, never a float one
    if built:
        _sum_j_aj(np.arange(1, built + 1, dtype=np.int64), built + 1, 1)
    total = _sum_j_aj(np.empty(0, dtype=np.int64), 1, 1)
    assert type(total) is int and total == 0
    assert totdk.arith._ranks.dtype == np.int64


def test_sum_j_aj_exact_around_each_doubling_point(fresh_ranks):
    points = [2**k for k in range(1, 21)] + [ENUMERATION_BOUND]
    lengths = sorted({1, 2, 3} | {p + d for p in points for d in (-1, 0, 1)})
    # values below 2**20 keep sum(j * a_j) under 2**63 up to length 2**21
    values = np.random.default_rng(6).integers(0, 2**20, lengths[-1], dtype=np.int64)
    running = list(itertools.accumulate(j * a for j, a in enumerate(values.tolist(), 1)))
    for length in lengths:  # the vector grows at each doubling point
        assert _sum_j_aj(values[:length], 2**20, 1) == running[length - 1]
        assert len(totdk.arith._ranks) >= length
    for length in reversed(lengths):  # prefix views of the grown vector
        assert _sum_j_aj(values[:length], 2**20, 1) == running[length - 1]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300).flatmap(
    lambda m: st.tuples(st.just(m), st.sets(st.integers(0, m - 1)), st.integers(1, 400))
))
def test_sum_j_aj_sums_any_base_tiled_by_m(case):
    # the tile algebra holds for any ascending residues in [0, m), not only U(m)
    m, members, tiles = case
    base = sorted(members)
    tiled = [b + m * s for s in range(tiles) for b in base]
    expected = sum(j * a for j, a in enumerate(tiled, start=1))
    assert _sum_j_aj(np.array(base, dtype=np.int64), m, tiles) == expected


# ---------------------------------------------------------------------- sieve


def test_sieve_agrees_with_direct_functions():
    with Sieve(3000):  # past 3000, distinct_primes falls back to trial division
        from_sieve = {n: distinct_primes(n) for n in range(1, 3201)}
    for n, primes in from_sieve.items():
        assert primes == tuple(p for p, _ in factorize(n))
        assert math.prod(primes) == math.prod(distinct_primes(n))
        assert len(primes) == len(distinct_primes(n))


@pytest.mark.parametrize("limit", [*range(1, 11), 10_000, 100_001])
def test_sieve_table_equals_the_list_sieve(limit):
    assert Sieve(limit)._spf == smallest_prime_factor_table(limit)


def test_sieve_table_at_the_bound_is_built_in_int32():
    # An int32 build array (4 B per entry) is alive next to the table; an
    # int64 one (8 B) would push the peak 8 MB higher.
    tracemalloc.start()
    try:
        sieve = Sieve(ENUMERATION_BOUND)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - retained < 6 * ENUMERATION_BOUND
    assert sieve._spf == smallest_prime_factor_table(ENUMERATION_BOUND)


def test_sieve_range_checks():
    # Past the open table's range, n goes to trial division, which rejects n < 1.
    with Sieve(100):
        assert distinct_primes(101) == (101,)
        for n in (0, -6):
            with pytest.raises(DomainError):
                distinct_primes(n)


class CountingTable(list):
    """A list that counts the entries read from it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class CountingSieve(Sieve):
    """A Sieve that counts the entries read from its table: one per distinct prime."""

    def __init__(self, limit):
        super().__init__(limit)
        self._spf = CountingTable(self._spf)

    @property
    def reads(self):
        return self._spf.reads


def test_sieve_scope_closes_on_exit_and_on_exception():
    sieve = CountingSieve(100)
    distinct_primes(60)
    with sieve as opened:
        assert opened is sieve
        assert distinct_primes(60) == (2, 3, 5)
    distinct_primes(60)
    with pytest.raises(ZeroDivisionError):
        with sieve:
            distinct_primes(60)
            1 / 0
    distinct_primes(60)
    assert sieve.reads == 6


def test_nested_sieve_scopes_read_the_innermost_and_restore_the_outer():
    outer, inner, small = CountingSieve(100), CountingSieve(100), CountingSieve(10)
    with outer:
        distinct_primes(6)  # outer
        with inner:
            distinct_primes(6)  # inner
        with small:
            distinct_primes(50)  # not covered by the innermost: trial division
            distinct_primes(6)  # small
        distinct_primes(6)  # outer
    distinct_primes(6)  # no scope: trial division
    assert (outer.reads, inner.reads, small.reads) == (4, 2, 2)


def test_a_cofactor_that_drops_into_the_table_is_read_from_it():
    sieve = CountingSieve(100)
    with sieve:
        assert distinct_primes(194) == (2, 97)  # 2 by trial division, then 97 < 101
    assert sieve.reads == 1


def test_sieve_scope_is_local_to_its_thread():
    sieve = CountingSieve(100)
    with sieve:
        worker = threading.Thread(target=distinct_primes, args=(60,))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert sieve.reads == 0
        distinct_primes(60)  # this thread's scope is open
    assert sieve.reads == 3


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=10**4))
def test_gcd_divisor_identity_sampled(n):
    # d1 * d2 * gcd(n/d1, n/d2) == n * gcd(d1, d2) for divisor pairs of n
    ds = divisors(n)
    for d1 in ds:
        for d2 in ds:
            assert d1 * d2 * math.gcd(n // d1, n // d2) == n * math.gcd(d1, d2)
