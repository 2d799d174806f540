"""Integer factorization and multiplicative arithmetic functions.

Covers everything the identity chain needs from elementary number theory:
prime factorization, the Moebius function, Euler's totient, the count and
product of distinct prime factors, divisor enumeration and totatives.  Code
that needs only the distinct primes of n gets them from `distinct_primes`,
which reads a smallest-prime-factor sieve when one covers n, so bulk
verification ranges amortize factorization.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError, ResourceLimitError

#: Largest n for which totatives are enumerated brute force.  The cap doubles
#: as an exactness guarantee for the vectorized int64 reductions used by the
#: bulk verifiers: every dot product taken over the residues of n is a sum of
#: fewer than n terms, each below n**2, so it stays under 2**63 whenever
#: n <= 2_000_000.  It is therefore a constant, not a per-call argument.
ENUMERATION_BOUND = 2_000_000


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as (prime, exponent) pairs, primes strictly ascending.

    Trial division by 2, 3, then 6k+-1; the empty tuple represents 1.
    """
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    pairs = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
    i = 5
    while i * i <= n:
        for p in (i, i + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                pairs.append((p, e))
        i += 6
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


def moebius(n: int) -> int:
    """0 if n has a squared prime factor, else (-1)**(number of prime factors)."""
    pairs = factorize(n)
    if any(e >= 2 for _, e in pairs):
        return 0
    return -1 if len(pairs) % 2 else 1


def distinct_primes(n: int, sieve: Sieve | None = None) -> tuple[int, ...]:
    """Ascending distinct primes of n: from `sieve` when it covers n, else by trial division."""
    if sieve is not None and n <= sieve.limit:
        return sieve.distinct_primes(n)
    return tuple(p for p, _ in factorize(n))


def totient_from_primes(n: int, primes: Sequence[int]) -> int:
    """Euler's phi of n, given the distinct primes of n."""
    out = n
    for p in primes:
        out = out // p * (p - 1)
    return out


def totient(n: int) -> int:
    """Euler's phi: the number of totatives of n."""
    return totient_from_primes(n, distinct_primes(n))


def omega(n: int) -> int:
    """Number of distinct prime factors (0 for n = 1)."""
    return len(distinct_primes(n))


def radical(n: int) -> int:
    """Product of the distinct primes dividing n; the square-free part (1 for n = 1)."""
    return math.prod(distinct_primes(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order, including 1 and n."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def squarefree_divisors(n: int) -> list[tuple[int, int]]:
    """Ascending (d, moebius(d)) for the square-free divisors of n.

    These are exactly the divisors with a nonzero Moebius weight, so a sum of
    mu(d) * g(d) over all divisors may be taken over this list alone.
    """
    return squarefree_divisors_from(distinct_primes(n))


def squarefree_divisors_from(primes: Sequence[int]) -> list[tuple[int, int]]:
    """Square-free divisor/Moebius pairs built from a distinct-prime list."""
    divs = [(1, 1)]
    for p in primes:
        divs += [(d * p, -mu) for d, mu in divs]
    divs.sort()
    return divs


def coprime_residues(n: int, primes: Sequence[int] | None = None) -> np.ndarray:
    """Ascending int64 array of the totatives of n ((1,) for n = 1).

    Sieves multiples of each distinct prime of n out of [1, n).  `primes`
    may be supplied (e.g. from a Sieve) to skip refactorization.
    """
    if n < 1:
        raise DomainError(f"totatives require n >= 1, got {n}")
    if n > ENUMERATION_BOUND:
        raise ResourceLimitError(
            f"totative enumeration bound exceeded: n={n} > {ENUMERATION_BOUND}"
        )
    if n == 1:
        return np.ones(1, dtype=np.int64)
    if primes is None:
        primes = distinct_primes(n)
    mask = np.ones(n, dtype=bool)
    mask[0] = False
    for p in primes:
        mask[p::p] = False
    return np.flatnonzero(mask).astype(np.int64, copy=False)


def totatives(n: int) -> list[int]:
    """The ascending totatives of n ([1] for n = 1); the length is totient(n)."""
    return coprime_residues(n).tolist()


class Sieve:
    """Smallest-prime-factor table over [0, limit].

    Build once, then read the distinct primes of any 1 <= n <= limit in
    O(log n); meant to be shared read-only across range verifications (and across worker
    processes, which each build their own copy).
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise DomainError(f"sieve limit must be >= 1, got {limit}")
        self.limit = limit
        spf = list(range(limit + 1))
        for i in range(2, math.isqrt(limit) + 1):
            if spf[i] == i:
                for j in range(i * i, limit + 1, i):
                    if spf[j] == j:
                        spf[j] = i
        self._spf = spf

    def distinct_primes(self, n: int) -> tuple[int, ...]:
        if not 1 <= n <= self.limit:
            raise DomainError(f"n={n} outside sieve range [1, {self.limit}]")
        spf = self._spf
        primes = []
        while n > 1:
            p = spf[n]
            primes.append(p)
            while n % p == 0:
                n //= p
        return tuple(primes)
