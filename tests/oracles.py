"""Independent oracles the tests check the library against.

None of these is on a path that `cli`, `verify` or `bench` runs: each is a
second way to a quantity the library computes, kept here so that a test can
compare the two.  The arithmetic oracles factor n themselves, by trying every
integer from 2 upward, and share no code with `distinct_primes`.  The
brute-force twins read the library's own int64 residues, and the nu twin its
own theta/nu kernel, so the checks at the top of the enumeration range still
exercise the production code; the sum(a^2) twin does its own matmul over those
residues, as verify_chain does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from totdk.arith import _theta_nu_sums, coprime_residues, distinct_primes, squarefree_divisors_from
from totdk.errors import DomainError
from totdk.spence import _require_n_ge_2

# ------------------------------------------------------------------ arithmetic


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n, primes ascending; () for n = 1.

    Trial division by every integer from 2 upward: a composite divisor never
    divides what is left, since its prime factors were divided out before it.
    """
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    pairs, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            pairs.append((p, e))
        p += 1
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


def moebius(n: int) -> int:
    """0 if n has a squared prime factor, else (-1)**(number of prime factors)."""
    pairs = factorize(n)
    if any(e >= 2 for _, e in pairs):
        return 0
    return -1 if len(pairs) % 2 else 1


def totient(n: int) -> int:
    """Euler's phi from the prime factorization: the product of p**(e-1) * (p-1)."""
    return math.prod(p ** (e - 1) * (p - 1) for p, e in factorize(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order, including 1 and n."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def smallest_prime_factor_table(limit: int) -> list[int]:
    """[0, 1, 2, 3, 2, 5, 2, ...]: the smallest prime factor of each j <= limit
    (j itself for j < 2), by a pure-Python sieve over the primes up to sqrt(limit)."""
    spf = list(range(limit + 1))
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


# -------------------------------------------------------------- Dedekind sums


def sawtooth(x: Fraction | int) -> Fraction:
    """((x)): 0 at integers, frac(x) - 1/2 otherwise; odd, valued in (-1/2, 1/2)."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x % 1 - Fraction(1, 2)


def dedekind_naive_full(b: int, a: int) -> Fraction:
    """s(b, a) over the definition's full range k = 1..a-1, for a >= 1 and
    b >= 0: with r = k*b mod a, the sum of (2*r - a) * (2*k - a) over
    r != 0, divided by 4*a*a.  `dedekind_naive` sums half of it."""
    step = b % a
    total = 0
    r = 0
    for k in range(1, a):
        r += step
        if r >= a:
            r -= a
        if r:
            total += (2 * r - a) * (2 * k - a)
    return Fraction(total, 4 * a * a)


def closed_form_three_pass(b: int, a: int) -> tuple[int, int, int]:
    """(N, k, r) as `dedekind._closed_form` returns them, by three Euclid runs:
    math.gcd scales the pair to the coprime (k, h), a loop sums the signed
    quotients of (k, h), and pow(h, -1, k) gives h'."""
    g = math.gcd(b, a)
    k = a // g
    h = (b // g) % k
    if not h:
        return 0, k, 0
    x, y = k, h
    alternating = 0
    sign = 1
    depth = 0
    while y:
        q, r = divmod(x, y)
        alternating += sign * q
        sign = -sign
        x, y = y, r
        depth += 1
    numerator = k * alternating + h + pow(h, -1, k) - k * (3 if depth % 2 else 1)
    return numerator, k, depth


def reciprocity_rhs(a: int, b: int) -> Fraction:
    """-1/4 + (a/b + 1/(a*b) + b/a)/12, over the common denominator 12*a*b.

    Equals s(a, b) + s(b, a) whenever gcd(a, b) = 1.
    """
    if a < 1 or b < 1:
        raise DomainError(f"reciprocity requires positive arguments, got ({a}, {b})")
    return Fraction(a * a + b * b + 1 - 3 * a * b, 12 * a * b)


# ------------------------------------------------------------ the proof chain


def delange_double_sum(n: int) -> Fraction:
    """sum(mu(d1) mu(d2) * d1*d2/n^2 * gcd(n/d1, n/d2)^2) over the divisor pairs
    of n, from this module's `divisors` and `moebius`; Delange's identity says
    it equals 2^omega(n) * phi(n) / n."""
    weighted = [(d, moebius(d)) for d in divisors(n)]
    numerator = sum(
        mu1 * mu2 * d1 * d2 * math.gcd(n // d1, n // d2) ** 2
        for d1, mu1 in weighted
        for d2, mu2 in weighted
    )
    return Fraction(numerator, n * n)


def sum_squares_totatives_bruteforce(n: int) -> int:
    """sum(a^2) over U(n) by direct enumeration; twin oracle of the closed form."""
    _require_n_ge_2(n)
    residues = coprime_residues(n)
    return int(residues @ residues)


def mobius_transform_sum(n: int, f: Callable[[int], Fraction | int]):
    """sum over d | n of mu(d) * sum(f(d*k) for k = 1..n/d).

    Contract: equals sum(f(a) for a in U(n)) for any f defined on 1..n.
    """
    total = 0
    for d, mu in squarefree_divisors_from(distinct_primes(n)):
        inner = sum(f(d * k) for k in range(1, n // d + 1))
        total += mu * inner
    return total


def nu_weighted_sum_bruteforce(n: int) -> Fraction:
    """sum(nu(n, a) * a) over U(n), exact, as verify_chain computes it: by the
    production theta/nu kernel `_theta_nu_sums`, not by enumerating nu(n, a)."""
    _require_n_ge_2(n)
    pairs = squarefree_divisors_from(distinct_primes(n))
    return Fraction(_theta_nu_sums(coprime_residues(n), pairs, n)[1], n)
