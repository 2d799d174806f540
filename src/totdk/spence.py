"""The identity chain behind Spence's totative-sum formula.

Spence's formula gives a closed form for sum(j * a_j) where a_1 < ... <
a_phi(n) are the totatives of n.  Its proof decomposes into a short chain
of exact identities; this module computes both sides of every link — a
brute-force side that enumerates the totative set and a closed-form or
Dedekind-sum side — so the whole chain is machine-checkable for any n.

The auxiliary functions are the Moebius-weighted floor and fractional-part
sums over the divisors of n:

    theta(n, x) = sum over d | n of mu(d) * floor(x / d)
    nu(n, x)    = sum over d | n of mu(d) * frac(x / d)

theta(n, x) counts the totatives of n that are <= x (for x >= 0), and
theta + nu = x * phi(n) / n.  Writing S(n) for the Moebius double sum of
Dedekind sums n * sum(mu(d1) mu(d2) s(n/d1, n/d2)), the chain is

    sum(j * a_j) = sum(theta(n, a) * a  for a in U(n))
                 = phi(n)/n * sum(a^2) - sum(nu(n, a) * a)
    sum(nu(n, a) * a) = -n*phi(n)/4 + S(n)
    S(n) = phi(n)/24 * (2*(-1)^omega(m)*phi(m) + 2^omega(n)),  m = radical(n)

which, with the classical closed form for sum(a^2) and Delange's gcd
double-sum identity, collapses into the formula itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .arith import (
    Sieve,
    coprime_residues,
    distinct_primes,
    squarefree_divisors_from,
    totient_from_primes,
)
from .dedekind import dedekind_fast
from .errors import DomainError, InvariantViolation
from .rational import format_rational, rat_frac

#: Stable tags for the links checked by verify_chain, in the order computed.
CHAIN_IDENTITIES = (
    "theta_reindex",
    "theta_split",
    "sum_of_squares",
    "nu_weighted_sum",
    "dedekind_double_sum",
    "delange_product",
    "spence_formula",
)


@dataclass(frozen=True)
class IdentityResult:
    """Outcome of one exact lhs-vs-rhs comparison at a given n."""

    n: int
    identity: str
    lhs: Fraction
    rhs: Fraction
    matched: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "identity": self.identity,
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
            "matched": self.matched,
        }


def _require_n_ge_1(n: int) -> None:
    if n < 1:
        raise DomainError(f"requires n >= 1, got {n}")


def _require_n_ge_2(n: int) -> None:
    if n < 2:
        raise DomainError(f"requires n > 1, got {n}")


def theta(n: int, x: Fraction | int, *, sieve: Sieve | None = None) -> int:
    """Moebius-weighted floor sum over the divisors of n.

    For x >= 0 this equals the number of integers in [1, x] coprime to n.
    """
    _require_n_ge_1(n)
    x = Fraction(x)
    return sum(mu * (x // d) for d, mu in squarefree_divisors_from(distinct_primes(n, sieve)))


def nu(n: int, x: Fraction | int, *, sieve: Sieve | None = None) -> Fraction:
    """Moebius-weighted fractional-part sum; theta + nu = x * phi(n) / n."""
    _require_n_ge_1(n)
    x = Fraction(x)
    total = Fraction(0)
    for d, mu in squarefree_divisors_from(distinct_primes(n, sieve)):
        total += mu * rat_frac(x / d)
    return total


# Residue kernels: exact int64 reductions over the ascending totatives of n.
# coprime_residues refuses n > ENUMERATION_BOUND, which keeps them exact.


def _sum_j_aj(residues: np.ndarray) -> int:
    ranks = np.arange(1, len(residues) + 1, dtype=np.int64)
    return int(ranks @ residues)


def _sum_squares(residues: np.ndarray) -> int:
    return int(residues @ residues)


def _nu_weighted_sum(residues: np.ndarray, primes: Sequence[int]) -> Fraction:
    # frac(a/d) = (a mod d) / d for integer a, so the sum is assembled over the
    # common denominator m = radical(n) in integer arithmetic; d = 1 adds 0.
    m = math.prod(primes)
    numerator = sum(
        mu * (m // d) * int((residues % d) @ residues)
        for d, mu in squarefree_divisors_from(primes)
        if d > 1
    )
    return Fraction(numerator, m)


def sum_j_aj_bruteforce(n: int, *, sieve: Sieve | None = None) -> int:
    """sum(j * a_j) over the ascending totatives of n, by direct enumeration."""
    _require_n_ge_2(n)
    return _sum_j_aj(coprime_residues(n, distinct_primes(n, sieve)))


def spence_closed_form(n: int, *, sieve: Sieve | None = None) -> int:
    """The closed form phi(n)/24 * (8n phi(n) + 6n + 2 phi(m) (-1)^omega(m) - 2^omega(m)).

    m is the radical of n.  The product is divisible by 24 for every n > 1;
    integrality is asserted, not assumed.
    """
    _require_n_ge_2(n)
    primes = distinct_primes(n, sieve)
    phi_n = totient_from_primes(n, primes)
    phi_m = math.prod(p - 1 for p in primes)
    w = len(primes)
    sign = -1 if w % 2 else 1
    numerator = phi_n * (8 * n * phi_n + 6 * n + 2 * phi_m * sign - (1 << w))
    if numerator % 24:
        raise InvariantViolation(
            f"closed form for n={n} not divisible by 24: {numerator}"
        )
    return numerator // 24


def sum_squares_totatives(n: int, *, sieve: Sieve | None = None) -> int:
    """Closed form phi(n)/6 * (2*n*n + m*(-1)^omega(m)) for sum(a^2) over U(n)."""
    _require_n_ge_2(n)
    primes = distinct_primes(n, sieve)
    phi_n = totient_from_primes(n, primes)
    m = math.prod(primes)
    sign = -1 if len(primes) % 2 else 1
    numerator = phi_n * (2 * n * n + m * sign)
    if numerator % 6:
        raise InvariantViolation(
            f"sum-of-squares closed form for n={n} not divisible by 6: {numerator}"
        )
    return numerator // 6


def sum_squares_totatives_bruteforce(n: int, *, sieve: Sieve | None = None) -> int:
    """sum(a^2) over U(n) by direct enumeration; twin oracle of the closed form."""
    _require_n_ge_2(n)
    return _sum_squares(coprime_residues(n, distinct_primes(n, sieve)))


def mobius_transform_sum(n: int, f: Callable[[int], Fraction | int]):
    """sum over d | n of mu(d) * sum(f(d*k) for k = 1..n/d).

    Contract: equals sum(f(a) for a in U(n)) for any f defined on 1..n.
    """
    _require_n_ge_1(n)
    total = 0
    for d, mu in squarefree_divisors_from(distinct_primes(n)):
        inner = sum(f(d * k) for k in range(1, n // d + 1))
        total += mu * inner
    return total


def nu_weighted_sum_bruteforce(n: int, *, sieve: Sieve | None = None) -> Fraction:
    """sum(nu(n, a) * a) over U(n), exact, by direct enumeration."""
    _require_n_ge_2(n)
    primes = distinct_primes(n, sieve)
    return _nu_weighted_sum(coprime_residues(n, primes), primes)


def s_double_sum(n: int, *, sieve: Sieve | None = None) -> Fraction:
    """S(n) = n * sum(mu(d1) mu(d2) s(n/d1, n/d2)) over divisor pairs of n.

    Every Dedekind sum is evaluated with dedekind_fast; divisors with
    mu = 0 contribute nothing and are skipped.
    """
    _require_n_ge_2(n)
    sq = squarefree_divisors_from(distinct_primes(n, sieve))
    total = Fraction(0)
    for d1, mu1 in sq:
        for d2, mu2 in sq:
            total += mu1 * mu2 * dedekind_fast(n // d1, n // d2)
    return n * total


def s_closed_form(n: int, *, sieve: Sieve | None = None) -> Fraction:
    """S(n) in closed form: phi(n)/24 * (2*(-1)^omega(m)*phi(m) + 2^omega(n))."""
    _require_n_ge_2(n)
    primes = distinct_primes(n, sieve)
    phi_n = totient_from_primes(n, primes)
    phi_m = math.prod(p - 1 for p in primes)
    sign = -1 if len(primes) % 2 else 1
    return Fraction(phi_n * (2 * sign * phi_m + (1 << len(primes))), 24)


def delange_double_sum(n: int, *, sieve: Sieve | None = None) -> Fraction:
    """sum(mu(d1) mu(d2) * d1*d2/n^2 * gcd(n/d1, n/d2)^2) over divisor pairs."""
    _require_n_ge_1(n)
    sq = squarefree_divisors_from(distinct_primes(n, sieve))
    numerator = 0
    for d1, mu1 in sq:
        for d2, mu2 in sq:
            g = math.gcd(n // d1, n // d2)
            numerator += mu1 * mu2 * d1 * d2 * g * g
    return Fraction(numerator, n * n)


def delange_closed_form(n: int, *, sieve: Sieve | None = None) -> Fraction:
    """Delange's closed form for the gcd double sum: 2^omega(n) * phi(n) / n."""
    _require_n_ge_1(n)
    primes = distinct_primes(n, sieve)
    return Fraction((1 << len(primes)) * totient_from_primes(n, primes), n)


def verify_chain(n: int, *, sieve: Sieve | None = None) -> list[IdentityResult]:
    """Exactly compare both sides of every link of the proof chain at n.

    Links are reported individually (never fail-fast) so a broken identity
    localizes to a single named link:

      theta_reindex        sum(j * a_j) = sum(theta(n, a) * a)
      theta_split          sum(theta(n, a) * a)
                             = phi(n)/n * sum(a^2) - sum(nu(n, a) * a)
      sum_of_squares       brute-force sum(a^2) vs its closed form
      nu_weighted_sum      sum(nu(n, a) * a) = -n*phi(n)/4 + S(n)
      dedekind_double_sum  S(n) double sum vs its closed form
      delange_product      gcd double sum vs 2^omega(n)*phi(n)/n
      spence_formula       sum(j * a_j) vs the full closed form
    """
    _require_n_ge_2(n)
    primes = distinct_primes(n, sieve)
    residues = coprime_residues(n, primes)
    phi_n = len(residues)

    jaj = _sum_j_aj(residues)
    theta_weighted = sum(
        mu * int((residues // d) @ residues)
        for d, mu in squarefree_divisors_from(primes)
    )
    sum_sq = _sum_squares(residues)
    nu_weighted = _nu_weighted_sum(residues, primes)
    s_dbl = s_double_sum(n, sieve=sieve)

    def link(tag: str, lhs, rhs) -> IdentityResult:
        lhs, rhs = Fraction(lhs), Fraction(rhs)
        return IdentityResult(n, tag, lhs, rhs, lhs == rhs)

    return [
        link("theta_reindex", jaj, theta_weighted),
        link(
            "theta_split",
            theta_weighted,
            Fraction(phi_n, n) * sum_sq - nu_weighted,
        ),
        link("sum_of_squares", sum_sq, sum_squares_totatives(n, sieve=sieve)),
        link("nu_weighted_sum", nu_weighted, Fraction(-n * phi_n, 4) + s_dbl),
        link("dedekind_double_sum", s_dbl, s_closed_form(n, sieve=sieve)),
        link(
            "delange_product",
            delange_double_sum(n, sieve=sieve),
            delange_closed_form(n, sieve=sieve),
        ),
        link("spence_formula", jaj, spence_closed_form(n, sieve=sieve)),
    ]
