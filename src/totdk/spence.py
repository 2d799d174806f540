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
    ENUMERATION_BOUND,
    coprime_residues,
    distinct_primes,
    squarefree_divisors_from,
    totient_from_primes,
)
# dedekind_fast is not called here; perfbench/tracing.py wraps this module's name.
from .dedekind import _closed_form, dedekind_fast  # noqa: F401
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


def _require_n_ge_2(n: int) -> None:
    if n < 2:
        raise DomainError(f"requires n > 1, got {n}")


def theta(n: int, x: Fraction | int) -> int:
    """Moebius-weighted floor sum over the divisors of n.

    For x >= 0 this equals the number of integers in [1, x] coprime to n.
    """
    x = Fraction(x)
    return sum(mu * (x // d) for d, mu in squarefree_divisors_from(distinct_primes(n)))


def nu(n: int, x: Fraction | int) -> Fraction:
    """Moebius-weighted fractional-part sum; theta + nu = x * phi(n) / n."""
    x = Fraction(x)
    total = Fraction(0)
    for d, mu in squarefree_divisors_from(distinct_primes(n)):
        total += mu * rat_frac(x / d)
    return total


# Residue kernels: exact int64 reductions over the ascending totatives of n.
# coprime_residues refuses n > ENUMERATION_BOUND, which keeps them exact: each
# dot product below sums fewer than n terms, each below n**2.

# Read-only ranks 1, 2, 3, ... shared by every _sum_j_aj call.  A fresh arange
# per n, next to coprime_residues' own arrays, page-faults at large phi(n):
# about 20 minor faults per n for n near 30000, none with the shared vector.
# The vector only grows, by doubling, and is swapped in one assignment, so a
# thread that read the old one still holds a valid vector.
_ranks = np.arange(1, 1, dtype=np.int64)


def _sum_j_aj(residues: np.ndarray) -> int:
    global _ranks
    length = len(residues)
    ranks = _ranks
    if len(ranks) < length:
        # Doubling stops at ENUMERATION_BOUND; a longer input still gets its length.
        size = max(length, min(1 << (length - 1).bit_length(), ENUMERATION_BOUND))
        ranks = np.arange(1, size + 1, dtype=np.int64)
        ranks.flags.writeable = False
        _ranks = ranks
    return int(ranks[:length] @ residues)


def _sum_squares(residues: np.ndarray) -> int:
    return int(residues @ residues)


# Elements of one divmod block in _theta_nu_sums, which holds
# max(1, _BLOCK_ELEMENTS // phi(n)) divisor rows: a small n takes all of its
# rows in one numpy call; once phi(n) > _BLOCK_ELEMENTS a block is one row,
# the size a per-divisor loop would use.
_BLOCK_ELEMENTS = 1 << 16


def _theta_nu_sums(residues: np.ndarray, primes: Sequence[int]) -> tuple[int, int]:
    """(sum(theta(n, a) * a), m * sum(nu(n, a) * a)) over U(n), m = radical(n).

    floor(a/d) and a mod d come from one divmod over a block of divisor rows,
    then two int64 mat-vec products; the Moebius weights, and m/d, which puts
    frac(a/d) = (a mod d)/d over the common denominator m, apply in Python ints.
    """
    m = math.prod(primes)
    pairs = squarefree_divisors_from(primes)
    ds = np.array([d for d, _ in pairs], dtype=np.int64)
    rows = max(1, _BLOCK_ELEMENTS // len(residues))
    theta_weighted = nu_numerator = 0
    for lo in range(0, len(pairs), rows):
        floors, rems = np.divmod(residues, ds[lo : lo + rows, None])
        for (d, mu), f, r in zip(
            pairs[lo : lo + rows], (floors @ residues).tolist(), (rems @ residues).tolist()
        ):
            theta_weighted += mu * f
            nu_numerator += mu * (m // d) * r
    return theta_weighted, nu_numerator


def sum_j_aj_bruteforce(n: int) -> int:
    """sum(j * a_j) over the ascending totatives of n, by direct enumeration."""
    _require_n_ge_2(n)
    return _sum_j_aj(coprime_residues(n))


def spence_closed_form(n: int) -> int:
    """The closed form phi(n)/24 * (8n phi(n) + 6n + 2 phi(m) (-1)^omega(m) - 2^omega(m)).

    m is the radical of n.  The product is divisible by 24 for every n > 1;
    integrality is asserted, not assumed.
    """
    _require_n_ge_2(n)
    primes = distinct_primes(n)
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


def sum_squares_totatives(n: int) -> int:
    """Closed form phi(n)/6 * (2*n*n + m*(-1)^omega(m)) for sum(a^2) over U(n)."""
    _require_n_ge_2(n)
    primes = distinct_primes(n)
    phi_n = totient_from_primes(n, primes)
    m = math.prod(primes)
    sign = -1 if len(primes) % 2 else 1
    numerator = phi_n * (2 * n * n + m * sign)
    if numerator % 6:
        raise InvariantViolation(
            f"sum-of-squares closed form for n={n} not divisible by 6: {numerator}"
        )
    return numerator // 6


def sum_squares_totatives_bruteforce(n: int) -> int:
    """sum(a^2) over U(n) by direct enumeration; twin oracle of the closed form."""
    _require_n_ge_2(n)
    return _sum_squares(coprime_residues(n))


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
    """sum(nu(n, a) * a) over U(n), exact, by direct enumeration."""
    _require_n_ge_2(n)
    primes = distinct_primes(n)
    return Fraction(_theta_nu_sums(coprime_residues(n), primes)[1], math.prod(primes))


def s_double_sum(n: int) -> Fraction:
    """S(n) = n * sum(mu(d1) mu(d2) s(n/d1, n/d2)) over divisor pairs of n.

    Every Dedekind sum comes from the integer closed form of
    totdk.dedekind as s(n/d1, n/d2) = N / (12*k) with k dividing n/d2, hence
    n; divisors with mu = 0 contribute nothing and are skipped.  The double
    sum is accumulated in integers as a numerator over 12*n, N * (n // k)
    per pair, and S(n) = total / 12 is the one Fraction built.
    """
    _require_n_ge_2(n)
    quotients = [(n // d, mu) for d, mu in squarefree_divisors_from(distinct_primes(n))]
    total = 0
    for b, mu1 in quotients:
        for a, mu2 in quotients:
            numerator, k, _ = _closed_form(b, a)
            total += mu1 * mu2 * numerator * (n // k)
    return Fraction(total, 12)


def s_closed_form(n: int) -> Fraction:
    """S(n) in closed form: phi(n)/24 * (2*(-1)^omega(m)*phi(m) + 2^omega(n))."""
    _require_n_ge_2(n)
    primes = distinct_primes(n)
    phi_n = totient_from_primes(n, primes)
    phi_m = math.prod(p - 1 for p in primes)
    sign = -1 if len(primes) % 2 else 1
    return Fraction(phi_n * (2 * sign * phi_m + (1 << len(primes))), 24)


def delange_double_sum(n: int) -> Fraction:
    """sum(mu(d1) mu(d2) * d1*d2/n^2 * gcd(n/d1, n/d2)^2) over divisor pairs."""
    sq = squarefree_divisors_from(distinct_primes(n))
    numerator = 0
    for d1, mu1 in sq:
        for d2, mu2 in sq:
            g = math.gcd(n // d1, n // d2)
            numerator += mu1 * mu2 * d1 * d2 * g * g
    return Fraction(numerator, n * n)


def delange_closed_form(n: int) -> Fraction:
    """Delange's closed form for the gcd double sum: 2^omega(n) * phi(n) / n."""
    primes = distinct_primes(n)
    return Fraction((1 << len(primes)) * totient_from_primes(n, primes), n)


def verify_chain(n: int) -> list[IdentityResult]:
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
    primes = distinct_primes(n)
    residues = coprime_residues(n)
    phi_n = len(residues)
    m = math.prod(primes)

    # Every side is an integer, or an integer numerator over a known
    # denominator; one Fraction is built per reported value.
    jaj = Fraction(_sum_j_aj(residues))
    theta_sum, nu_numerator = _theta_nu_sums(residues, primes)
    theta_weighted = Fraction(theta_sum)
    sum_sq = _sum_squares(residues)
    s_dbl = s_double_sum(n)

    def link(tag: str, lhs: Fraction, rhs: Fraction) -> IdentityResult:
        return IdentityResult(n, tag, lhs, rhs, lhs == rhs)

    return [
        link("theta_reindex", jaj, theta_weighted),
        link(
            "theta_split",
            theta_weighted,
            Fraction(phi_n * sum_sq * m - nu_numerator * n, n * m),
        ),
        link("sum_of_squares", Fraction(sum_sq), Fraction(sum_squares_totatives(n))),
        link(
            "nu_weighted_sum",
            Fraction(nu_numerator, m),
            Fraction(
                4 * s_dbl.numerator - n * phi_n * s_dbl.denominator, 4 * s_dbl.denominator
            ),
        ),
        link("dedekind_double_sum", s_dbl, s_closed_form(n)),
        link("delange_product", delange_double_sum(n), delange_closed_form(n)),
        link("spence_formula", jaj, Fraction(spence_closed_form(n))),
    ]
