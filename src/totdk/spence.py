"""The identity chain behind Spence's totative-sum formula.

Spence's formula gives a closed form for sum(j * a_j) where a_1 < ... <
a_phi(n) are the totatives of n.  Its proof decomposes into a short chain
of exact identities; this module computes both sides of every link — a
brute-force side over the totatives (for Spence's sum, the radical's, tiled in
closed form) and a closed-form or Dedekind-sum side — so the chain is
machine-checkable up to ENUMERATION_BOUND.
The brute-force sums over the totatives come from the residue kernels of
totdk.arith, which return Python ints; this module computes in ints and
Fractions alone.

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
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .arith import _enumerable, _sum_j_aj, _theta_nu_sums
from .arith import coprime_residues, distinct_primes, squarefree_divisors_from
# dedekind_fast is not called here; perfbench/tracing.py wraps this module's name.
from .dedekind import _closed_form, dedekind_fast  # noqa: F401
from .errors import DomainError, InvariantViolation

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


def _require_n_ge_2(n: int) -> int:
    n = operator.index(n)
    if n < 2:
        raise DomainError(f"requires n > 1, got {n}")
    return n


def _fraction(x: Fraction | int) -> Fraction:
    """theta's and nu's x as a Fraction of ints: a float is refused, and a
    numpy integer is read through operator.index rather than computed on."""
    if not isinstance(x, numbers.Rational):
        raise TypeError(f"x must be rational, got {type(x).__name__}")
    return Fraction(operator.index(x.numerator), operator.index(x.denominator))


def theta(n: int, x: Fraction | int) -> int:
    """Moebius-weighted floor sum over the divisors of n.

    For x >= 0 this equals the number of integers in [1, x] coprime to n.
    """
    x = _fraction(x)
    return sum(mu * (x // d) for d, mu in squarefree_divisors_from(distinct_primes(n)))


def nu(n: int, x: Fraction | int) -> Fraction:
    """Moebius-weighted fractional-part sum; theta + nu = x * phi(n) / n."""
    x = _fraction(x)
    return sum(mu * (x / d % 1) for d, mu in squarefree_divisors_from(distinct_primes(n)))


def sum_j_aj_bruteforce(n: int) -> int:
    """sum(j * a_j) over the ascending totatives of n, tiled from its radical's."""
    n = _enumerable(_require_n_ge_2(n))
    m = math.prod(distinct_primes(n))
    return _sum_j_aj(coprime_residues(m), m, n // m)


def _closed_forms(n: int) -> tuple[tuple[int, ...], int, int, int, int]:
    """(primes, spence, sum_sq, s, delange) of n >= 1: the primes, then the
    closed forms of sum(j * a_j), sum(a^2) over U(n), S(n) and Delange's
    product as integer numerators over 24, 6, 24 and n, from one
    distinct_primes call.  The radical m of n stays inside, read through
    phi(m), phi(n) = n/m * phi(m), and the (-1)^omega * m term of sum(a^2).
    """
    primes = distinct_primes(n)
    m = phi_m = 1
    for p in primes:
        m *= p
        phi_m *= p - 1
    phi_n = n // m * phi_m
    sign = -1 if len(primes) % 2 else 1
    two_omega = 1 << len(primes)
    return (
        primes,
        phi_n * (8 * n * phi_n + 6 * n + 2 * sign * phi_m - two_omega),
        phi_n * (2 * n * n + sign * m),
        phi_n * (2 * sign * phi_m + two_omega),
        two_omega * phi_n,
    )


def spence_closed_form(n: int) -> int:
    """The closed form phi(n)/24 * (8n phi(n) + 6n + 2 phi(m) (-1)^omega(m) - 2^omega(m)).

    m is the radical of n.  The product is divisible by 24 for every n > 1;
    integrality is asserted, not assumed.
    """
    n = _require_n_ge_2(n)
    numerator = _closed_forms(n)[1]
    if numerator % 24:
        raise InvariantViolation(
            f"closed form for n={n} not divisible by 24: {numerator}"
        )
    return numerator // 24


def s_double_sum(n: int) -> Fraction:
    """S(n) = n * sum(mu(d1) mu(d2) s(n/d1, n/d2)) over divisor pairs of n,
    summed over coprime reduced pairs.

    Divisors with mu = 0 contribute nothing.  A square-free pair is
    d1 = g*k, d2 = g*h with g = gcd(d1, d2), and scaling gives
    s(n/d1, n/d2) = s(h, k) with mu(d1) mu(d2) = mu(h*k).  So each coprime
    (h, k) stands for the 2^(omega(n) - omega(h*k)) choices of g, and
    k = 1 adds s(h, 1) = 0: 3^omega - 2^omega Dedekind sums where the
    ordered divisor pairs are 4^omega.  h, k and mu(h*k) are read from the
    prime-bitmask divisor table of totdk.arith, in which disjoint submasks
    index coprime divisors.  Each s(h, k) = N / (12*k) comes from the integer
    closed form of totdk.dedekind; the sum is accumulated as a numerator over
    12*n, N * (n // k) per pair, and S(n) = total / 12 is the one Fraction.
    """
    n = _require_n_ge_2(n)
    primes = distinct_primes(n)
    table = squarefree_divisors_from(primes)
    total = 0
    for union in range(1, len(table)):
        # h*k = table[union]: k runs over the nonzero submasks, h is the rest.
        pairs_sum = 0
        k_mask = union
        while k_mask:
            numerator, k, _ = _closed_form(table[union ^ k_mask][0], table[k_mask][0])
            pairs_sum += numerator * (n // k)
            k_mask = (k_mask - 1) & union
        total += (table[union][1] * pairs_sum) << (len(primes) - union.bit_count())
    return Fraction(total, 12)


def s_closed_form(n: int) -> Fraction:
    """S(n) in closed form: phi(n)/24 * (2*(-1)^omega(m)*phi(m) + 2^omega(n))."""
    n = _require_n_ge_2(n)
    return Fraction(_closed_forms(n)[3], 24)


def delange_closed_form(n: int) -> Fraction:
    """Delange's closed form 2^omega(n) * phi(n) / n of the gcd double sum.

    The double sum is sum(mu(d1) mu(d2) * d1*d2/n^2 * gcd(n/d1, n/d2)^2)
    over the divisor pairs of n."""
    n = operator.index(n)
    return Fraction(_closed_forms(n)[4], n)


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

    The square-free divisors of n, from _closed_forms' primes, feed Delange's
    sum and the theta/nu kernel, which gives sum(a^2) too, with nu over n.
    """
    n = _require_n_ge_2(n)
    primes, spence24, sum_sq6, s24, delange_n = _closed_forms(n)
    pairs = squarefree_divisors_from(primes)
    residues = coprime_residues(n)
    phi_n = len(residues)

    # Every link is (lhs numerator, lhs denominator, rhs numerator, rhs
    # denominator) in integers and matches when the cross products agree.
    jaj = _sum_j_aj(residues, n, 1)
    sum_sq, theta_sum, nu_numerator = _theta_nu_sums(residues, pairs, n)
    s_num, s_den = s_double_sum(n).as_integer_ratio()
    # The Delange summand is symmetric in (d1, d2): twice the unordered pairs
    # d1 != d2, plus the diagonal, with weights mu(d) * d and mu(d)^2 = 1.
    terms = [(mu * d, n // d) for d, mu in pairs]
    off_diagonal = 0
    for (w1, q1), (w2, q2) in combinations(terms, 2):
        off_diagonal += w1 * w2 * math.gcd(q1, q2) ** 2
    delange_num = 2 * off_diagonal + sum((w * q) ** 2 for w, q in terms)

    sides = (
        (jaj, 1, theta_sum, 1),
        (theta_sum, 1, phi_n * sum_sq - nu_numerator, n),
        (sum_sq, 1, sum_sq6, 6),
        (nu_numerator, n, 4 * s_num - n * phi_n * s_den, 4 * s_den),
        (s_num, s_den, s24, 24),
        (delange_num, n * n, delange_n, n),
        (jaj, 1, spence24, 24),
    )
    results = []
    for tag, (a, b, c, d) in zip(CHAIN_IDENTITIES, sides, strict=True):
        lhs = Fraction(a, b)
        matched = a * d == c * b
        # The sides of a matched link are equal, so its rhs is its lhs.
        results.append(IdentityResult(n, tag, lhs, lhs if matched else Fraction(c, d), matched))
    return results
