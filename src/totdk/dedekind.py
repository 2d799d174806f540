"""The sawtooth function ((x)) and Dedekind sums s(b, a).

s(b, a) = sum over k = 1..a of ((k*b/a)) * ((k/a)), with ((x)) equal to the
fractional part minus one half away from integers and 0 at integers.
Coprimality of the arguments is NOT required; the sum is well defined for
any positive pair.

One closed form reaches the exact value in O(log min(a, b)) integer steps.
Two identities of the sum itself first reduce the pair:

  * scaling:      s(b*c, a*c) = s(b, a), so the pair is divided by its gcd;
  * periodicity:  s(b, a) = s(b mod a, a), with s(0, a) = 0.

That leaves a coprime pair 0 < h < k, which the continued-fraction closed
form of Hickerson (1977) and Knuth ("Notes on generalized Dedekind sums",
Acta Arith. 1977) evaluates: with q_1..q_r the quotients of Euclid's
algorithm on (k, h) and h' the inverse of h mod k,

    12*k*s(h, k) = k*(q_1 - q_2 + ... + (-1)^(r+1) q_r) + h + h'
                   - k*(3 if r is odd else 1).

The private entry `_closed_form` runs this in Python ints and returns the
unreduced numerator and k.  `dedekind_fast` and `dedekind_fast_with_depth`
each build one Fraction from it; `spence.s_double_sum` sums the numerators
in integers and builds none per pair.

Two independent oracles stay for the tests: `dedekind_naive` walks the
definition in O(a), and `reciprocity_rhs` is the right-hand side of the
reciprocity law s(b, a) + s(a, b) = -1/4 + (b/a + 1/(a*b) + a/b)/12 for
coprime a, b, from which a Euclid-style evaluator can be built.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, ResourceLimitError
from .rational import rat_frac

#: Largest modulus accepted by the O(a) naive evaluator, a resource limit
#: like ENUMERATION_BOUND; it is a constant, not a setting.
NAIVE_BOUND = 10**7


def sawtooth(x: Fraction | int) -> Fraction:
    """((x)): 0 at integers, frac(x) - 1/2 otherwise; odd, valued in (-1/2, 1/2)."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return rat_frac(x) - Fraction(1, 2)


def _require_valid(b: int, a: int) -> None:
    # b = 0 is admitted with s(0, a) = 0: every summand contains ((0)) = 0.
    if a < 1 or b < 0:
        raise DomainError(f"Dedekind sum requires a >= 1 and b >= 0, got ({b}, {a})")


def dedekind_naive(b: int, a: int) -> Fraction:
    """s(b, a) summed term by term from the definition; O(a).

    Each nonzero term equals ((k*b/a)) * ((k/a)) written over the common
    denominator 4*a*a: with r = k*b mod a the term is
    (2*r - a) * (2*k - a) / (4*a*a), zero exactly when r = 0 (which also
    swallows the k = a term).  Accumulation is pure integer arithmetic.
    """
    _require_valid(b, a)
    if a > NAIVE_BOUND:
        raise ResourceLimitError(f"naive Dedekind bound exceeded: a={a} > {NAIVE_BOUND}")
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


def reciprocity_rhs(a: int, b: int) -> Fraction:
    """-1/4 + (a/b + 1/(a*b) + b/a)/12, over the common denominator 12*a*b.

    Equals s(a, b) + s(b, a) whenever gcd(a, b) = 1.
    """
    if a < 1 or b < 1:
        raise DomainError(f"reciprocity requires positive arguments, got ({a}, {b})")
    return Fraction(a * a + b * b + 1 - 3 * a * b, 12 * a * b)


def dedekind_fast(b: int, a: int) -> Fraction:
    """s(b, a), exactly equal to dedekind_naive(b, a), in O(log min(a, b)) steps."""
    _require_valid(b, a)
    numerator, k, _ = _closed_form(b, a)
    return Fraction(numerator, 12 * k)


def dedekind_fast_with_depth(b: int, a: int) -> tuple[Fraction, int]:
    """Like dedekind_fast, also returning r, the length of Euclid's algorithm."""
    _require_valid(b, a)
    numerator, k, depth = _closed_form(b, a)
    return Fraction(numerator, 12 * k), depth


def _closed_form(b: int, a: int) -> tuple[int, int, int]:
    """(N, k, r) with s(b, a) = N / (12*k), unreduced, k dividing a, and r the
    length of Euclid's algorithm; a >= 1 and b >= 0 are the caller's to check.

    The pair is divided by its gcd (scaling) and b reduced mod a
    (periodicity), leaving a coprime pair 0 <= h < k; h = 0 gives
    s(0, k) = 0 at depth 0.  Otherwise the closed form in the module
    docstring sums the Euclid quotients of (k, h) with alternating signs.
    """
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
