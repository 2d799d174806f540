"""The sawtooth function ((x)) and Dedekind sums s(b, a).

s(b, a) = sum over k = 1..a of ((k*b/a)) * ((k/a)), with ((x)) equal to the
fractional part minus one half away from integers and 0 at integers.
Coprimality of the arguments is NOT required; the sum is well defined for
any positive pair.

Two evaluators are provided.  `dedekind_naive` walks the definition in O(a)
and is the oracle; `dedekind_fast` reaches the same exact value in
O(log min(a, b)) steps by chaining three reductions, each an identity of
the sum itself:

  * scaling:      s(b*c, a*c) = s(b, a), so the pair is divided by its gcd;
  * periodicity:  s(b, a) = s(b mod a, a), with s(0, a) = 0;
  * reciprocity:  s(b, a) + s(a, b) = -1/4 + (b/a + 1/(a*b) + a/b)/12
                  for coprime a, b, used to swap the pair Euclid-style.
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
    return dedekind_fast_with_depth(b, a)[0]


def dedekind_fast_with_depth(b: int, a: int) -> tuple[Fraction, int]:
    """Like dedekind_fast, also returning the number of reciprocity swaps.

    The pair is first divided by its gcd (scaling) and the first argument
    reduced mod the second (periodicity), leaving a coprime pair with
    0 <= b < a.  Each loop iteration applies the reciprocity law once:
    s(b, a) = rhs(b, a) - s(a, b), then folds s(a, b) to s(a mod b, b).
    The remainder sequence is the Euclidean algorithm's, so it reaches
    s(0, *) = 0 after O(log min(a, b)) swaps.
    """
    _require_valid(b, a)
    g = math.gcd(b, a)
    if g > 1:
        b //= g
        a //= g
    b %= a
    total = Fraction(0)
    sign = 1
    depth = 0
    while b:
        total += sign * reciprocity_rhs(b, a)
        sign = -sign
        a, b = b, a % b
        depth += 1
    return total, depth
