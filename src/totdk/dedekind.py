"""Dedekind sums s(b, a): the naive definitional sum and the fast closed form.

s(b, a) = sum over k = 1..a of ((k*b/a)) * ((k/a)), with ((x)) equal to the
fractional part minus one half away from integers and 0 at integers.
Coprimality of the arguments is NOT required; the sum is well defined for
any positive pair.

One closed form reaches the exact value in O(log min(a, b)) integer steps.
Two identities of the sum itself reduce the pair:

  * periodicity:  s(b, a) = s(b mod a, a), with s(0, a) = 0;
  * scaling:      s(b*c, a*c) = s(b, a).

With g = gcd(b, a), that leaves the coprime pair 0 < h < k, h = (b mod a)/g
and k = a/g, which the continued-fraction closed form of Hickerson (1977)
and Knuth ("Notes on generalized Dedekind sums", Acta Arith. 1977)
evaluates: with q_1..q_r the quotients of Euclid's algorithm on (k, h) and
h' the inverse of h mod k,

    12*k*s(h, k) = k*(q_1 - q_2 + ... + (-1)^(r+1) q_r) + h + h'
                   - k*(3 if r is odd else 1).

The pair is never divided before Euclid runs: the remainder sequence of
(a, b mod a) is g times that of (k, h), so one extended-Euclid loop on
(a, b mod a) yields the quotients, the depth r, g as its last nonzero
remainder, and h' from that remainder's cofactor.

The private entry `_closed_form` runs this in Python ints and returns the
unreduced numerator, k and the Euclid depth r.  `dedekind_fast`, the one
public front end, checks the pair and builds one Fraction from it;
`spence.s_double_sum` sums the numerators in integers over coprime reduced
pairs and builds no Fraction per pair, and `bench` reads the depth from it.

`dedekind_naive` walks the definition in O(a), over k = 1..(a-1)//2 only:
the sawtooth's oddness and period 1 make the terms at k and a - k equal, so
it doubles the half sum and uses neither reciprocity nor Euclid.  `verify`
and `bench` check the closed form against it.  The tests' further oracles,
the full-range sum, the sawtooth ((x)) and the right-hand side of the
reciprocity law s(b, a) + s(a, b) = -1/4 + (b/a + 1/(a*b) + a/b)/12 for
coprime a, b, live in `tests/oracles.py`.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import DomainError, ResourceLimitError

#: Largest modulus accepted by the O(a) naive evaluator, a resource limit
#: like ENUMERATION_BOUND; it is a constant, not a setting.
NAIVE_BOUND = 10**7


def _require_valid(b: int, a: int) -> tuple[int, int]:
    # b = 0 is admitted with s(0, a) = 0: every summand contains ((0)) = 0.
    b, a = operator.index(b), operator.index(a)
    if a < 1 or b < 0:
        raise DomainError(f"Dedekind sum requires a >= 1 and b >= 0, got ({b}, {a})")
    return b, a


def dedekind_naive(b: int, a: int) -> Fraction:
    """s(b, a) summed term by term from the definition over half the range; O(a).

    Each nonzero term equals ((k*b/a)) * ((k/a)) written over the common
    denominator 4*a*a: with r = k*b mod a the term is
    (2*r - a) * (2*k - a) / (4*a*a), zero exactly when r = 0 (which also
    swallows the k = a term).  The sawtooth is odd with period 1, so the
    terms at k and a - k are equal, and the k = a/2 term of an even a is
    0: the loop sums k = 1..(a-1)//2 and the total is doubled, which
    halves the denominator.  It carries R = 2*r - a and K = 2*k - a, so a
    term is R*K and r = 0 is R = -a.  Accumulation is pure integer
    arithmetic.
    """
    b, a = _require_valid(b, a)
    if a > NAIVE_BOUND:
        raise ResourceLimitError(f"naive Dedekind bound exceeded: a={a} > {NAIVE_BOUND}")
    step = 2 * (b % a)
    wrap = 2 * a
    total = 0
    R = -a
    for K in range(2 - a, 0, 2):
        R += step
        if R >= a:
            R -= wrap
        if R != -a:
            total += R * K
    return Fraction(total, 2 * a * a)


def dedekind_fast(b: int, a: int) -> Fraction:
    """s(b, a), exactly equal to dedekind_naive(b, a), in O(log min(a, b)) steps."""
    b, a = _require_valid(b, a)
    numerator, k, _ = _closed_form(b, a)
    return Fraction(numerator, 12 * k)


def _closed_form(b: int, a: int) -> tuple[int, int, int]:
    """(N, k, r) with s(b, a) = N / (12*k), unreduced, k = a // gcd(b, a),
    and r the length of Euclid's algorithm; a >= 1 and b >= 0 are the
    caller's to check.

    One extended-Euclid loop on (a, b mod a) does it all.  Taking b mod a
    is the periodicity step; b mod a = 0 gives s(0, a) = 0 as (0, 1, 0).
    Scaling is not a separate gcd: the loop's remainders are g = gcd(b, a)
    times those of (k, h), so it sees their quotients and depth, and its
    last nonzero remainder is g.  Every remainder is congruent to its
    cofactor times b mod a, modulo a; dividing by g, the cofactor of g,
    reduced mod k, is h'.  A turn of the loop takes two quotients, the first added and
    the second subtracted.  The cofactors of x and y are -u and +v, so u
    and v hold magnitudes only; whether x or y reaches 0 first tells which
    of them holds g, the sign of its cofactor and the parity of r.
    """
    x, y = a, b % a
    if not y:
        return 0, 1, 0
    b_mod_a = y
    u, v = 0, 1
    alternating = 0
    depth = 0
    while True:
        q, x = divmod(x, y)
        alternating += q
        u += q * v
        depth += 1
        if not x:
            g, inverse, tail = y, v, 3
            break
        q, y = divmod(y, x)
        alternating -= q
        v += q * u
        depth += 1
        if not y:
            g, inverse, tail = x, -u, 1
            break
    k = a // g
    return k * (alternating - tail) + b_mod_a // g + inverse % k, k, depth
