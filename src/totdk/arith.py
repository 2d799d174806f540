"""The distinct primes of n and the arithmetic the identity chain reads from them.

The chain needs no prime exponent, so `distinct_primes` is the package's only
factorization: one loop divides the primes out of n, reading each from the
smallest-prime-factor table of the open `with Sieve(limit):` scope (internal:
one per verify shard) while that covers the cofactor, else by trial division.
From the primes follow the square-free divisors with their Moebius weights,
listed by prime bitmask, and the totatives as an int64 array, built from those
of the radical m = rad(n): its reduced residues, sieved over the odd numbers
only when n is even, tiled n/m times by m.  Spence's sum(j * a_j) takes the
radical's alone and adds the n/m tiles in closed form.

This is the package's one numpy module.  Every sum over the totatives is
taken here, by the residue kernels, in int64 arithmetic (int32 for the
theta/nu divmod, whose d = 1 row also gives sum(a^2)) that the bound of
`coprime_residues` keeps exact (see ENUMERATION_BOUND); `totdk.spence` passes
them the array and reads back Python ints, nu's sum as a numerator over n,
which every square-free divisor of n divides.  numpy is imported only inside
the functions that build arrays: `coprime_residues` (after its bound check),
`Sieve`, the rank vector's first build and the theta/nu divmod.  Importing
this module, calling `distinct_primes` or `squarefree_divisors_from`, and a
call that a bound refuses leave numpy unloaded.
"""

from __future__ import annotations

import contextvars
import math
import operator
from typing import TYPE_CHECKING, Sequence

from .errors import DomainError, ResourceLimitError

if TYPE_CHECKING:
    import numpy as np

#: Largest n for which totatives are enumerated brute force.  The cap doubles
#: as the exactness guarantee of the residue kernels below: every dot product
#: they take over the totatives of n is a sum of fewer than n terms, each below
#: n**2, so it stays under n**3 <= 8 * 10**18 < 2**63, and the theta/nu
#: divmod runs in int32, since every totative, divisor, floor and remainder
#: is at most n < 2**31.  It is therefore a constant, not a per-call argument.
ENUMERATION_BOUND = 2_000_000

# Largest trial divisor, so that every factorization ends; no n <= ENUMERATION_BOUND
# needs one above 1414.
_TRIAL_DIVISION_CAP = 10**7

# The table of the Sieve scope open in this thread or task; () when none is.
_open_table = contextvars.ContextVar("totdk_open_table", default=())


def distinct_primes(n: int) -> tuple[int, ...]:
    """Ascending distinct primes of n, () for n = 1.  One loop divides each
    prime out of the cofactor: the next is read from the open table while that
    covers the cofactor, else it is the next trial divisor d (2, 3, then
    6k+-1) that divides the cofactor, or the cofactor itself once d*d exceeds
    it.  A trial divisor past _TRIAL_DIVISION_CAP with d*d <= cofactor raises
    ResourceLimitError instead, so whether n factors depends on n alone."""
    n = operator.index(n)
    if n < 1:
        raise DomainError(f"requires n >= 1, got {n}")
    spf = _open_table.get()
    size = len(spf)
    primes, d, step = [], 2, 1
    while n > 1:
        if n < size:
            p = spf[n]
        else:
            while d * d <= n and n % d and d <= _TRIAL_DIVISION_CAP:
                d += step
                step = 2 if d <= 5 else 6 - step  # 2, 3, 5, 7, 11, 13, ...
            if d * d > n:
                p = n
            elif d > _TRIAL_DIVISION_CAP:
                raise ResourceLimitError(
                    f"trial division bound exceeded: cofactor {n} has no prime factor"
                    f" <= {_TRIAL_DIVISION_CAP}"
                )
            else:
                # p is divided out below, so the next search starts past it
                p = d
                d += step
                step = 2 if d <= 5 else 6 - step
        primes.append(p)
        while n % p == 0:
            n //= p
    return tuple(primes)


def squarefree_divisors_from(primes: Sequence[int]) -> list[tuple[int, int]]:
    """(d, moebius(d)) for the square-free divisors of the n with these distinct
    primes by prime bitmask: entry i is the product d of the primes at the set
    bits of i, with moebius(d) = (-1)^popcount(i), so d need not ascend."""
    divs = [(1, 1)]
    for p in primes:
        divs += [(d * p, -mu) for d, mu in divs]
    return divs


def _enumerable(n: int) -> int:
    n = operator.index(n)
    if n > ENUMERATION_BOUND:
        raise ResourceLimitError(
            f"totative enumeration bound exceeded: n={n} > {ENUMERATION_BOUND}"
        )
    return n


def coprime_residues(n: int) -> np.ndarray:
    """Ascending int64 array of the totatives of n ((1,) for n = 1).

    Whether a is prime to n depends only on a mod m, m = rad(n), so the
    reduced residues of m are sieved and then tiled: U(n) is U(m) + m*k for
    k = 0, ..., n/m - 1.  An odd m has multiples of its primes struck from
    [0, m]; an even m, whose residues are all odd, sieves only the odd
    numbers of [1, m], mask index i standing for 2i + 1.
    """
    primes = distinct_primes(_enumerable(n))  # raises DomainError for n < 1
    import numpy as np

    m = math.prod(primes)
    # empty + fill: np.ones' scalar copy costs about 1 us more per call.
    if m % 2:
        mask = np.empty(m + 1, dtype=bool)
        mask.fill(True)
        mask[0] = False
        for p in primes:
            mask[p::p] = False
        base = mask.nonzero()[0].astype(np.int64, copy=False)
    else:
        # The odd multiples p, 3p, 5p, ... of an odd prime p sit at p // 2 + k*p.
        mask = np.empty(m // 2, dtype=bool)
        mask.fill(True)
        for p in primes[1:]:
            mask[p // 2 :: p] = False
        base = mask.nonzero()[0].astype(np.int64, copy=False)
        base *= 2
        base += 1
    if n > m:
        return (np.arange(0, n, m, dtype=np.int64)[:, None] + base).ravel()
    return base


# Residue kernels: the sums over coprime_residues' array that totdk.spence reads.

# Read-only ranks 1, 2, 3, ... shared by every _sum_j_aj call.  A fresh arange
# per n, next to coprime_residues' own arrays, page-faults at large phi(n):
# about 20 minor faults per n for n near 30000, none with the shared vector.
# It is None until the first call builds it, so that importing this module
# loads no numpy; from then on it is an int64 vector, and even an empty
# residue array gets the int 0 from an int64 product.  The vector only grows,
# by doubling, and is swapped in one assignment, so a thread that read the
# old one still holds a valid vector.
_ranks = None


def _sum_j_aj(base: np.ndarray, m: int, tiles: int) -> int:
    """sum(j * a_j) over the ascending a_j = b_i + m*s (s < tiles) of residues
    b_1 < ... < b_f in [0, m); by the tiling lemma these are U(n) when base is
    U(m), m = rad(n), tiles = n/m.  Python ints add the tiles to J = sum(i*b_i):
    tiles*J + f*B*S1 + m*f^2*S2 + m*f(f+1)/2*S1, B = sum(b_i), S1 = sum(s), S2 = sum(s^2)."""
    global _ranks
    f = len(base)
    ranks = _ranks
    if ranks is None or len(ranks) < f:
        import numpy as np

        size = 1 << (f - 1).bit_length()
        ranks = np.arange(1, size + 1, dtype=np.int64)
        ranks.flags.writeable = False
        _ranks = ranks
    j_sum = int(ranks[:f] @ base)
    if tiles == 1:
        return j_sum
    s1, s2 = tiles * (tiles - 1) // 2, (tiles - 1) * tiles * (2 * tiles - 1) // 6
    tiled = f * int(base.sum()) * s1 + m * f * f * s2 + m * (f * (f + 1) // 2) * s1
    return tiles * j_sum + tiled


# Elements of one divmod block in _theta_nu_sums, which holds
# max(1, _BLOCK_ELEMENTS // phi(n)) divisor rows: a small n takes all of its
# rows in one numpy call; once phi(n) > _BLOCK_ELEMENTS a block is one row,
# the size a per-divisor loop would use.
_BLOCK_ELEMENTS = 1 << 16


def _theta_nu_sums(
    residues: np.ndarray, pairs: list[tuple[int, int]], n: int
) -> tuple[int, int, int]:
    """(sum(a^2), sum(theta(n, a) * a), n * sum(nu(n, a) * a)) over U(n), from
    `pairs`, the square-free divisors d of n with their Moebius weights mu.

    One int32 divmod over a block of divisor rows, exact since n < 2**31, gives
    floor(a/d) and a mod d; two mat-vec products with the int64 residues sum
    them times a, in int64.  pairs[0] is (1, 1), as in `squarefree_divisors_from`,
    so row 0's floor sum is sum(a^2).  Python ints weight row d by mu, and its
    remainder sum also by n/d, which puts frac(a/d) = (a mod d)/d over n.
    """
    import numpy as np

    # numpy's int64 divmod costs about 3x its int32 divmod per element.
    narrow = residues.astype(np.int32)
    ds = np.array([d for d, _ in pairs], dtype=np.int32)
    rows = max(1, _BLOCK_ELEMENTS // max(len(residues), 1))
    floor_sums, rem_sums = [], []
    for lo in range(0, len(pairs), rows):
        floors, rems = np.divmod(narrow, ds[lo : lo + rows, None])
        floor_sums += (floors @ residues).tolist()
        rem_sums += (rems @ residues).tolist()
    theta_weighted = sum(mu * f for (_, mu), f in zip(pairs, floor_sums))
    nu_numerator = sum(mu * (n // d) * r for (d, mu), r in zip(pairs, rem_sums))
    return floor_sums[0], theta_weighted, nu_numerator


class Sieve:
    """Smallest-prime-factor table over [0, limit], opened as a scope; the
    caller keeps limit <= ENUMERATION_BOUND, which `run_suite` checks first.

    Inside `with Sieve(limit):`, `distinct_primes(n)` reads the table in
    O(log n) for 1 <= n <= limit.  Like `decimal.localcontext`, the scope
    belongs to the current thread or task and closes even if the block raises;
    one Sieve is open in one scope at a time.
    """

    def __init__(self, limit: int):
        import numpy as np

        spf = np.arange(limit + 1, dtype=np.int32)  # limit <= ENUMERATION_BOUND < 2**31
        # Descending p, so the smallest prime factor of j is the last write to spf[j].
        for p in range(math.isqrt(limit), 1, -1):
            spf[p * p :: p] = p
        self._spf = spf.tolist()

    def __enter__(self) -> Sieve:
        self._token = _open_table.set(self._spf)
        return self

    def __exit__(self, *exc_info) -> None:
        _open_table.reset(self._token)
