"""The distinct primes of n and the arithmetic the identity chain reads from them.

The chain needs no prime exponent, so `distinct_primes` is the package's only
factorization: one loop divides the primes out of n, reading each from the
smallest-prime-factor table of the open `with Sieve(limit):` scope while that
covers the cofactor, else by trial division.  `Sieve` is internal:
`verify._run_shard` opens one scope per shard.  From the primes follow the
totatives as an int64 array and the square-free divisors with their Moebius
weights, listed by prime bitmask.  The totatives are built from those of the
radical m = rad(n): its reduced residues, sieved over the odd numbers only
when n is even, tiled n/m times by m.

This is the package's one numpy module.  Every sum over the totatives is
taken here, by the residue kernels, in int64 arithmetic (int32 for the
theta/nu divmod) that the bound of `coprime_residues` keeps exact (see
ENUMERATION_BOUND); `totdk.spence` passes them the array and reads back
Python ints, nu's sum as a numerator over n, which every square-free divisor
of n divides.  numpy is imported only inside the functions that build
arrays: `coprime_residues` (after its bound check), `Sieve`, the rank
vector's first build and the theta/nu divmod.  Importing this module,
calling `distinct_primes` or `squarefree_divisors_from`, and a call that a
bound refuses leave numpy unloaded.
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
    covers the cofactor, else it is the next trial divisor (2, 3, then 6k+-1)
    that divides the cofactor, or the cofactor itself once p*p exceeds it.
    A trial divisor past _TRIAL_DIVISION_CAP with p*p <= cofactor raises
    ResourceLimitError instead, so whether n factors depends on n alone."""
    n = operator.index(n)
    if n < 1:
        raise DomainError(f"requires n >= 1, got {n}")
    spf = _open_table.get()
    primes, p, step = [], 2, 1
    while n > 1:
        if n < len(spf):
            p = spf[n]
        else:
            while p * p <= n and n % p and p <= _TRIAL_DIVISION_CAP:
                p += step
                step = 2 if p <= 5 else 6 - step  # 2, 3, 5, 7, 11, 13, ...
            if p * p > n:
                p = n
            elif p > _TRIAL_DIVISION_CAP:
                raise ResourceLimitError(
                    f"trial division bound exceeded: cofactor {n} has no prime factor"
                    f" <= {_TRIAL_DIVISION_CAP}"
                )
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


def coprime_residues(n: int) -> np.ndarray:
    """Ascending int64 array of the totatives of n ((1,) for n = 1).

    Whether a is prime to n depends only on a mod m, m = rad(n), so the
    reduced residues of m are sieved and then tiled: U(n) is U(m) + m*k for
    k = 0, ..., n/m - 1.  An odd m has multiples of its primes struck from
    [0, m]; an even m, whose residues are all odd, sieves only the odd
    numbers of [1, m], mask index i standing for 2i + 1.
    """
    n = operator.index(n)
    if n < 1:
        raise DomainError(f"totatives require n >= 1, got {n}")
    if n > ENUMERATION_BOUND:
        raise ResourceLimitError(
            f"totative enumeration bound exceeded: n={n} > {ENUMERATION_BOUND}"
        )
    import numpy as np

    primes = distinct_primes(n)
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


def _sum_j_aj(residues: np.ndarray) -> int:
    global _ranks
    length = len(residues)
    ranks = _ranks
    if ranks is None or len(ranks) < length:
        import numpy as np

        size = 1 << (length - 1).bit_length()
        ranks = np.arange(1, size + 1, dtype=np.int64)
        ranks.flags.writeable = False
        _ranks = ranks
    return int(ranks[:length] @ residues)


# Elements of one divmod block in _theta_nu_sums, which holds
# max(1, _BLOCK_ELEMENTS // phi(n)) divisor rows: a small n takes all of its
# rows in one numpy call; once phi(n) > _BLOCK_ELEMENTS a block is one row,
# the size a per-divisor loop would use.
_BLOCK_ELEMENTS = 1 << 16


def _theta_nu_sums(residues: np.ndarray, pairs: list[tuple[int, int]], n: int) -> tuple[int, int]:
    """(sum(theta(n, a) * a), n * sum(nu(n, a) * a)) over U(n), from the
    square-free divisors of n with their Moebius weights, `pairs`.

    floor(a/d) and a mod d come from one int32 divmod over a block of divisor
    rows, exact since n < 2**31, then two mat-vec products against the int64
    residues, which promote them to int64; the Moebius weights, and n/d, which
    puts frac(a/d) = (a mod d)/d over n, which every d divides, apply in
    Python ints.
    """
    import numpy as np

    # numpy's int64 divmod costs about 3x its int32 divmod per element.
    narrow = residues.astype(np.int32)
    ds = np.array([d for d, _ in pairs], dtype=np.int32)
    rows = max(1, _BLOCK_ELEMENTS // max(len(residues), 1))
    theta_weighted = nu_numerator = 0
    for lo in range(0, len(pairs), rows):
        floors, rems = np.divmod(narrow, ds[lo : lo + rows, None])
        for (d, mu), f, r in zip(
            pairs[lo : lo + rows], (floors @ residues).tolist(), (rems @ residues).tolist()
        ):
            theta_weighted += mu * f
            nu_numerator += mu * (n // d) * r
    return theta_weighted, nu_numerator


def _sum_squares(residues: np.ndarray) -> int:
    return int(residues @ residues)


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

        spf = np.arange(limit + 1)
        # Descending p, so the smallest prime factor of j is the last write to spf[j].
        for p in range(math.isqrt(limit), 1, -1):
            spf[p * p :: p] = p
        self._spf = spf.tolist()

    def __enter__(self) -> Sieve:
        self._token = _open_table.set(self._spf)
        return self

    def __exit__(self, *exc_info) -> None:
        _open_table.reset(self._token)
