"""Benchmark harness: naive O(a) Dedekind sums vs the O(log a) evaluator.

Pair generation uses an explicit 64-bit linear congruential generator,

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2**64

seeded directly from --seed, with each of b and a drawn as
1 + state mod max_a.  The generator is spelled out so benchmark inputs are
reproducible from the seed alone, independent of any library RNG.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from typing import Iterator

from .dedekind import NAIVE_BOUND, _closed_form, dedekind_fast, dedekind_naive
from .errors import DomainError

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
LCG_MASK = (1 << 64) - 1

# Most pairs one run may draw: every pair and row is held in memory before
# anything prints, so a larger count would exhaust memory instead of exiting.
_MAX_PAIRS = 100_000

@dataclass(frozen=True)
class BenchRow:
    b: int
    a: int
    naive_seconds: float
    fast_seconds: float
    depth: int
    equal: bool


def lcg_states(seed: int) -> Iterator[int]:
    """The raw 64-bit LCG state sequence for a given seed."""
    state = seed & LCG_MASK
    while True:
        state = (LCG_MULTIPLIER * state + LCG_INCREMENT) & LCG_MASK
        yield state


def generate_pairs(count: int, max_a: int, seed: int) -> list[tuple[int, int]]:
    """Deterministic (b, a) pairs with 1 <= b, a <= max_a.

    Each value is drawn from one 64-bit state, so max_a may not exceed 2**64.
    """
    count, max_a, seed = operator.index(count), operator.index(max_a), operator.index(seed)
    if not 1 <= count <= _MAX_PAIRS or not 1 <= max_a <= 1 << 64:
        raise DomainError(
            f"need 1 <= count <= {_MAX_PAIRS} and 1 <= max_a <= 2**64, got ({count}, {max_a})"
        )
    states = lcg_states(seed)
    return [(1 + next(states) % max_a, 1 + next(states) % max_a) for _ in range(count)]


def depth_ceiling(max_a: int) -> int:
    """Most Euclid steps, the depth `_closed_form` reports, over pairs with a <= max_a.

    Lame's bound: a reduced pair 0 < h < k whose Euclidean algorithm takes
    r steps has k >= F(r + 2), with F(1) = F(2) = 1, and consecutive
    Fibonacci numbers reach it.  So the ceiling is the largest r with
    F(r + 2) <= max_a, found in integers (0 when max_a < 2).
    """
    depth, lo, hi = 0, 1, 2  # hi = F(depth + 3)
    while hi <= max_a:
        depth, lo, hi = depth + 1, hi, lo + hi
    return depth


def run_bench(count: int, max_a: int, seed: int) -> list[BenchRow]:
    """Time both evaluators on `count` generated pairs and compare values."""
    if max_a > NAIVE_BOUND:
        raise DomainError(f"max_a={max_a} exceeds the naive bound {NAIVE_BOUND}")
    rows = []
    for b, a in generate_pairs(count, max_a, seed):
        t0 = time.perf_counter()
        slow = dedekind_naive(b, a)
        t1 = time.perf_counter()
        fast = dedekind_fast(b, a)
        t2 = time.perf_counter()
        rows.append(
            BenchRow(
                b=b,
                a=a,
                naive_seconds=t1 - t0,
                fast_seconds=t2 - t1,
                depth=_closed_form(b, a)[2],
                equal=fast == slow,
            )
        )
    return rows


def format_table(rows: list[BenchRow], max_a: int) -> str:
    """Human-readable per-call table plus depth/timing summary lines."""
    header = f"{'b':>12} {'a':>12} {'naive_ms':>12} {'fast_ms':>10} {'ratio':>10} {'depth':>5} {'equal':>5}"
    lines = [header, "-" * len(header)]
    for r in rows:
        ratio = r.naive_seconds / r.fast_seconds if r.fast_seconds > 0 else float("inf")
        lines.append(
            f"{r.b:>12} {r.a:>12} {r.naive_seconds * 1e3:>12.3f} "
            f"{r.fast_seconds * 1e3:>10.4f} {ratio:>10.1f} {r.depth:>5} "
            f"{'yes' if r.equal else 'NO':>5}"
        )
    depths = sorted(r.depth for r in rows)
    mid = depths[len(depths) // 2]
    lines.append(
        f"depth: min={depths[0]} median={mid} max={depths[-1]} "
        f"(Euclidean ceiling for max_a={max_a}: {depth_ceiling(max_a)})"
    )
    naive_total = sum(r.naive_seconds for r in rows)
    fast_total = sum(r.fast_seconds for r in rows)
    lines.append(
        f"totals: naive={naive_total * 1e3:.3f}ms fast={fast_total * 1e3:.3f}ms "
        f"pairs={len(rows)} mismatches={sum(not r.equal for r in rows)}"
    )
    return "\n".join(lines) + "\n"
