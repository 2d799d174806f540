"""Benchmark harness: naive O(a) Dedekind sums vs the O(log a) evaluator.

Pair generation uses an explicit 64-bit linear congruential generator,

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2**64

seeded directly from --seed, with each of b and a drawn as
1 + state mod max_a.  The generator is spelled out so benchmark inputs are
reproducible from the seed alone, independent of any library RNG.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .dedekind import NAIVE_BOUND, dedekind_fast_with_depth, dedekind_naive
from .errors import DomainError

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
LCG_MASK = (1 << 64) - 1

#: Golden ratio, for the Euclidean step-count ceiling.
_PHI = (1 + math.sqrt(5)) / 2


@dataclass(frozen=True)
class BenchRow:
    b: int
    a: int
    value: Fraction
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
    if count < 1 or not 1 <= max_a <= 1 << 64:
        raise DomainError(
            f"need count >= 1 and 1 <= max_a <= 2**64, got ({count}, {max_a})"
        )
    states = lcg_states(seed)
    return [(1 + next(states) % max_a, 1 + next(states) % max_a) for _ in range(count)]


def depth_ceiling(max_a: int) -> int:
    """Euclidean step-count bound used to sanity-check measured depths."""
    return int(2 * math.log(max(max_a, 2), _PHI)) + 2


def run_bench(count: int, max_a: int, seed: int) -> list[BenchRow]:
    """Time both evaluators on `count` generated pairs and compare values."""
    if max_a > NAIVE_BOUND:
        raise DomainError(f"max_a={max_a} exceeds the naive bound {NAIVE_BOUND}")
    rows = []
    for b, a in generate_pairs(count, max_a, seed):
        t0 = time.perf_counter()
        slow = dedekind_naive(b, a)
        t1 = time.perf_counter()
        fast, depth = dedekind_fast_with_depth(b, a)
        t2 = time.perf_counter()
        rows.append(
            BenchRow(
                b=b,
                a=a,
                value=fast,
                naive_seconds=t1 - t0,
                fast_seconds=t2 - t1,
                depth=depth,
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
