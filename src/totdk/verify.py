"""Bulk range verification with machine-readable, deterministic reports.

A suite maps each n of a range to a list of exact identity checks:

  spence    the formula itself: brute-force rank-weighted sum vs closed form
  chain     all links of the proof chain (see spence.verify_chain)
  dedekind  fast evaluator vs naive O(a) oracle, for a = n and b = 1..range end
  all       chain + dedekind

Ranges may be sharded across worker processes, one process per shard.
Shards are contiguous, cut at equal estimated cost (the cost of n grows with
n, so higher shards hold fewer n), and merged in ascending order, so the
report content is identical for any worker count.  JSON and CSV renderings
carry no timing data for the same reason: byte-identical reports are the
contract, and wall-clock time is reported separately (human format and
stderr).  Shards that factorize run inside one `with Sieve(end):` scope each.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import ENUMERATION_BOUND, Sieve
from .dedekind import NAIVE_BOUND, dedekind_fast, dedekind_naive
from .errors import DomainError
from .spence import IdentityResult, spence_closed_form, sum_j_aj_bruteforce, verify_chain

SUITES = ("spence", "chain", "dedekind", "all")


@dataclass
class VerificationReport:
    """Outcome of one range verification run."""

    suite: str
    range_start: int
    range_end: int
    checked: int
    failures: list[IdentityResult]
    elapsed_ms: float
    config: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "range_start": self.range_start,
            "range_end": self.range_end,
            "checked": self.checked,
            "failures": [f.to_dict() for f in self.failures],
            "config": self.config,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "identity", "lhs", "rhs", "matched"])
        for f in self.failures:
            d = f.to_dict()
            writer.writerow([d["n"], d["identity"], d["lhs"], d["rhs"], d["matched"]])
        return out.getvalue()

    def to_human(self) -> str:
        lines = [
            f"suite={self.suite} range=[{self.range_start}, {self.range_end}] "
            f"checked={self.checked} failures={len(self.failures)} "
            f"elapsed={self.elapsed_ms:.1f}ms"
        ]
        for f in self.failures:
            d = f.to_dict()
            lines.append(
                f"  FAIL n={d['n']} {d['identity']}: lhs={d['lhs']} rhs={d['rhs']}"
            )
        if not self.failures:
            lines.append("  all checks passed")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "human":
            return self.to_human()
        raise DomainError(f"unknown format: {fmt}")


def check_spence(n: int) -> list[IdentityResult]:
    """Single exact check of the formula at n (brute force vs closed form)."""
    lhs = Fraction(sum_j_aj_bruteforce(n))
    rhs = Fraction(spence_closed_form(n))
    return [IdentityResult(n, "spence_formula", lhs, rhs, lhs == rhs)]


def check_dedekind(n: int, b_max: int) -> list[IdentityResult]:
    """Compare dedekind_fast(b, n) with dedekind_naive(b, n) for b = 1..b_max.

    Only mismatching pairs are materialized as results; a fully matching
    row returns [].
    """
    failures = []
    for b in range(1, b_max + 1):
        fast = dedekind_fast(b, n)
        slow = dedekind_naive(b, n)
        if fast != slow:
            failures.append(
                IdentityResult(n, f"dedekind_fast_vs_naive(b={b})", fast, slow, False)
            )
    return failures


def _suite_failures(suite: str, n: int, b_max: int) -> list[IdentityResult]:
    if suite == "spence":
        results = check_spence(n)
    elif suite == "chain":
        results = verify_chain(n)
    elif suite == "dedekind":
        results = check_dedekind(n, b_max)
    elif suite == "all":
        results = verify_chain(n) + check_dedekind(n, b_max)
    else:
        raise DomainError(f"unknown suite: {suite}")
    return [r for r in results if not r.matched]


def _run_shard(args: tuple) -> tuple[int, list[IdentityResult]]:
    suite, start, end, b_max = args
    failures: list[IdentityResult] = []
    with Sieve(end) if suite != "dedekind" else contextlib.nullcontext():
        for n in range(start, end + 1):
            failures.extend(_suite_failures(suite, n, b_max))
    return end - start + 1, failures


def run_suite(
    suite: str, start: int, end: int, *, workers: int = 1
) -> VerificationReport:
    """Run `suite` over [start, end], sharding across at most `workers` processes.

    The dedekind suites check b = 1..end for every a = n, so a [1, B] run
    covers the full B x B fast-vs-naive grid.
    """
    if suite not in SUITES:
        raise DomainError(f"unknown suite: {suite} (expected one of {SUITES})")
    min_start = 1 if suite == "dedekind" else 2
    if start < min_start or start > end:
        raise DomainError(
            f"invalid range [{start}, {end}]: need {min_start} <= start <= end"
        )
    bound = NAIVE_BOUND if suite == "dedekind" else ENUMERATION_BOUND
    if end > bound:
        raise DomainError(f"range end {end} exceeds the {suite} suite's bound {bound}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    config = {
        "suite": suite,
        "from": start,
        "to": end,
        "b_max": end,
        "naive_bound": NAIVE_BOUND,
        "enumeration_bound": ENUMERATION_BOUND,
    }

    t0 = time.perf_counter()
    shards = _split_range(suite, start, end, workers)
    jobs = [(suite, s, e, end) for s, e in shards]
    if len(jobs) == 1:
        outcomes = [_run_shard(j) for j in jobs]
    else:
        # One process per shard: fork starts all max_workers on the first submit.
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            outcomes = list(pool.map(_run_shard, jobs))
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    checked = sum(c for c, _ in outcomes)
    failures = [f for _, shard_failures in outcomes for f in shard_failures]
    return VerificationReport(
        suite=suite,
        range_start=start,
        range_end=end,
        checked=checked,
        failures=failures,
        elapsed_ms=elapsed_ms,
        config=config,
    )


# Modelled cost of one n is n + _COST_OFFSET[suite]: a fixed cost per n plus
# work linear in n.  Each offset is intercept / slope of a least-squares line
# through in-process CPU time per n, fitted on a 2-core Xeon (CPython 3.11,
# numpy 2.4): spence 8500-12000 over 500..91000; dedekind 20-45 per row, which
# costs b_max * (a + offset) with b_max the same for every row; `all` 18-49,
# because its dedekind row dominates.  Chain cost is concave in n (it follows
# the divisor count), so its fit grows with the range: 1000-1500 over 2..1200,
# 3500-8300 over 2..10^4; with 4000, two shards of either range stay within
# a skew of 1.12 under any offset in its interval.
_COST_OFFSET = {"spence": 10_000, "chain": 4_000, "dedekind": 30, "all": 30}


def _split_range(suite: str, start: int, end: int, parts: int) -> list[tuple[int, int]]:
    """Contiguous, ascending, non-empty shards covering [start, end], cut at
    equal modelled cost; there are min(parts, end - start + 1) of them."""
    offset = _COST_OFFSET[suite]

    def prefix_cost(k: int) -> int:  # modelled cost of start..k
        return (k - start + 1) * offset + (k * (k + 1) - (start - 1) * start) // 2

    ns = range(start, end + 1)
    parts = max(1, min(parts, len(ns)))
    total = prefix_cost(end)
    shards = []
    lo = start
    for i in range(1, parts):
        # Smallest k whose prefix reaches i/parts of the total, kept so that
        # every shard, this one and the parts - i after it, gets at least one n.
        k = ns[bisect.bisect_left(ns, i * total, key=lambda n: prefix_cost(n) * parts)]
        hi = min(max(k, lo), end - (parts - i))
        shards.append((lo, hi))
        lo = hi + 1
    shards.append((lo, end))
    return shards
