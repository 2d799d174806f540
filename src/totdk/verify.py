"""Bulk range verification with machine-readable, deterministic reports.

A suite maps each n of a range to a list of exact identity checks:

  spence    the formula itself: brute-force rank-weighted sum vs closed form
  chain     all links of the proof chain (see spence.verify_chain)
  dedekind  fast evaluator vs naive O(a) oracle, for a = n and b = 1..range end
  all       chain + dedekind

Ranges may be sharded across worker processes; shards are contiguous and
merged in ascending order, so the report content is identical for any
worker count.  JSON and CSV renderings carry no timing data for the same
reason: byte-identical reports are the contract, and wall-clock time is
reported separately (human format and stderr).
"""

from __future__ import annotations

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


def check_spence(n: int, sieve: Sieve | None = None) -> list[IdentityResult]:
    """Single exact check of the formula at n (brute force vs closed form)."""
    lhs = Fraction(sum_j_aj_bruteforce(n, sieve=sieve))
    rhs = Fraction(spence_closed_form(n, sieve=sieve))
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


def _suite_failures(
    suite: str, n: int, sieve: Sieve | None, b_max: int
) -> list[IdentityResult]:
    if suite == "spence":
        results = check_spence(n, sieve)
    elif suite == "chain":
        results = verify_chain(n, sieve=sieve)
    elif suite == "dedekind":
        results = check_dedekind(n, b_max)
    elif suite == "all":
        results = verify_chain(n, sieve=sieve) + check_dedekind(n, b_max)
    else:
        raise DomainError(f"unknown suite: {suite}")
    return [r for r in results if not r.matched]


def _run_shard(args: tuple) -> tuple[int, list[IdentityResult]]:
    suite, start, end, b_max = args
    sieve = Sieve(end) if suite in ("spence", "chain", "all") else None
    failures: list[IdentityResult] = []
    for n in range(start, end + 1):
        failures.extend(_suite_failures(suite, n, sieve, b_max))
    return end - start + 1, failures


def run_suite(
    suite: str, start: int, end: int, *, workers: int = 1
) -> VerificationReport:
    """Run `suite` over [start, end], sharding across `workers` processes.

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
    shards = _split_range(start, end, workers)
    jobs = [(suite, s, e, end) for s, e in shards]
    if workers == 1 or len(jobs) == 1:
        outcomes = [_run_shard(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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


def _split_range(start: int, end: int, parts: int) -> list[tuple[int, int]]:
    """Contiguous, ascending, near-equal shards covering [start, end]."""
    total = end - start + 1
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    shards = []
    lo = start
    for i in range(parts):
        hi = lo + base - 1 + (1 if i < extra else 0)
        shards.append((lo, hi))
        lo = hi + 1
    return shards
