"""Bulk range verification with machine-readable, deterministic reports.

A suite maps each n of a range to a list of exact identity checks, all run
for one n by `_suite_failures`:

  spence    the formula itself: rank-weighted sum over U(rad n), tiled, vs closed form
  chain     all links of the proof chain (see spence.verify_chain)
  dedekind  fast evaluator vs naive O(a) oracle, for a = n and b = 1..range end

Ranges may be sharded across worker processes.  Blocks of six consecutive n
are dealt round-robin to the shards, and the shards' failures are merged by a
stable sort on n; each n lives in one shard, so the report content is
identical for any worker count.  `VerificationReport.render(fmt)` writes all
of a report's text.  Every format reads only the suite, the range, `checked`
and the failures, never timing: all three are byte-identical for any worker
count, and wall-clock time goes to the CLI's stderr summary.
`_run_shard` opens the package's one `with Sieve(end):` scope, once per shard
that factorizes.

A one-shard run checks its range in this process and never imports
`multiprocessing` or `concurrent.futures`; only a run of more than one shard
loads them and forks a pool.  A pool worker that dies raises
`ResourceLimitError("worker process died: ...")`, after the other workers
are stopped.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import operator
import os
from dataclasses import dataclass
from fractions import Fraction

from .arith import ENUMERATION_BOUND, Sieve
from .dedekind import NAIVE_BOUND, dedekind_fast, dedekind_naive
from .errors import DomainError, InvariantViolation, ResourceLimitError
from .spence import (
    IdentityResult,
    _closed_forms,
    spence_closed_form,
    sum_j_aj_bruteforce,
    verify_chain,
)

SUITES = ("spence", "chain", "dedekind")

# Shards are dealt blocks of this many consecutive n.  The cost of n varies
# with n mod 2 and n mod 3 (through phi(n)/n and the squarefree-divisor count),
# and a block of six holds each of those classes once, so every shard gets the
# same mix.  Dealing single n would put every even n in one shard at 2
# workers: simulated from measured per-n costs, its chain skew reached 1.14-1.25.
_BLOCK = 6

#: A failure row's columns: its keys in JSON and the CSV header.
_COLUMNS = ("n", "identity", "lhs", "rhs", "matched")


@dataclass
class VerificationReport:
    """Outcome of one range verification run."""

    suite: str
    range_start: int
    range_end: int
    checked: int
    failures: list[IdentityResult]

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self, fmt: str) -> str:
        """The report as "json", "csv" or "human"."""
        rows = [(f.n, f.identity, str(f.lhs), str(f.rhs), f.matched) for f in self.failures]
        if fmt == "json":
            payload = {
                "suite": self.suite,
                "range_start": self.range_start,
                "range_end": self.range_end,
                "checked": self.checked,
                "failures": [dict(zip(_COLUMNS, row)) for row in rows],
                "config": {
                    "suite": self.suite,
                    "from": self.range_start,
                    "to": self.range_end,
                    "b_max": self.range_end,
                    "naive_bound": NAIVE_BOUND,
                    "enumeration_bound": ENUMERATION_BOUND,
                },
            }
            return json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if fmt == "csv":
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerows([_COLUMNS, *rows])
            return out.getvalue()
        if fmt == "human":
            lines = [
                f"suite={self.suite} range=[{self.range_start}, {self.range_end}] "
                f"checked={self.checked} failures={len(rows)}"
            ]
            lines += [
                f"  FAIL n={n} {name}: lhs={lhs} rhs={rhs}" for n, name, lhs, rhs, _ in rows
            ]
            if not rows:
                lines.append("  all checks passed")
            return "\n".join(lines) + "\n"
        raise DomainError(f"unknown format: {fmt}")


def _suite_failures(suite: str, n: int, b_max: int) -> list[IdentityResult]:
    """The checks of `suite` that fail at n, over b = 1..b_max in the dedekind
    suite.  run_suite rejects an unknown suite before any shard starts, so
    `suite` is not checked again here."""
    if suite == "spence":
        lhs = sum_j_aj_bruteforce(n)
        try:
            rhs = spence_closed_form(n)
        except InvariantViolation:  # a closed form that is no integer fails the row
            rhs = Fraction(_closed_forms(n)[1], 24)
        if lhs == rhs:
            return []
        return [IdentityResult(n, "spence_formula", Fraction(lhs), Fraction(rhs), False)]
    if suite == "chain":
        return [r for r in verify_chain(n) if not r.matched]
    failures = []  # the dedekind suite
    for b in range(1, b_max + 1):
        fast, slow = dedekind_fast(b, n), dedekind_naive(b, n)
        if fast != slow:
            failures.append(IdentityResult(n, f"dedekind_fast_vs_naive(b={b})", fast, slow, False))
    return failures


def _run_shard(args: tuple) -> tuple[int, list[IdentityResult]]:
    """Check the blocks of _BLOCK n that start at first, first + stride, ... <= end."""
    suite, first, end, stride = args
    checked, failures = 0, []
    with Sieve(end) if suite != "dedekind" else contextlib.nullcontext():
        for lo in range(first, end + 1, stride):
            for n in range(lo, min(lo + _BLOCK, end + 1)):
                failures.extend(_suite_failures(suite, n, end))
                checked += 1
    return checked, failures


def run_suite(
    suite: str, start: int, end: int, *, workers: int = 1
) -> VerificationReport:
    """Run `suite` over [start, end], sharding across at most `workers` processes.

    The dedekind suite checks b = 1..end for every a = n, so a [1, B] run
    covers the full B x B fast-vs-naive grid.
    """
    if suite not in SUITES:
        raise DomainError(f"unknown suite: {suite} (expected one of {SUITES})")
    start, end, workers = operator.index(start), operator.index(end), operator.index(workers)
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

    shards = min(workers, -(-(end - start + 1) // _BLOCK))
    jobs = [(suite, start + _BLOCK * i, end, _BLOCK * shards) for i in range(shards)]
    if shards == 1:
        outcomes = [_run_shard(jobs[0])]
    else:
        # Imported here, so that a one-shard run never loads the pool's modules.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        older = set(multiprocessing.active_children())
        # Fork starts all max_workers on the first submit, so never more than the
        # CPUs this process may run on (its affinity, not the host's count).
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        with ProcessPoolExecutor(max_workers=min(shards, cpus)) as pool:
            try:
                outcomes = list(pool.map(_run_shard, jobs))
            except BaseException as exc:
                # Leaving the block would wait for every running shard, even on
                # Ctrl-C: stop the pool's workers, then drop the queued shards.
                # Waiting joins the pool's manager thread, which would otherwise
                # race Python 3.11's exit hook and print an OSError traceback.
                for worker in set(multiprocessing.active_children()) - older:
                    worker.terminate()
                pool.shutdown(wait=True, cancel_futures=True)
                if isinstance(exc, BrokenProcessPool):
                    raise ResourceLimitError(f"worker process died: {exc}") from exc
                raise

    checked = sum(c for c, _ in outcomes)
    failures = sorted((f for _, fs in outcomes for f in fs), key=lambda f: f.n)
    return VerificationReport(suite, start, end, checked, failures)
