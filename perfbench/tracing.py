"""Span tracing at totdk's module boundaries, installed from outside the package.

The tracer replaces the names one module calls in another (for example the
`coprime_residues` that `totdk.spence` imported from `totdk.arith`) with
wrappers that record a span per call: id, parent id, name, start, end and,
for a few boundaries, the arguments a count is derived from.  Nothing under
`src/` is edited; `uninstall` puts every original back.

Pool workers are forked while a traced `run_suite` is open, so they inherit
the wrappers.  Each worker spools the spans of a shard to a file when the
shard ends, and the parent merges them with `collect_workers`.  Clocks agree
across processes because `time.perf_counter` reads the monotonic clock.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import marshal
import math
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

# Span record layout: (id, parent id, name, start, end, info).
ID, PARENT, NAME, START, END, INFO = range(6)


def _args(args, result):
    return args


def _naive_terms(args, result):
    return args[1]


def _residues(args, result):
    return (args[0], len(result))


# (module, attribute, span name, info): each attribute is a name the module
# looks up at call time, so replacing it intercepts exactly the calls that
# module makes across the boundary.
BOUNDARIES = (
    ("totdk.cli", "run_suite", "verify.run_suite", None),
    ("totdk.verify", "Sieve", "arith.sieve", None),
    ("totdk.verify", "sum_j_aj_bruteforce", "spence.bruteforce", None),
    ("totdk.verify", "spence_closed_form", "spence.closed_form", None),
    ("totdk.verify", "verify_chain", "spence.chain", None),
    ("totdk.verify", "dedekind_fast", "dedekind.fast", _args),
    ("totdk.verify", "dedekind_naive", "dedekind.naive", _naive_terms),
    ("totdk.spence", "coprime_residues", "arith.residues", _residues),
    ("totdk.spence", "s_double_sum", "spence.s_double_sum", None),
    ("totdk.spence", "dedekind_fast", "dedekind.fast", _args),
    ("totdk.dedekind", "dedekind_fast", "dedekind.fast", _args),
    ("totdk.bench", "generate_pairs", "bench.pairs", None),
)


class Tracer:
    """In-memory span recorder for one benchmark process and its forked workers."""

    def __init__(self, spool_dir: Path):
        self.pid = os.getpid()
        self.spool_dir = spool_dir
        self.spans: list[tuple] = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, info=None):
        """Return fn wrapped so each call records a span called `name`."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append(
                (sid, parent, name, start, end, info(args, result) if info else None)
            )
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for module_name, attr, name, info in BOUNDARIES:
            module = importlib.import_module(module_name)
            self._replace(module, attr, self.wrap(name, getattr(module, attr), info))
        verify = importlib.import_module("totdk.verify")
        self._replace(verify, "_run_shard", self._shard_entry(verify._run_shard))
        report = verify.VerificationReport
        self._replace(report, "render", self.wrap("verify.render", report.render))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _shard_entry(self, run_shard):
        """Shard wrapper that keeps the original's module and name, so that the
        pool pickles it by reference and a forked worker resolves it to this
        same wrapper; in a worker it spools the shard's spans to a file."""
        traced = self.wrap("verify.shard", run_shard)

        @functools.wraps(run_shard)
        def entry(job):
            worker = os.getpid() != self.pid
            if worker:
                self.spans.clear()
                self._ids = itertools.count((os.getpid() << 32) + 1)
            result = traced(job)
            if worker:
                path = self.spool_dir / f"{os.getpid()}-{job[1]}.marshal"
                with open(path, "wb") as fh:
                    marshal.dump(self.spans, fh)
                self.spans.clear()
            return result

        return entry

    def collect_workers(self) -> None:
        """Merge the spans spooled by pool workers into this process's list."""
        for path in sorted(self.spool_dir.glob("*.marshal")):
            with open(path, "rb") as fh:
                self.spans.extend(marshal.load(fh))
            path.unlink()

    def take(self) -> list[tuple]:
        """Remove and return every span recorded so far."""
        out = list(self.spans)
        self.spans.clear()
        return out


def euclid_depth(b: int, a: int) -> int:
    """Reciprocity steps of s(b, a): Euclid's length after gcd scaling and b mod a."""
    g = math.gcd(b, a)
    a //= g
    b = (b // g) % a
    depth = 0
    while b:
        a, b = b, a % b
        depth += 1
    return depth


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def pass_layers(spans: list[tuple]) -> tuple[dict, dict, list[float]]:
    """Per-layer times and counts of one traced pass.

    Returns (times in seconds, exact counts, dedekind.fast call durations).
    Self time is a span's duration minus the part its child spans cover.
    """
    by_name: dict[str, list[tuple]] = defaultdict(list)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
        children[s[PARENT]].append((s[START], s[END]))

    def total(name: str) -> float:
        return span_seconds(by_name[name])

    def self_total(name: str) -> float:
        return sum(
            s[END] - s[START] - _covered(children.get(s[ID], []), s[START], s[END])
            for s in by_name[name]
        )

    residues = [s[INFO] for s in by_name["arith.residues"]]
    fast = by_name["dedekind.fast"]
    depths = [euclid_depth(*s[INFO]) for s in fast]
    shards = [s[END] - s[START] for s in by_name["verify.shard"]]
    suites = by_name["verify.run_suite"]
    shard_max = max(shards, default=0.0)
    shard_mean = statistics.fmean(shards) if shards else 0.0
    times = {
        "arith.residues_s": total("arith.residues"),
        "arith.sieve_s": total("arith.sieve"),
        "spence.bruteforce_s": total("spence.bruteforce"),
        "spence.bruteforce_self_s": self_total("spence.bruteforce"),
        "spence.closed_form_s": total("spence.closed_form"),
        "spence.chain_s": total("spence.chain"),
        "spence.chain_self_s": self_total("spence.chain"),
        "spence.s_double_sum_s": total("spence.s_double_sum"),
        "spence.s_double_sum_self_s": self_total("spence.s_double_sum"),
        "dedekind.fast_s": total("dedekind.fast"),
        "dedekind.naive_s": total("dedekind.naive"),
        "verify.shard_s.max": shard_max,
        "verify.shard_s.mean": shard_mean,
        "verify.shard_skew": shard_max / shard_mean if shard_mean else 0.0,
        "verify.pool_overhead_s": span_seconds(suites) - shard_max if suites else 0.0,
        "verify.render_s": total("verify.render"),
    }
    counts = {f"{name}_calls": len(group) for name, group in sorted(by_name.items())}
    counts.update(
        {
            "arith.residues_elems": sum(k for _, k in residues),
            "arith.residues_bytes": sum(n + 8 * k for n, k in residues),
            "dedekind.naive_terms": sum(s[INFO] for s in by_name["dedekind.naive"]),
            "dedekind.depth_mean": sum(depths) / len(depths) if depths else 0.0,
            "dedekind.depth_max": max(depths, default=0),
            "verify.shards": len(shards),
        }
    )
    return times, counts, [s[END] - s[START] for s in fast]


def span_seconds(spans) -> float:
    return sum(s[END] - s[START] for s in spans)


def write_spans(path: Path, spans: list[tuple]) -> None:
    """Write spans as JSON rows [id, parent, name index, start_ns, end_ns],
    times relative to the earliest start."""
    names = sorted({s[NAME] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = min((s[START] for s in spans), default=0.0)
    def ns(t: float) -> int:
        return round((t - t0) * 1e9)

    rows = [[s[ID], s[PARENT], index[s[NAME]], ns(s[START]), ns(s[END])] for s in spans]
    payload = {"columns": ["id", "parent", "name", "start_ns", "end_ns"], "names": names}
    with open(path, "w") as fh:
        json.dump({**payload, "spans": rows}, fh, separators=(",", ":"))


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for an empty list)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]
