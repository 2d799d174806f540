"""The benchmark's four workloads: inputs from a seed, one pass, and its check.

Each pass does the same work on the same inputs, so a run times many passes
and reports medians.  Every pass's output is checked outside its timed
region; `check` returns how many of the pass's items failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter


@dataclass(frozen=True)
class Sweep:
    """`totdk verify --suite SUITE --from START --to END`, called in-process
    through `totdk.cli.main`.  The range is fixed: the seed does not change it."""

    name: str
    why: str
    suite: str
    start: int
    end: int
    workers: int

    @property
    def per_pair(self) -> bool:
        # The dedekind suite checks every b = 1..END against each a = n.
        return self.suite == "dedekind"

    def build(self, totdk, seed: int) -> list[str]:
        bounds = ["--from", str(self.start), "--to", str(self.end)]
        return ["verify", "--suite", self.suite, *bounds, "--workers", str(self.workers),
                "--format", "json"]

    def items(self, argv) -> int:
        count = self.end - self.start + 1
        return count * self.end if self.per_pair else count

    def entry(self, totdk):
        return totdk.cli.main

    def run_pass(self, argv, main, latencies=None):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    def reference(self, totdk, argv, result) -> None:
        return None

    def check(self, argv, result, reference) -> int:
        """Items failed: the items the report's failures name, when the report
        covers the whole range and the exit code agrees with it (0 with no
        failures, 4 with some); otherwise every item."""
        code, out, _ = result
        try:
            report = json.loads(out)
        except ValueError:
            return self.items(argv)
        failures = report.get("failures")
        if report.get("checked") != self.end - self.start + 1 or not isinstance(failures, list):
            return self.items(argv)
        keys = {(f["n"], f["identity"] if self.per_pair else "") for f in failures}
        if (code, bool(keys)) in ((0, False), (4, True)):
            return len(keys)
        return self.items(argv)

    def expected_counts(self, argv) -> dict[str, int]:
        """Per-pass layer counts that follow from the range alone."""
        count = self.end - self.start + 1
        expected = {"verify.shards": self.workers, "verify.run_suite_calls": 1}
        if self.suite in ("spence", "chain"):
            expected["arith.residues_calls"] = count
            expected["arith.sieve_calls"] = self.workers
        if self.suite == "spence":
            expected["spence.bruteforce_calls"] = count
            expected["spence.closed_form_calls"] = count
        if self.suite == "chain":
            expected["spence.chain_calls"] = count
            expected["spence.s_double_sum_calls"] = count
        if self.per_pair:
            terms = sum(range(self.start, self.end + 1))
            expected["dedekind.fast_calls"] = count * self.end
            expected["dedekind.naive_calls"] = count * self.end
            expected["dedekind.naive_terms"] = terms * self.end
        return expected


#: Decimal digits of the moduli drawn for dedekind-deep, in equal shares.
DEEP_MAGNITUDES = (3, 6, 12, 25, 50, 100)

#: generate_pairs draws each value from one 64-bit LCG state, so a bound above
#: 2**64 does not raise the values; larger magnitudes join 18-digit draws.
_LIMB_DIGITS = 18

#: Pairs with a at most this are also checked against the naive O(a) oracle.
NAIVE_CHECK_MAX_A = 10**3


@dataclass(frozen=True)
class DedekindDeep:
    """`dedekind_fast(b, a)` on seeded pairs from `totdk.bench.generate_pairs`."""

    name: str
    why: str
    pairs_per_magnitude: int
    workers: int = 1

    def build(self, totdk, seed: int) -> list[tuple[int, int]]:
        count, pairs = self.pairs_per_magnitude, []
        for i, digits in enumerate(DEEP_MAGNITUDES):
            modulus, limb = 10**digits, 10 ** min(digits, _LIMB_DIGITS)
            joined = [(0, 0)] * count
            for j in range(-(-digits // _LIMB_DIGITS)):
                sub_seed = (seed * len(DEEP_MAGNITUDES) + i) * 8 + j
                draws = totdk.bench.generate_pairs(count, limb, sub_seed)
                joined = [(b * limb + db, a * limb + da) for (b, a), (db, da) in zip(joined, draws)]
            # With one limb this is the identity on [1, limb].
            pairs += [(1 + (b - 1) % modulus, 1 + (a - 1) % modulus) for b, a in joined]
        return pairs

    def items(self, pairs) -> int:
        return len(pairs)

    def entry(self, totdk):
        return totdk.dedekind.dedekind_fast

    def run_pass(self, pairs, fast, latencies=None):
        if latencies is None:
            return [fast(b, a) for b, a in pairs]
        values = []
        for b, a in pairs:
            # The clock pair costs well under 1% of the cheapest call here.
            t0 = perf_counter()
            values.append(fast(b, a))
            latencies.append(perf_counter() - t0)
        return values

    def reference(self, totdk, pairs, values) -> list[Fraction | None]:
        """Independent values: s(b*, a') with b' b* = 1 mod a' after dividing
        (b, a) by their gcd, which runs Euclid on another remainder sequence,
        and the naive oracle where a <= NAIVE_CHECK_MAX_A.  A pair whose two
        independent values disagree gets None, which no output can match."""
        fast, naive = totdk.dedekind.dedekind_fast, totdk.dedekind.dedekind_naive
        out: list[Fraction | None] = []
        for b, a in pairs:
            g = math.gcd(b, a)
            a_red = a // g
            inverse = pow(b // g, -1, a_red) if a_red > 1 else 0
            value = fast(inverse, a_red)
            if a <= NAIVE_CHECK_MAX_A and naive(b, a) != value:
                value = None
            out.append(value)
        return out

    def check(self, pairs, values, reference) -> int:
        if len(values) != len(reference):
            return len(reference)
        return sum(v != r for v, r in zip(values, reference))

    def expected_counts(self, pairs) -> dict[str, int]:
        return {"dedekind.fast_calls": len(pairs)}


WORKLOADS = {
    w.name: w
    for w in (
        Sweep(
            "spence-sweep",
            "the formula checked for every n, on 2 worker processes: totative "
            "enumeration and numpy dot products, and shard imbalance",
            "spence", 2, 30_000, workers=2,
        ),
        Sweep(
            "chain-sweep",
            "every link of the proof chain per n, one process: S(n) through "
            "many shallow dedekind_fast calls, Fractions and numpy reductions",
            "chain", 2, 1_200, workers=1,
        ),
        Sweep(
            "dedekind-grid",
            "fast evaluator against the naive O(a) oracle on a full small grid, "
            "the only workload that runs the naive oracle",
            "dedekind", 2, 150, workers=1,
        ),
        DedekindDeep(
            "dedekind-deep",
            "dedekind_fast alone on seeded big-integer pairs of 10^3 to 10^100, "
            "deep Euclid chains where the sweeps have shallow ones",
            pairs_per_magnitude=200,
        ),
    )
}
