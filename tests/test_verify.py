"""Range verification: suites, sharding determinism, report rendering."""

import collections
import contextlib
import dataclasses
import json
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import factorize
import totdk.spence
import totdk.verify
from totdk import (
    ENUMERATION_BOUND,
    NAIVE_BOUND,
    DomainError,
    IdentityResult,
    InvariantViolation,
    VerificationReport,
    run_suite,
)
from totdk.verify import SUITES

pool_sizes: list[int] = []


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records its size, runs jobs in this process."""

    def __init__(self, max_workers):
        pool_sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.fixture
def in_process_pool(monkeypatch):
    monkeypatch.setattr(totdk.verify, "ProcessPoolExecutor", InProcessPool)
    pool_sizes.clear()
    return pool_sizes


def test_suite_names():
    assert SUITES == ("spence", "chain", "dedekind")


def test_spence_suite_clean_range():
    report = run_suite("spence", 2, 60)
    assert report.ok
    assert report.checked == 59
    assert report.failures == []
    assert report.suite == "spence"
    assert (report.range_start, report.range_end) == (2, 60)
    # a report is a value of its inputs and results: it holds no timing
    assert [f.name for f in dataclasses.fields(report)] == [
        "suite", "range_start", "range_end", "checked", "failures"
    ]


def test_chain_suite_clean_range():
    report = run_suite("chain", 2, 40)
    assert report.ok
    assert report.checked == 39


def test_dedekind_suite_full_grid():
    # b_max defaults to the range end: [1, 25] covers the 25 x 25 grid
    report = run_suite("dedekind", 1, 25)
    assert report.ok
    assert report.checked == 25
    assert json.loads(report.render("json"))["config"]["b_max"] == 25


def test_config_block():
    config = json.loads(run_suite("spence", 2, 10).render("json"))["config"]
    assert config["suite"] == "spence"
    assert config["from"] == 2
    assert config["to"] == 10
    assert config["enumeration_bound"] == ENUMERATION_BOUND
    assert config["naive_bound"] == NAIVE_BOUND


@pytest.mark.parametrize(
    "suite,start,end",
    [
        ("nosuch", 2, 10),
        ("spence", 1, 10),  # closed forms reject n = 1
        ("spence", 5, 4),
        ("dedekind", 0, 10),
        ("spence", 2, ENUMERATION_BOUND + 1),
        ("chain", 2, ENUMERATION_BOUND + 1),
        ("dedekind", 2, NAIVE_BOUND + 1),  # rejected before the sweep starts
    ],
)
def test_run_suite_rejects_bad_arguments(suite, start, end):
    with pytest.raises(DomainError):
        run_suite(suite, start, end)


@pytest.mark.parametrize("suite", ["spence", "chain"])
def test_sieve_limit_above_the_enumeration_bound_is_refused_before_allocating(
    monkeypatch, suite
):
    # run_suite is the one check of the end each shard's Sieve(end) is built for
    def no_allocation(*args, **kwargs):
        raise AssertionError("the table was allocated")

    monkeypatch.setattr(np, "arange", no_allocation)
    with pytest.raises(DomainError, match=f"{suite} suite's bound {ENUMERATION_BOUND}"):
        run_suite(suite, 2, ENUMERATION_BOUND + 1)


def test_run_suite_accepts_a_range_that_ends_at_the_bound():
    # the one-n range at the enumeration bound, sieve included, costs about 0.3 s
    report = run_suite("spence", 2_000_000, 2_000_000)
    assert report.ok
    assert report.checked == 1


def test_run_suite_rejects_bad_workers():
    with pytest.raises(DomainError):
        run_suite("spence", 2, 10, workers=0)


def test_dedekind_suite_allows_unbounded_end():
    # the dedekind suite has no enumeration bound; only the naive cap applies
    report = run_suite("dedekind", 1, 8)
    assert report.ok


def test_reports_identical_across_worker_counts():
    solo = run_suite("chain", 2, 48, workers=1)
    trio = run_suite("chain", 2, 48, workers=3)
    for fmt in ("json", "csv", "human"):
        assert solo.render(fmt) == trio.render(fmt)
    assert solo.checked == trio.checked == 47


def test_spence_reports_identical_across_worker_counts():
    solo = run_suite("spence", 2, 80, workers=1)
    quad = run_suite("spence", 2, 80, workers=4)
    for fmt in ("json", "csv", "human"):
        assert solo.render(fmt) == quad.render(fmt)


def test_pool_has_one_process_per_shard(monkeypatch, in_process_pool):
    monkeypatch.setattr(totdk.verify.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    # 2..61 is ten blocks of six, more than the four CPUs
    trio = run_suite("spence", 2, 61, workers=3)
    assert in_process_pool == [3]
    assert trio.render("json") == run_suite("spence", 2, 61, workers=1).render("json")
    assert in_process_pool == [3]


def test_pool_never_has_more_processes_than_cpus(monkeypatch, in_process_pool):
    monkeypatch.setattr(totdk.verify.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    wide = run_suite("spence", 2, 601, workers=10**4)  # 100 shards of one block
    assert in_process_pool == [3]
    assert wide.checked == 600
    assert wide.render("json") == run_suite("spence", 2, 601, workers=1).render("json")


def test_pool_counts_the_cpus_this_process_may_run_on(monkeypatch, in_process_pool):
    # pinned to one CPU of eight (as under `taskset -c 0`), the pool has one process
    monkeypatch.setattr(totdk.verify.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(totdk.verify.os, "cpu_count", lambda: 8)
    run_suite("spence", 2, 61, workers=2)
    assert in_process_pool == [1]


def test_pool_falls_back_to_cpu_count_without_affinity(monkeypatch, in_process_pool):
    monkeypatch.delattr(totdk.verify.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(totdk.verify.os, "cpu_count", lambda: 3)
    run_suite("spence", 2, 601, workers=10**4)
    monkeypatch.setattr(totdk.verify.os, "cpu_count", lambda: None)
    run_suite("spence", 2, 601, workers=10**4)
    assert in_process_pool == [3, 1]


def test_json_shape():
    report = run_suite("spence", 2, 12)
    payload = json.loads(report.render("json"))
    assert set(payload) == {
        "suite",
        "range_start",
        "range_end",
        "checked",
        "failures",
        "config",
    }
    assert payload["failures"] == []
    # timing is deliberately absent from machine formats
    assert "elapsed" not in report.render("json")
    assert "workers" not in report.render("json")


def test_csv_shape():
    report = run_suite("spence", 2, 12)
    assert report.render("csv") == "n,identity,lhs,rhs,matched\n"


def test_human_shape():
    report = run_suite("spence", 2, 12)
    text = report.render("human")
    assert "suite=spence" in text
    assert "checked=11" in text
    assert "failures=0" in text
    assert "all checks passed" in text
    assert "elapsed" not in text


def test_report_with_failures_renders_everywhere():
    bad = IdentityResult(7, "example_identity", Fraction(1, 2), Fraction(1, 3), False)
    report = VerificationReport(
        suite="chain",
        range_start=2,
        range_end=10,
        checked=9,
        failures=[bad],
    )
    assert not report.ok
    assert "example_identity" in report.render("json")
    assert json.loads(report.render("json"))["config"] == {
        "suite": "chain",
        "from": 2,
        "to": 10,
        "b_max": 10,
        "naive_bound": NAIVE_BOUND,
        "enumeration_bound": ENUMERATION_BOUND,
    }
    csv_lines = report.render("csv").splitlines()
    assert csv_lines[0] == "n,identity,lhs,rhs,matched"
    assert csv_lines[1] == "7,example_identity,1/2,1/3,False"
    assert "FAIL n=7" in report.render("human")


def test_render_dispatch():
    report = run_suite("spence", 2, 5)
    with pytest.raises(DomainError):
        report.render("xml")


@settings(max_examples=60, deadline=None)
@given(
    suite=st.sampled_from(SUITES),
    start=st.integers(1, 10**5),
    span=st.integers(0, 3000),
    workers=st.integers(1, 8),
)
def test_shards_deal_blocks_of_six(suite, start, span, workers):
    start = max(start, 1 if suite == "dedekind" else 2)
    end = start + span
    shard_ns = []  # the n each shard checked, in the order it checked them
    real = totdk.verify._run_shard

    def run_shard(job):
        shard_ns.append([])
        return real(job)

    def record(suite, n, b_max):
        shard_ns[-1].append(n)
        return []

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(totdk.verify, "ProcessPoolExecutor", InProcessPool)
        mp.setattr(totdk.verify, "_run_shard", run_shard)
        mp.setattr(totdk.verify, "_suite_failures", record)
        mp.setattr(totdk.verify, "Sieve", lambda end: contextlib.nullcontext())
        report = run_suite(suite, start, end, workers=workers)
    count = end - start + 1
    assert sorted(n for ns in shard_ns for n in ns) == list(range(start, end + 1))
    assert len(shard_ns) == min(workers, math.ceil(count / 6))
    sizes = [len(ns) for ns in shard_ns]
    assert max(sizes) - min(sizes) <= 6
    assert report.checked == count


@pytest.mark.parametrize("suite", SUITES)
def test_checked_counts_the_n_each_shard_checked(monkeypatch, suite):
    # checked is counted where the shard checks an n, not from the n it was
    # dealt, so an n its loop skipped would not count as checked.
    calls = 0
    real = totdk.verify._suite_failures

    def counted(suite, n, b_max):
        nonlocal calls
        calls += 1
        return real(suite, n, b_max)

    monkeypatch.setattr(totdk.verify, "_suite_failures", counted)
    report = run_suite(suite, 2, 31, workers=1)
    assert report.ok
    assert report.checked == calls == 30


@pytest.mark.parametrize(
    "suite,start,end",
    [("spence", 2, 400), ("chain", 2, 120), ("dedekind", 1, 24)],
)
def test_reports_byte_identical_for_workers_1_to_8(monkeypatch, suite, start, end):
    # Plant a failure at every 7th n, so the merge order shows in the report;
    # the pool forks, so its workers inherit the patched function.
    real = totdk.verify._suite_failures

    def planted(suite, n, b_max):
        failures = real(suite, n, b_max)
        if n % 7 == 0:
            failures.append(IdentityResult(n, "planted", Fraction(n), Fraction(0), False))
        return failures

    monkeypatch.setattr(totdk.verify, "_suite_failures", planted)
    solo = run_suite(suite, start, end, workers=1)
    assert [f.n for f in solo.failures] == [n for n in range(start, end + 1) if n % 7 == 0]
    for workers in range(2, 9):
        report = run_suite(suite, start, end, workers=workers)
        for fmt in ("json", "csv", "human"):
            assert report.render(fmt) == solo.render(fmt)


def test_a_failing_shard_leaves_no_pool_thread_running(monkeypatch):
    # A pool thread still running when run_suite raises races the interpreter's
    # exit hook on Python 3.11, and the exit then prints an OSError traceback.
    real = totdk.verify._suite_failures

    def planted(suite, n, b_max):
        if n == 7:
            raise InvariantViolation("planted")
        return real(suite, n, b_max)

    monkeypatch.setattr(totdk.verify, "_suite_failures", planted)
    before = set(threading.enumerate())
    with pytest.raises(InvariantViolation):
        run_suite("chain", 2, 200, workers=2)
    assert [t for t in threading.enumerate() if t not in before] == []


def test_spence_suite_reports_a_planted_closed_form_fault(monkeypatch):
    # The suite compares two ints and builds Fraction sides only for a mismatch.
    real = totdk.verify.spence_closed_form
    monkeypatch.setattr(totdk.verify, "spence_closed_form", lambda n: real(n) + (n % 7 == 0))
    report = run_suite("spence", 2, 30)
    assert report.render("csv") == (
        "n,identity,lhs,rhs,matched\n"
        "7,spence_formula,91,92,False\n"
        "14,spence_formula,191,192,False\n"
        "21,spence_formula,1081,1082,False\n"
        "28,spence_formula,1432,1433,False\n"
    )
    assert all(type(f.lhs) is type(f.rhs) is Fraction for f in report.failures)


@pytest.mark.parametrize("workers", [1, 3])
def test_failing_links_of_one_n_keep_the_chain_order(monkeypatch, workers):
    # S(n) + 1/12 breaks the two links that read S(n); the report lists them in
    # CHAIN_IDENTITIES order, which sorting by name would reverse.
    real = totdk.spence.s_double_sum
    monkeypatch.setattr(totdk.spence, "s_double_sum", lambda n: real(n) + Fraction(1, 12))
    report = run_suite("chain", 2, 30, workers=workers)
    assert [(f.n, f.identity) for f in report.failures] == [
        (n, link) for n in range(2, 31) for link in ("nu_weighted_sum", "dedekind_double_sum")
    ]


@pytest.mark.parametrize("suite,start", [("dedekind", 1)])
@pytest.mark.parametrize("workers", [1, 3])
def test_dedekind_suites_report_a_planted_naive_fault(monkeypatch, suite, start, workers):
    # The naive oracle is off by 1/(4a^2) at b = 3, so each a has one failing cell.
    real = totdk.verify.dedekind_naive
    monkeypatch.setattr(
        totdk.verify,
        "dedekind_naive",
        lambda b, a: real(b, a) + (Fraction(1, 4 * a * a) if b == 3 else 0),
    )
    rows = {
        1: "1,dedekind_fast_vs_naive(b=3),0,1/4,False\n",
        2: "2,dedekind_fast_vs_naive(b=3),0,1/16,False\n",
        3: "3,dedekind_fast_vs_naive(b=3),0,1/36,False\n",
        4: "4,dedekind_fast_vs_naive(b=3),-1/8,-7/64,False\n",
        5: "5,dedekind_fast_vs_naive(b=3),0,1/100,False\n",
        6: "6,dedekind_fast_vs_naive(b=3),0,1/144,False\n",
    }
    report = run_suite(suite, start, 6, workers=workers)
    expected = "".join(rows[n] for n in range(start, 7))
    assert report.render("csv") == "n,identity,lhs,rhs,matched\n" + expected


@pytest.mark.parametrize(
    "suite,names",
    [
        (
            "chain",
            [
                (totdk.verify, "verify_chain"),
                (totdk.spence, "s_double_sum"),
                (totdk.spence, "coprime_residues"),
            ],
        ),
        (
            "spence",
            [
                (totdk.verify, "sum_j_aj_bruteforce"),
                (totdk.verify, "spence_closed_form"),
                (totdk.spence, "coprime_residues"),
            ],
        ),
    ],
)
def test_each_n_calls_every_benchmark_counted_name_once(monkeypatch, suite, names):
    # perfbench/tracing.py counts calls at these module names, and
    # perfbench/workloads.py pins each count to one per n.
    calls = collections.Counter()

    def counting(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)

        return counted

    for module, name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for n in range(2, 62):
        calls.clear()
        assert totdk.verify._suite_failures(suite, n, n) == []
        assert calls == {name: 1 for _, name in names}, n


@pytest.mark.parametrize(
    "suite,start,end,workers,sieves",
    [("chain", 2, 60, 1, 1), ("spence", 2, 61, 3, 3), ("dedekind", 1, 12, 1, 0)],
)
def test_each_shard_that_factorizes_opens_one_sieve(
    monkeypatch, in_process_pool, suite, start, end, workers, sieves
):
    # perfbench/tracing.py counts the calls of this module's Sieve, and
    # perfbench/workloads.py pins that count to the number of shards.
    opened = []
    real = totdk.verify.Sieve

    def counting(limit):
        opened.append(limit)
        return real(limit)

    monkeypatch.setattr(totdk.verify, "Sieve", counting)
    assert run_suite(suite, start, end, workers=workers).ok
    assert opened == [end] * sieves


def test_chain_suite_evaluates_one_dedekind_sum_per_coprime_divisor_pair(monkeypatch):
    # S(n) takes 3^omega - 2^omega closed forms, one per coprime pair of
    # square-free divisors; ordered pairs would be 40808 on 2..1200, not 11871.
    calls = 0
    real = totdk.spence._closed_form

    def counted(b, a):
        nonlocal calls
        calls += 1
        return real(b, a)

    monkeypatch.setattr(totdk.spence, "_closed_form", counted)
    assert run_suite("chain", 2, 1200, workers=1).ok
    omegas = [len(factorize(n)) for n in range(2, 1201)]
    assert calls == sum(3**w - 2**w for w in omegas) == 11871
