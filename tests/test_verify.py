"""Range verification: suites, sharding determinism, report rendering."""

import json
from fractions import Fraction

import pytest

from totdk import (
    ENUMERATION_BOUND,
    NAIVE_BOUND,
    DomainError,
    IdentityResult,
    VerificationReport,
    run_suite,
)
from totdk.verify import SUITES, _split_range


def test_suite_names():
    assert SUITES == ("spence", "chain", "dedekind", "all")


def test_spence_suite_clean_range():
    report = run_suite("spence", 2, 60)
    assert report.ok
    assert report.checked == 59
    assert report.failures == []
    assert report.suite == "spence"
    assert (report.range_start, report.range_end) == (2, 60)
    assert report.elapsed_ms >= 0


def test_chain_suite_clean_range():
    report = run_suite("chain", 2, 40)
    assert report.ok
    assert report.checked == 39


def test_dedekind_suite_full_grid():
    # b_max defaults to the range end: [1, 25] covers the 25 x 25 grid
    report = run_suite("dedekind", 1, 25)
    assert report.ok
    assert report.checked == 25
    assert report.config["b_max"] == 25


def test_all_suite():
    report = run_suite("all", 2, 20)
    assert report.ok
    assert report.checked == 19


def test_config_block():
    report = run_suite("spence", 2, 10)
    assert report.config["suite"] == "spence"
    assert report.config["from"] == 2
    assert report.config["to"] == 10
    assert report.config["enumeration_bound"] == ENUMERATION_BOUND
    assert report.config["naive_bound"] == NAIVE_BOUND


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
    assert solo.to_json() == trio.to_json()
    assert solo.to_csv() == trio.to_csv()
    assert solo.checked == trio.checked == 47


def test_spence_reports_identical_across_worker_counts():
    solo = run_suite("spence", 2, 80, workers=1)
    quad = run_suite("spence", 2, 80, workers=4)
    assert solo.to_json() == quad.to_json()
    assert solo.to_csv() == quad.to_csv()


def test_json_shape():
    report = run_suite("spence", 2, 12)
    payload = json.loads(report.to_json())
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
    assert "elapsed" not in report.to_json()
    assert "workers" not in report.to_json()


def test_csv_shape():
    report = run_suite("spence", 2, 12)
    assert report.to_csv() == "n,identity,lhs,rhs,matched\n"


def test_human_shape():
    report = run_suite("spence", 2, 12)
    text = report.to_human()
    assert "suite=spence" in text
    assert "checked=11" in text
    assert "failures=0" in text
    assert "all checks passed" in text
    assert "elapsed=" in text


def test_report_with_failures_renders_everywhere():
    bad = IdentityResult(7, "example_identity", Fraction(1, 2), Fraction(1, 3), False)
    report = VerificationReport(
        suite="chain",
        range_start=2,
        range_end=10,
        checked=9,
        failures=[bad],
        elapsed_ms=1.0,
    )
    assert not report.ok
    assert "example_identity" in report.to_json()
    csv_lines = report.to_csv().splitlines()
    assert csv_lines[0] == "n,identity,lhs,rhs,matched"
    assert csv_lines[1] == "7,example_identity,1/2,1/3,False"
    assert "FAIL n=7" in report.to_human()


def test_render_dispatch():
    report = run_suite("spence", 2, 5)
    assert report.render("json") == report.to_json()
    assert report.render("csv") == report.to_csv()
    assert report.render("human") == report.to_human()
    with pytest.raises(DomainError):
        report.render("xml")


def test_split_range_is_contiguous_partition():
    for start, end, parts in [(2, 100, 4), (1, 7, 3), (5, 5, 4), (2, 10, 1), (3, 11, 20)]:
        shards = _split_range(start, end, parts)
        assert shards[0][0] == start
        assert shards[-1][1] == end
        for (lo1, hi1), (lo2, hi2) in zip(shards, shards[1:]):
            assert lo2 == hi1 + 1
        assert sum(hi - lo + 1 for lo, hi in shards) == end - start + 1
        assert all(lo <= hi for lo, hi in shards)
