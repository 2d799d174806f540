"""Benchmark harness: reproducible pair generation, timing rows, table output."""

import itertools

import pytest

import totdk.bench
from totdk import NAIVE_BOUND, DomainError
from totdk.bench import (
    LCG_INCREMENT,
    LCG_MASK,
    LCG_MULTIPLIER,
    BenchRow,
    depth_ceiling,
    format_table,
    generate_pairs,
    lcg_states,
    run_bench,
)
from totdk.dedekind import _closed_form


def test_lcg_recurrence():
    states = list(itertools.islice(lcg_states(0), 3))
    assert states == [
        1442695040888963407,
        1876011003808476466,
        11166244414315200793,
    ]
    for prev, cur in zip(states, states[1:]):
        assert cur == (LCG_MULTIPLIER * prev + LCG_INCREMENT) & LCG_MASK


def test_generate_pairs_frozen_fixtures():
    assert generate_pairs(3, 1000, 42) == [(994, 21), (76, 375), (766, 849)]
    assert generate_pairs(2, 10**6, 7) == [(411211, 717906), (603213, 963244)]


def test_generate_pairs_reproducible_and_in_range():
    a_run = generate_pairs(50, 12345, 99)
    b_run = generate_pairs(50, 12345, 99)
    assert a_run == b_run
    assert all(1 <= b <= 12345 and 1 <= a <= 12345 for b, a in a_run)
    assert generate_pairs(50, 12345, 100) != a_run


def test_generate_pairs_rejects_bad_arguments():
    with pytest.raises(DomainError):
        generate_pairs(0, 10, 1)
    with pytest.raises(DomainError):
        generate_pairs(5, 0, 1)
    # each value comes from one 64-bit LCG state, so 2**64 is the widest range
    assert len(generate_pairs(3, 2**64, 1)) == 3
    with pytest.raises(DomainError):
        generate_pairs(3, 2**64 + 1, 1)


def test_generate_pairs_accepts_the_largest_count(monkeypatch):
    # 100,000 pairs are accepted and 100,001 refused; a stub draws the states fast
    monkeypatch.setattr(totdk.bench, "lcg_states", lambda seed: itertools.repeat(0))
    assert generate_pairs(100_000, 2, 1) == [(1, 1)] * 100_000
    with pytest.raises(DomainError):
        generate_pairs(100_001, 2, 1)


def test_run_bench_rows():
    rows = run_bench(6, 2000, 3)
    assert len(rows) == 6
    assert [(r.b, r.a) for r in rows] == generate_pairs(6, 2000, 3)
    for r in rows:
        assert r.equal
        assert r.naive_seconds >= 0 and r.fast_seconds >= 0
        assert 0 <= r.depth <= depth_ceiling(2000)


def test_run_bench_respects_naive_cap():
    with pytest.raises(DomainError, match="naive bound"):
        run_bench(1, NAIVE_BOUND + 1, 1)


def test_run_bench_accepts_max_a_at_the_naive_bound(monkeypatch):
    # every state draws NAIVE_BOUND, so the one pair is (10**7, 10**7): s = 0 in about 0.7 s
    monkeypatch.setattr(totdk.bench, "lcg_states", lambda seed: itertools.repeat(NAIVE_BOUND - 1))
    [row] = run_bench(1, NAIVE_BOUND, 1)
    assert (row.b, row.a, row.equal) == (NAIVE_BOUND, NAIVE_BOUND, True)


def test_depth_ceiling_grows_slowly():
    assert depth_ceiling(1) == 0
    assert depth_ceiling(10**6) < 64
    assert depth_ceiling(10**12) < 130
    assert depth_ceiling(10**6) < depth_ceiling(10**12)


def test_depth_ceiling_is_exact_up_to_2000():
    # depth[a][b]: Euclid steps of (a, b) for 0 <= b < a, by the recurrence
    # depth[a][b] = 1 + depth[b][a mod b]; scaling keeps the quotients, so this
    # is the depth _closed_form reports for (b, a).
    depth = [[]]
    worst = 0
    for a in range(1, 2001):
        depth.append([0] + [1 + depth[b][a % b] for b in range(1, a)])
        worst = max(worst, *depth[a])
        # no pair with modulus <= a goes deeper, and Fibonacci pairs reach it
        assert worst == depth_ceiling(a), a
    for a in range(1, 201):
        for b in range(2 * a):
            assert _closed_form(b, a)[2] == depth[a][b % a]


def test_format_table_layout():
    rows = run_bench(4, 500, 11)
    table = format_table(rows, 500)
    lines = table.splitlines()
    assert lines[0].split() == ["b", "a", "naive_ms", "fast_ms", "ratio", "depth", "equal"]
    assert len(lines) == 2 + len(rows) + 2  # header, rule, rows, two summary lines
    assert lines[-2].startswith("depth: min=")
    assert lines[-1].startswith("totals: naive=")
    assert "mismatches=0" in lines[-1]
    assert all("yes" in line for line in lines[2 : 2 + len(rows)])


def test_bench_row_is_frozen():
    row = run_bench(1, 10, 5)[0]
    assert isinstance(row, BenchRow)
    with pytest.raises(AttributeError):
        row.depth = 99
