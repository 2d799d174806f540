"""Command-line interface: grammar, output, exit-code contract."""

import json
import os

import pytest

import totdk.verify
from totdk import NAIVE_BOUND
from totdk.cli import DEFAULT_RANGE_CAP, EVAL_KINDS, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------- eval


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("eval", "spence", "5"), "30"),
        (("eval", "spence", "4"), "7"),
        (("eval", "spence", "6"), "11"),
        (("eval", "dedekind", "1", "3"), "1/18"),
        (("eval", "dedekind", "2", "3"), "-1/18"),
        (("eval", "theta", "6", "4"), "1"),
        (("eval", "theta", "7", "13/2"), "6"),
        (("eval", "nu", "5", "2"), "-2/5"),
        (("eval", "nu", "6", "4"), "1/3"),
        (("eval", "ssum", "5"), "-1"),
        (("eval", "ssum", "6"), "2/3"),
        (("eval", "delange", "5"), "8/5"),
        (("eval", "delange", "1"), "1"),
    ],
)
def test_eval_prints_exact_value(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected + "\n"


def test_eval_kind_list():
    assert EVAL_KINDS == ("spence", "dedekind", "theta", "nu", "ssum", "delange")


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "spence"),  # missing argument
        ("eval", "spence", "5", "6"),  # extra argument
        ("eval", "dedekind", "3"),  # wrong arity
        ("eval", "spence", "five"),  # not an integer
        ("eval", "nosuchkind", "5"),  # unknown kind
        ("eval",),  # no kind
        (),  # no command
        ("frobnicate",),  # unknown command
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, _, _ = run_cli(capsys, *argv)
    assert code == 2


def test_eval_domain_errors_exit_3(capsys):
    code, _, err = run_cli(capsys, "eval", "spence", "1")
    assert code == 3
    assert "error:" in err
    code, _, err = run_cli(capsys, "eval", "dedekind", "1", "0")
    assert code == 3
    code, _, err = run_cli(capsys, "eval", "nu", "5", "1/0")
    assert code == 3


# --------------------------------------------------------------------- verify


def test_verify_human(capsys):
    code, out, _ = run_cli(capsys, "verify", "--from", "2", "--to", "30", "--suite", "chain")
    assert code == 0
    assert "checked=29" in out
    assert "failures=0" in out


def test_verify_json(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--from", "2", "--to", "25", "--suite", "spence", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "spence"
    assert payload["checked"] == 24
    assert payload["failures"] == []
    assert "checked 24 n in" in err  # timing goes to stderr, not the report


def test_verify_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--from", "2", "--to", "25", "--suite", "spence", "--format", "csv"
    )
    assert code == 0
    assert out == "n,identity,lhs,rhs,matched\n"


def test_verify_dedekind_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--from", "2", "--to", "15", "--suite", "dedekind")
    assert code == 0
    assert "checked=14" in out
    # a = 1 is in the Dedekind domain, so [1, B] covers the full B x B grid
    code, out, _ = run_cli(capsys, "verify", "--from", "1", "--to", "12", "--suite", "dedekind")
    assert code == 0
    assert "checked=12" in out


def test_verify_all_suite(capsys):
    code, _, _ = run_cli(capsys, "verify", "--from", "2", "--to", "12", "--suite", "all")
    assert code == 0


def test_verify_reports_identical_across_workers(capsys):
    base = ("verify", "--from", "2", "--to", "40", "--suite", "chain", "--format", "json")
    _, out1, _ = run_cli(capsys, *base, "--workers", "1")
    _, out2, _ = run_cli(capsys, *base, "--workers", "3")
    assert out1 == out2
    base_csv = ("verify", "--from", "2", "--to", "40", "--suite", "spence", "--format", "csv")
    _, out3, _ = run_cli(capsys, *base_csv, "--workers", "1")
    _, out4, _ = run_cli(capsys, *base_csv, "--workers", "4")
    assert out3 == out4


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--from", "5", "--to", "4"),  # inverted range
        ("verify", "--from", "1", "--to", "10"),  # spence needs from >= 2
        ("verify", "--from", "2", "--to", "10", "--workers", "0"),
        ("verify", "--from", "2", "--to", "10", "--suite", "nosuch"),
        ("verify", "--from", "2", "--to", "10", "--format", "xml"),
        ("verify", "--to", "10"),  # missing --from
    ],
)
def test_verify_usage_errors_exit_2(capsys, argv):
    code, _, _ = run_cli(capsys, *argv)
    assert code == 2


def _die_in_worker(args):
    os._exit(1)


def test_verify_worker_death_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(totdk.verify, "_run_shard", _die_in_worker)
    code, _, err = run_cli(capsys, "verify", "--from", "2", "--to", "10", "--workers", "2")
    assert code == 3
    assert "error: worker process died" in err


def test_verify_range_cap_needs_allow_slow(capsys):
    over_cap = str(DEFAULT_RANGE_CAP + 1)
    code, _, _ = run_cli(capsys, "verify", "--from", "2", "--to", over_cap)
    assert code == 2
    # with --allow-slow the same range is accepted (tiny slice kept fast here)
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--from",
        str(DEFAULT_RANGE_CAP + 1),
        "--to",
        over_cap,
        "--suite",
        "spence",
        "--allow-slow",
    )
    assert code == 0
    assert "checked=1" in out


# ---------------------------------------------------------------------- bench


def test_bench_table(capsys):
    code, out, _ = run_cli(capsys, "bench", "--pairs", "3", "--max-a", "1000", "--seed", "42")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[0:2] == ["b", "a"]
    assert len(lines) == 7  # header, rule, 3 rows, depth line, totals line
    assert "mismatches=0" in lines[-1]


def test_bench_single_trivial_pair(capsys):
    code, out, _ = run_cli(capsys, "bench", "--pairs", "1", "--max-a", "1", "--seed", "9")
    assert code == 0
    assert "mismatches=0" in out


def test_bench_seed_changes_pairs(capsys):
    _, out1, _ = run_cli(capsys, "bench", "--pairs", "2", "--max-a", "5000", "--seed", "1")
    _, out2, _ = run_cli(capsys, "bench", "--pairs", "2", "--max-a", "5000", "--seed", "2")
    rows1 = [tuple(line.split()[:2]) for line in out1.splitlines()[2:4]]
    rows2 = [tuple(line.split()[:2]) for line in out2.splitlines()[2:4]]
    assert rows1 != rows2
    _, out3, _ = run_cli(capsys, "bench", "--pairs", "2", "--max-a", "5000", "--seed", "1")
    rows3 = [tuple(line.split()[:2]) for line in out3.splitlines()[2:4]]
    assert rows1 == rows3


@pytest.mark.parametrize(
    "argv",
    [
        ("bench", "--pairs", "0", "--max-a", "10"),
        ("bench", "--pairs", "2", "--max-a", "0"),
        ("bench", "--pairs", "2"),  # missing --max-a
    ],
)
def test_bench_usage_errors_exit_2(capsys, argv):
    code, _, _ = run_cli(capsys, *argv)
    assert code == 2


def test_bench_max_a_capped_by_naive_bound(capsys):
    code, _, err = run_cli(capsys, "bench", "--pairs", "1", "--max-a", str(NAIVE_BOUND + 1))
    assert code == 2
    assert "naive bound" in err


def test_naive_bound_env_flows_into_verify_config(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--from", "2", "--to", "5", "--suite", "spence", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["config"]["naive_bound"] == NAIVE_BOUND


def test_parser_prog_name():
    assert build_parser().prog == "totdk"
