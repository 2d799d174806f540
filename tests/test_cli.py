"""Command-line interface: grammar, output, exit-code contract."""

import json
import os
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import totdk
import totdk.arith
import totdk.bench
import totdk.spence
import totdk.verify
from totdk import (
    ENUMERATION_BOUND,
    NAIVE_BOUND,
    DomainError,
    InvariantViolation,
    VerificationReport,
    run_suite,
)
from totdk.cli import _EVAL, DEFAULT_RANGE_CAP, _integer, build_parser, main


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
        (("eval", "theta", "6", "--", "-5/2"), "-1"),  # a negative x comes after --
    ],
)
def test_eval_prints_exact_value(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected + "\n"


def test_eval_kind_list():
    assert tuple(_EVAL) == ("spence", "dedekind", "theta", "nu", "ssum", "delange")


@pytest.mark.parametrize("kind", list(_EVAL))
def test_eval_kind_help_names_its_arguments(capsys, kind):
    code, out, _ = run_cli(capsys, "eval", kind, "-h")
    fn, names = _EVAL[kind]
    assert code == 0
    assert out.startswith(f"usage: totdk eval {kind} [-h] {' '.join(names)}\n")
    for name in names:  # each argument's help is its type
        form = "integer or p/q" if name == "x" else "integer"
        assert re.search(rf"\n  {name} +{re.escape(form)}\n", out), name
    # `eval -h` describes the kind by the first line of its function's
    # docstring, which argparse may wrap at any space
    code, out, _ = run_cli(capsys, "eval", "-h")
    assert code == 0
    assert "".join(fn.__doc__.splitlines()[0].split()) in "".join(out.split())


@pytest.mark.parametrize(
    "argv,usage",
    [
        (("eval", "dedekind", "3"), "totdk eval dedekind [-h] b a"),  # wrong arity
        (("eval", "theta", "6", "abc"), "totdk eval theta [-h] n x"),  # wrong type
    ],
    ids=["arity", "type"],
)
def test_eval_usage_error_names_the_kind(capsys, argv, usage):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: {usage}\n")


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
        ("eval", "theta", "6", "abc"),  # not a rational
        ("eval", "nu", "6", "1/0"),  # zero denominator
        ("eval", "nu", "5", "0.5"),  # decimals are outside the p/q grammar
        ("eval", "theta", "6", "1e3"),  # so are exponents
        ("eval", "theta", "6", "1_000"),  # and digit separators
        ("eval", "spence", "1_000"),  # integers take ASCII digits alone: no separators,
        ("eval", "spence", "\u0663"),  # no other script's digits (Arabic-Indic 3)
        ("verify", "--from", "1_0", "--to", "12"),  # in options too
        ("bench", "--pairs", "1_0", "--max-a", "10"),
        ("eval", "spence", "1" + "0" * 4300),  # past CPython's int-from-str digit limit
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, _, _ = run_cli(capsys, *argv)
    assert code == 2


@pytest.mark.parametrize(
    "argv,form",
    [
        (("verify", "--from", "x", "--to", "5"), "'x' is not an integer, [+-]?[0-9]+"),
        (("eval", "theta", "6", "abc"), "'abc' is not an integer or p/q with q != 0"),
        (("eval", "spence", "five"), "'five' is not an integer, [+-]?[0-9]+"),
        (("eval", "spence", "1" + "0" * 4300), "over 4300 digits"),
        (("eval", "theta", "6", "1/1" + "0" * 4300), "over 4300 digits"),
    ],
    ids=["integer-option", "rational", "integer", "long-integer", "long-rational"],
)
def test_type_errors_name_the_grammar_not_a_private_function(capsys, argv, form):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f": {form}\n")
    assert "_integer" not in err and "_rational" not in err


def test_eval_domain_errors_exit_3(capsys):
    code, _, err = run_cli(capsys, "eval", "spence", "1")
    assert code == 3
    assert "error:" in err
    code, _, err = run_cli(capsys, "eval", "dedekind", "1", "0")
    assert code == 3


@pytest.mark.parametrize("kind,extra", [("spence", ()), ("theta", ("1",))])
def test_eval_past_the_trial_division_cap_exits_3_promptly(capsys, kind, extra):
    n = (10**12 + 39) * (10**12 + 61)  # two primes above the cap
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", kind, str(n), *extra)
    assert time.perf_counter() - t0 < 2
    assert (code, out) == (3, "")
    assert "trial division bound exceeded" in err and str(totdk.arith._TRIAL_DIVISION_CAP) in err


@pytest.mark.parametrize(
    "argv", [("eval", "theta", "0", "1"), ("eval", "nu", "0", "1"), ("eval", "delange", "0")]
)
def test_eval_n_below_1_error_names_no_internal_function(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", "error: requires n >= 1, got 0\n")


def _unlimited_str(value) -> str:
    """str(value) past CPython's int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "kind,fn,args",
    [
        ("spence", totdk.spence_closed_form, (10**3000,)),
        ("spence", totdk.spence_closed_form, (10**4299,)),  # the longest argument taken
        ("dedekind", totdk.dedekind_fast, (1, 10**3000)),
    ],
)
def test_eval_prints_values_past_the_int_digit_limit(capsys, kind, fn, args):
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "eval", kind, *map(str, args))
    assert (code, err) == (0, "")
    assert out == _unlimited_str(fn(*args)) + "\n"
    assert sys.get_int_max_str_digits() == limit  # lifted for the print only


# --------------------------------------------------------------------- verify


def test_verify_human(capsys):
    code, out, err = run_cli(capsys, "verify", "--from", "2", "--to", "30", "--suite", "chain")
    assert code == 0
    assert "checked=29" in out
    assert "failures=0" in out
    assert "elapsed" not in out
    assert re.fullmatch(r"checked 29 n in [0-9]+\.[0-9]ms, 0 failure\(s\)\n", err)


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


def test_verify_has_no_all_suite(capsys):
    # all ran chain and dedekind together; each still runs as its own suite
    code, out, err = run_cli(capsys, "verify", "--from", "2", "--to", "3", "--suite", "all")
    assert (code, out) == (2, "")
    choices = err.split("choose from")[1]
    assert all(name in choices for name in ("spence", "chain", "dedekind"))
    with pytest.raises(DomainError, match="unknown suite"):
        run_suite("all", 2, 3)


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


def _interrupt(args):
    raise KeyboardInterrupt


def test_verify_interrupt_exits_130(capsys, monkeypatch):
    monkeypatch.setattr(totdk.verify, "_run_shard", _interrupt)
    code, out, err = run_cli(capsys, "verify", "--from", "2", "--to", "10", "--workers", "1")
    assert code == 130
    assert out == ""
    assert err == "error: interrupted\n"


def _children_on_cpu(pid):
    """The children of pid that have run: utime + stime > 0 in /proc/<child>/stat."""
    running = []
    for child in Path(f"/proc/{pid}/task/{pid}/children").read_text().split():
        try:
            stat = Path(f"/proc/{child}/stat").read_text()
        except OSError:  # it has exited since the children were listed
            continue
        # the fields after the parenthesized comm, from the state (field 3) on
        utime, stime = stat.rsplit(")", 1)[1].split()[11:13]
        if int(utime) + int(stime) > 0:
            running.append(child)
    return running


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs /proc/PID/task/PID/children to see the pool start",
)
@pytest.mark.parametrize(
    "send,timeout",
    [
        # Ctrl-C at a terminal sends SIGINT to the whole foreground process group.
        pytest.param(os.killpg, 60, id="group"),
        # kill -INT of the parent pid reaches no worker, so the parent must stop them.
        pytest.param(os.kill, 20, id="parent"),
    ],
)
def test_verify_interrupt_with_two_workers_exits_130(send, timeout):
    src = str(Path(totdk.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = ["verify", "--suite", "chain", "--from", "2", "--to", "100000", "--allow-slow"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "totdk.cli", *argv, "--workers", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
        # A shell's background job starts with SIGINT ignored, and a Python
        # started so keeps ignoring it: give the CLI the default action.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        # Wait until both workers have run, so that a loaded host cannot
        # deliver the SIGINT to a worker that is still starting.
        deadline = time.monotonic() + 60
        while len(_children_on_cpu(proc.pid)) < 2:
            assert time.monotonic() < deadline, "the pool never started"
            time.sleep(0.05)
        send(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=timeout)
        assert proc.returncode == 130
        assert "Traceback" not in err
        assert err.endswith("error: interrupted\n")
        assert out == ""
        deadline = time.monotonic() + 10
        with pytest.raises(ProcessLookupError):  # no process of the group survives
            while time.monotonic() < deadline:
                os.killpg(proc.pid, 0)
                time.sleep(0.05)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def _spence_numerator_off_by(monkeypatch, offset):
    real = totdk.spence._closed_forms

    def planted(n):
        primes, spence, *rest = real(n)
        return (primes, spence + offset, *rest)

    monkeypatch.setattr(totdk.spence, "_closed_forms", planted)
    monkeypatch.setattr(totdk.verify, "_closed_forms", planted)


def test_invariant_violation_exits_4(capsys, monkeypatch):
    # spence_closed_form asserts divisibility by 24; the violation reaches
    # main as itself and ends in the correctness-failure code.
    _spence_numerator_off_by(monkeypatch, 1)
    code, out, err = run_cli(capsys, "eval", "spence", "5")
    assert code == 4
    assert out == ""
    assert err.startswith("error: closed form for n=")
    assert " not divisible by 24" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("offset", [8, 12])
def test_a_numerator_off_by_a_proper_factor_of_24_is_caught(capsys, monkeypatch, offset):
    # 8 and 12 divide 24 but are no multiples of it: integrality is checked mod 24
    _spence_numerator_off_by(monkeypatch, offset)
    with pytest.raises(InvariantViolation, match="n=5 not divisible by 24"):
        totdk.spence.spence_closed_form(5)
    code, out, err = run_cli(
        capsys, "verify", "--suite", "spence", "--from", "4", "--to", "6", "--format", "csv"
    )
    assert code == 4
    assert "Traceback" not in err
    assert out.splitlines()[2] == f"5,spence_formula,30,{Fraction(30 * 24 + offset, 24)},False"


def test_an_empty_totative_array_is_reported_not_raised(capsys, monkeypatch):
    # With its last totative dropped, n = 2 has none: the theta/nu kernel sums
    # an empty array, and the sweep ends in a full report.
    real = totdk.spence.coprime_residues
    monkeypatch.setattr(totdk.spence, "coprime_residues", lambda n: real(n)[:-1])
    code, out, err = run_cli(
        capsys, "verify", "--suite", "chain", "--from", "2", "--to", "6", "--format", "csv"
    )
    assert code == 4
    assert "Traceback" not in err
    rows = out.splitlines()[1:]
    assert len(rows) == 18
    assert rows[:2] == ["2,sum_of_squares,0,1,False", "2,spence_formula,0,1,False"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_spence_suite_reports_a_non_integral_closed_form(capsys, monkeypatch, workers):
    # The spence suite lists the fault as the chain suite does, one failing
    # spence_formula row per n, in a pool worker too.
    _spence_numerator_off_by(monkeypatch, 1)
    rows = {}
    for suite in ("spence", "chain"):
        code, out, err = run_cli(
            capsys, "verify", "--suite", suite, "--from", "2", "--to", "10",
            "--workers", workers, "--format", "csv",
        )
        assert code == 4
        assert "Traceback" not in err
        rows[suite] = out
    assert rows["spence"] == rows["chain"]
    assert rows["spence"].splitlines()[:3] == [
        "n,identity,lhs,rhs,matched",
        "2,spence_formula,1,25/24,False",
        "3,spence_formula,5,121/24,False",
    ]
    assert len(rows["spence"].splitlines()) == 10


def test_verify_chain_with_a_non_integral_closed_form_exits_4(capsys, monkeypatch):
    # A Spence numerator off by one is no longer divisible by 24: a failing link.
    _spence_numerator_off_by(monkeypatch, 1)
    code, out, err = run_cli(
        capsys, "verify", "--suite", "chain", "--from", "2", "--to", "30", "--format", "json"
    )
    assert code == 4
    assert "Traceback" not in err
    failures = json.loads(out)["failures"]
    assert [f["identity"] for f in failures] == ["spence_formula"] * 29
    assert failures[0] == {
        "n": 2, "identity": "spence_formula", "lhs": "1", "rhs": "25/24", "matched": False
    }


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
@pytest.mark.parametrize("planted", [False, True])
def test_verify_writes_one_stderr_summary_in_every_format(capsys, monkeypatch, fmt, planted):
    # wall time is the CLI's alone: one summary line on stderr, never in the report
    if planted:
        _spence_numerator_off_by(monkeypatch, 1)
    code, out, err = run_cli(
        capsys, "verify", "--suite", "spence", "--from", "2", "--to", "10", "--format", fmt
    )
    failures = 9 if planted else 0
    assert code == (4 if planted else 0)
    assert re.fullmatch(rf"checked 9 n in [0-9]+\.[0-9]ms, {failures} failure\(s\)\n", err)
    assert "elapsed" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "dedekind", "--from", "1", "--to", "40", "--format", "csv"),
        ("eval", "spence", "5"),
    ],
)
def test_closed_stdout_exits_141_quietly(argv):
    # As in `totdk ... | head -0`: the reader is gone before the first write.
    src = str(Path(totdk.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "totdk.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--from", "2", "--to", "10", "--workers", "0"),  # run_suite's DomainError
        ("verify", "--from", "2", "--to", str(DEFAULT_RANGE_CAP + 1)),  # the range cap
        ("verify", "--suite", "dedekind", "--from", "1", "--to", "801"),  # the dedekind cap
        ("bench", "--pairs", "2", "--max-a", str(NAIVE_BOUND + 1)),  # run_bench's DomainError
    ],
)
def test_usage_errors_after_parsing_print_the_subcommand_usage(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: totdk {argv[0]} [-h] --")
    assert f"\ntotdk {argv[0]}: error: " in err


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


def _stub_run_suite(monkeypatch):
    """Record run_suite's calls from the CLI and report each range clean."""
    calls = []

    def stub(suite, start, end, *, workers):
        calls.append((suite, start, end))
        return VerificationReport(suite, start, end, end - start + 1, [])

    monkeypatch.setattr(totdk.cli, "run_suite", stub)
    return calls


def test_verify_range_cap_is_100000(capsys, monkeypatch):
    calls = _stub_run_suite(monkeypatch)
    for suite in ("spence", "chain"):
        argv = ("verify", "--suite", suite, "--from", "2", "--to")
        code, _, err = run_cli(capsys, *argv, "100001")
        assert code == 2
        assert "--to 100001 exceeds the cap 100000 (pass --allow-slow to raise it)" in err
        code, _, _ = run_cli(capsys, *argv, "100000")
        assert code == 0
    assert calls == [("spence", 2, 100000), ("chain", 2, 100000)]


def test_dedekind_suite_range_cap_is_800(capsys, monkeypatch):
    # the dedekind suite checks --to cells for each a: 1..800 is the 800 x 800 grid
    dedekind = ("verify", "--suite", "dedekind", "--from")
    code, _, err = run_cli(capsys, *dedekind, "-2000", "--to", "-1000")
    assert code == 2
    assert "invalid range [-2000, -1000]" in err  # run_suite's message, not the cap's
    calls = _stub_run_suite(monkeypatch)
    for end in ("801", "100000", "100001"):
        code, _, err = run_cli(capsys, *dedekind, "1", "--to", end)
        assert code == 2
        assert f"--to {end} exceeds the cap 800 (pass --allow-slow to raise it)" in err
    assert calls == []
    assert run_cli(capsys, *dedekind, "1", "--to", "800")[0] == 0
    assert run_cli(capsys, *dedekind, "1", "--to", "801", "--allow-slow")[0] == 0
    assert calls == [("dedekind", 1, 800), ("dedekind", 1, 801)]


def test_a_narrow_dedekind_band_past_the_cap_needs_allow_slow(capsys, monkeypatch):
    # the cap bounds --to alone, however few a the range holds
    calls = _stub_run_suite(monkeypatch)
    argv = ("verify", "--suite", "dedekind", "--from", "801", "--to", "801")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "--to 801 exceeds the cap 800 (pass --allow-slow to raise it)" in err
    assert calls == []
    assert run_cli(capsys, *argv, "--allow-slow")[0] == 0
    assert calls == [("dedekind", 801, 801)]


@pytest.mark.parametrize(
    "suite,start,bound",
    [("spence", 2, ENUMERATION_BOUND), ("dedekind", NAIVE_BOUND, NAIVE_BOUND)],
)
def test_allow_slow_leaves_the_suite_bound_to_run_suite(capsys, suite, start, bound):
    # run_suite rejects the range before the sweep starts, so nothing is run
    end = str(bound + 1)
    argv = ["verify", "--suite", suite, "--from", str(start), "--to", end, "--allow-slow"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"range end {end} exceeds the {suite} suite's bound {bound}" in err


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


def test_bench_exits_4_when_the_evaluators_disagree(capsys, monkeypatch):
    real = totdk.bench.dedekind_naive
    monkeypatch.setattr(
        totdk.bench, "dedekind_naive", lambda b, a: real(b, a) + Fraction(1, 4 * a * a)
    )
    code, out, err = run_cli(capsys, "bench", "--pairs", "5", "--max-a", "100", "--seed", "1")
    assert code == 4
    assert err == "error: evaluator mismatch (correctness bug)\n"
    lines = out.splitlines()
    assert len(lines) == 9  # header, rule, 5 rows, depth line, totals line
    assert all(row.endswith(" NO") for row in lines[2:7])
    assert lines[-1].endswith("mismatches=5")


def test_bench_max_a_capped_by_naive_bound(capsys):
    code, _, err = run_cli(capsys, "bench", "--pairs", "1", "--max-a", str(NAIVE_BOUND + 1))
    assert code == 2
    assert "naive bound" in err


def test_bench_pairs_capped_before_any_pair_is_drawn(capsys, monkeypatch):
    def no_draw(seed):
        raise AssertionError("a pair was drawn")

    monkeypatch.setattr(totdk.bench, "lcg_states", no_draw)
    bound = totdk.bench._MAX_PAIRS
    code, out, err = run_cli(capsys, "bench", "--pairs", str(bound + 1), "--max-a", "10")
    assert code == 2
    assert out == ""
    assert f"count <= {bound}" in err


def test_naive_bound_is_reported_in_verify_config(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--from", "2", "--to", "5", "--suite", "spence", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["config"]["naive_bound"] == NAIVE_BOUND


def test_parser_prog_name():
    assert build_parser().prog == "totdk"


@pytest.mark.parametrize("command", ["verify", "bench"])
def test_every_option_has_help_with_its_form_and_default(capsys, command):
    commands = next(a.choices for a in build_parser()._actions if isinstance(a.choices, dict))
    code, out, _ = run_cli(capsys, command, "-h")
    assert code == 0
    out = " ".join(out.split())  # argparse wraps help text at any space
    for action in commands[command]._actions[1:]:  # after -h
        name = action.option_strings[0]
        assert action.help, name
        if action.type is _integer:
            assert action.help.startswith("integer, "), name
        if action.required:
            assert action.help.endswith("; required"), name
        elif action.nargs != 0:  # each option that takes a value names its default
            assert action.help.endswith("; default %(default)s"), name
            assert f"default {action.default}" in out, name
    if command == "verify":  # --allow-slow names both --to caps
        assert "--to 100000 for the spence and chain suites, --to 800 for the dedekind" in out
