"""Mutation probe: does each planted one-token fault fail its targeted tests?

Run with `python tests/mutation_probe.py` (pytest does not collect this file).

Each entry of MUTANTS names a file, a text that occurs in it exactly once,
the replacement, and the test files that must fail once the replacement is
made.  For each entry the probe copies src/, tests/, perfbench/ and
pyproject.toml to a fresh temporary directory, applies the replacement there
and runs the named test files with pytest, stopping at the first failure.
The working tree is never written.

An equivalent entry carries the reason no test can tell it from the original:
its text is still required to occur once, but no test runs for it.  Before
any mutant, every named test file runs on an unmutated copy, because a test
that already fails would make every mutant look killed.  The probe prints
every surviving entry and exits 1 if a non-equivalent entry survives, or if
a run ends in neither pass nor fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str | None = None

    def __str__(self) -> str:
        return f"{self.file}: {self.old!r} -> {self.new!r}"


ARITH, BENCH, CLI, DEDEKIND, SPENCE, VERIFY = (
    f"src/totdk/{m}.py" for m in ("arith", "bench", "cli", "dedekind", "spence", "verify")
)

MUTANTS = (
    Mutant(
        ARITH, "if d > _TRIAL_DIVISION_CAP:", "if d >= _TRIAL_DIVISION_CAP:", (),
        equivalent="10**7 = 4 (mod 6), so no trial divisor (2, 3, then 6k+-1) equals the cap",
    ),
    Mutant(
        ARITH, "d <= _TRIAL_DIVISION_CAP:", "d < _TRIAL_DIVISION_CAP:", (),
        equivalent="10**7 = 4 (mod 6), so no trial divisor (2, 3, then 6k+-1) equals the cap",
    ),
    Mutant(
        ARITH, "while d * d <= n and", "while d * d < n and", (),
        equivalent="d * d == n makes d divide n, which ends the search at the same d",
    ),
    Mutant(  # the table read one past its end
        ARITH, "if n < size:", "if n <= size:", ("tests/test_arith.py",)
    ),
    Mutant(  # 25 comes out as a prime
        ARITH, "if d * d > n:", "if d * d >= n:", ("tests/test_arith.py",)
    ),
    Mutant(
        ARITH, "if n > ENUMERATION_BOUND:", "if n >= ENUMERATION_BOUND:", ("tests/test_arith.py",)
    ),
    Mutant(
        ARITH, "_open_table.reset(self._token)", "_open_table.set(())", ("tests/test_arith.py",)
    ),
    Mutant(  # a writable shared rank vector
        ARITH,
        "ranks.flags.writeable = False",
        "ranks.flags.writeable = True",
        ("tests/test_arith.py",),
    ),
    Mutant(DEDEKIND, "if a > NAIVE_BOUND:", "if a >= NAIVE_BOUND:", ("tests/test_dedekind.py",)),
    *(  # the half-range naive sum: its denominator, sign, zero test, wrap and start
        Mutant(DEDEKIND, old, new, ("tests/test_dedekind.py",))
        for old, new in (
            ("2 * a * a", "4 * a * a"),
            ("Fraction(-total", "Fraction(total"),
            ("R != zero", "R != a"),
            ("if R < top:", "if R <= top:"),
            ("range(a - 2, 0, -2)", "range(a - 4, 0, -2)"),
        )
    ),
    Mutant(BENCH, "if max_a > NAIVE_BOUND:", "if max_a >= NAIVE_BOUND:", ("tests/test_bench.py",)),
    Mutant(
        BENCH, "1 <= count <= _MAX_PAIRS", "1 <= count < _MAX_PAIRS", ("tests/test_bench.py",)
    ),
    Mutant(  # a wrong Lame start: F(4), F(5) for F(2), F(3)
        BENCH, "depth, lo, hi = 0, 1, 2", "depth, lo, hi = 0, 2, 3", ("tests/test_bench.py",)
    ),
    Mutant(VERIFY, "if end > bound:", "if end >= bound:", ("tests/test_verify.py",)),
    *(  # a shard's last block, or the last n of its blocks, left unchecked
        Mutant(VERIFY, old, new, ("tests/test_verify.py",))
        for old, new in (
            ("range(first, end + 1, stride)", "range(first, end, stride)"),
            ("min(lo + _BLOCK, end + 1)", "min(lo + _BLOCK, end)"),
        )
    ),
    Mutant(  # a one-shard run would fork a pool, and load its modules
        VERIFY, "if shards == 1:", "if shards < 1:", ("tests/test_imports.py",)
    ),
    Mutant(  # rows of one n keep the chain's link order, not the names' order
        VERIFY,
        "key=lambda f: f.n)",
        "key=lambda f: (f.n, f.identity))",
        ("tests/test_cli.py", "tests/test_verify.py"),
    ),
    Mutant(
        CLI, "DEFAULT_RANGE_CAP = 100_000", "DEFAULT_RANGE_CAP = 100_001", ("tests/test_cli.py",)
    ),
    Mutant(
        CLI, "DEFAULT_DEDEKIND_CAP = 800", "DEFAULT_DEDEKIND_CAP = 801", ("tests/test_cli.py",)
    ),
    Mutant(CLI, "if ns.end > cap", "if ns.end >= cap", ("tests/test_cli.py",)),
    Mutant(  # the 800 cap selected for the chain suite, 100000 for dedekind
        CLI,
        'DEFAULT_DEDEKIND_CAP if ns.suite == "dedekind"',
        'DEFAULT_DEDEKIND_CAP if ns.suite == "chain"',
        ("tests/test_cli.py",),
    ),
    Mutant(  # eval's x is p/q
        CLI, '(_rational, "integer or p/q")', '(_integer, "integer or p/q")', ("tests/test_cli.py",)
    ),
    *(  # the rhs numerator of one link of verify_chain off by one
        Mutant(SPENCE, row, rhs_plus_one, ("tests/test_chain_reference.py",))
        for row, rhs_plus_one in (
            ("(jaj, 1, theta_sum, 1)", "(jaj, 1, theta_sum + 1, 1)"),
            ("phi_n * sum_sq - nu_numerator, n)", "phi_n * sum_sq - nu_numerator + 1, n)"),
            ("(sum_sq, 1, sum_sq6, 6)", "(sum_sq, 1, sum_sq6 + 1, 6)"),
            ("phi_n * s_den, 4 * s_den)", "phi_n * s_den + 1, 4 * s_den)"),
            ("(s_num, s_den, s24, 24)", "(s_num, s_den, s24 + 1, 24)"),
            ("(delange_num, n * n, delange_n, n)", "(delange_num, n * n, delange_n + 1, n)"),
            ("(jaj, 1, spence24, 24)", "(jaj, 1, spence24 + 1, 24)"),
        )
    ),
    Mutant(SPENCE, "if numerator % 24:", "if numerator % 8:", ("tests/test_cli.py",)),
    Mutant(  # a wrong weight of nu, n/d + 1; the reference chain reaches nu over m
        ARITH, "mu * (n // d) * r", "mu * (n // d + 1) * r", ("tests/test_chain_reference.py",)
    ),
    *(  # the totatives built from the radical's: tiles, odd-only sieve, odd map
        Mutant(ARITH, old, new, ("tests/test_arith.py",))
        for old, new in (
            ("np.arange(0, n, m", "np.arange(m, n, m"),
            ("p // 2 ::", "p // 2 + p ::"),
            ("for p in primes[1:]:", "for p in primes:"),
            ("base += 1", "base -= 1"),
        )
    ),
    *(  # the tile algebra of sum(j * a_j): S1 and S2 swapped, a lost f, a lost tiles
        Mutant(ARITH, old, new, ("tests/test_arith.py",))
        for old, new in (
            (
                "tiles * (tiles - 1) // 2, (tiles - 1) * tiles * (2 * tiles - 1) // 6",
                "(tiles - 1) * tiles * (2 * tiles - 1) // 6, tiles * (tiles - 1) // 2",
            ),
            ("m * f * f * s2", "m * f * s2"),
            ("return tiles * j_sum + tiled", "return j_sum + tiled"),
            ("f * int(base.sum()) * s1", "int(base.sum()) * s1"),
        )
    ),
    Mutant(  # 2**21 tiles the one totative of 2 past the bound
        SPENCE,
        "n = _enumerable(_require_n_ge_2(n))",
        "n = _require_n_ge_2(n)",
        ("tests/test_spence.py",),
    ),
    Mutant(  # totatives past 2**15 wrap in the theta/nu divmod
        ARITH, "residues.astype(np.int32)", "residues.astype(np.int16)", ("tests/test_arith.py",)
    ),
    Mutant(  # sum(a^2) read from the last divisor row, not from d = 1's
        ARITH,
        "return floor_sums[0],",
        "return floor_sums[-1],",
        ("tests/test_chain_reference.py", "tests/test_arith.py"),
    ),
    Mutant(  # equal values; only the unused-private-name test sees _BLOCK_ELEMENTS go
        ARITH,
        "rows = max(1, _BLOCK_ELEMENTS // max(len(residues), 1))",
        "rows = 1",
        ("tests/test_package.py",),
    ),
)


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        if (ROOT / name).is_dir():
            ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "out")
            shutil.copytree(ROOT / name, dest / name, ignore=ignore)
        else:
            shutil.copy2(ROOT / name, dest / name)


def run_tests(dest: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code for `tests` in the copy at dest: 0 pass, 1 a test failed."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"))
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(argv, cwd=dest, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if done.returncode not in (0, 1):
        print(done.stdout.decode(errors="replace"), file=sys.stderr)
    return done.returncode


def mutated(mutant: Mutant) -> str:
    """The text of mutant.file with its one occurrence of mutant.old replaced."""
    text = (ROOT / mutant.file).read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant}: the old text occurs {count} times, not once")
    return text.replace(mutant.old, mutant.new)


def probe(mutant: Mutant | None, tests: tuple[str, ...]) -> int:
    """Copy the tree, apply `mutant` (none: the tree as it is) and run `tests`."""
    with tempfile.TemporaryDirectory(prefix="totdk-mutant-") as tmp:
        dest = Path(tmp)
        copy_tree(dest)
        if mutant is not None:
            (dest / mutant.file).write_text(mutated(mutant))
        return run_tests(dest, tests)


def main() -> int:
    t0 = time.perf_counter()
    every_file = tuple(sorted({t for m in MUTANTS for t in m.tests}))
    if probe(None, every_file) != 0:
        print(f"the targeted tests fail without a mutant: {' '.join(every_file)}")
        return 1
    bad = []
    for mutant in MUTANTS:
        if mutant.equivalent:
            mutated(mutant)
            print(f"equivalent  {mutant}\n            ({mutant.equivalent})")
            continue
        code = probe(mutant, mutant.tests)
        outcome = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR {code}")
        print(f"{outcome:<11} {mutant}", flush=True)
        if code != 1:
            bad.append(mutant)
    elapsed = time.perf_counter() - t0
    print(f"{len(bad)} of {len(MUTANTS)} entries survived or errored in {elapsed:.0f} s")
    for mutant in bad:
        print(f"  {mutant}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
