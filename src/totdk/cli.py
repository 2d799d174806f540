"""Command-line front end: single exact values, range verification, benchmarks.

Exit codes: 0 success, 2 usage error, 3 domain/resource error or a dead
worker process, 4 correctness failure (a verification mismatch, or the
benchmark catching the two evaluators disagreeing).

The library checks every verify and bench input; this module only parses
arguments and maps the library's exceptions to exit codes.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures.process import BrokenProcessPool

from .arith import ENUMERATION_BOUND
from .bench import format_table, run_bench
from .dedekind import dedekind_fast
from .errors import DomainError, ResourceLimitError
from .rational import format_rational, parse_rational
from .spence import (
    delange_closed_form,
    nu,
    s_closed_form,
    spence_closed_form,
    theta,
)
from .verify import SUITES, run_suite

#: Brute-force verification ranges stop here unless --allow-slow is passed.
DEFAULT_RANGE_CAP = 100_000

#: eval kind -> (function, argument names); "x" is a rational, the rest integers.
_EVAL = {
    "spence": (spence_closed_form, ("n",)),
    "dedekind": (dedekind_fast, ("b", "a")),
    "theta": (theta, ("n", "x")),
    "nu": (nu, ("n", "x")),
    "ssum": (s_closed_form, ("n",)),
    "delange": (delange_closed_form, ("n",)),
}
EVAL_KINDS = tuple(_EVAL)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totdk",
        description=(
            "Exact computation and verification of Spence's totative-sum "
            "formula and the Dedekind-sum identities behind it."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one quantity exactly")
    p_eval.add_argument("kind", choices=EVAL_KINDS)
    p_eval.add_argument("args", nargs="*", help="kind-specific arguments")

    p_verify = sub.add_parser("verify", help="verify identities over a range of n")
    p_verify.add_argument("--from", dest="start", type=int, required=True)
    p_verify.add_argument("--to", dest="end", type=int, required=True)
    p_verify.add_argument("--suite", choices=SUITES, default="spence")
    p_verify.add_argument(
        "--format", dest="fmt", choices=("json", "csv", "human"), default="human"
    )
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.add_argument(
        "--allow-slow",
        action="store_true",
        help=f"lift the default range cap of {DEFAULT_RANGE_CAP}",
    )

    p_bench = sub.add_parser("bench", help="time the naive and fast Dedekind evaluators")
    p_bench.add_argument("--pairs", type=int, required=True)
    p_bench.add_argument("--max-a", dest="max_a", type=int, required=True)
    p_bench.add_argument("--seed", type=int, default=1)
    return parser


def _parse_int(parser: argparse.ArgumentParser, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        parser.error(f"{what} must be an integer, got {text!r}")


def _cmd_eval(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> int:
    fn, names = _EVAL[ns.kind]
    if len(ns.args) != len(names):
        parser.error(f"eval {ns.kind} takes {len(names)} argument(s), got {len(ns.args)}")
    args = [
        parse_rational(text) if name == "x" else _parse_int(parser, text, name)
        for name, text in zip(names, ns.args)
    ]
    print(format_rational(fn(*args)))
    return 0


def _cmd_verify(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> int:
    cap = ENUMERATION_BOUND if ns.allow_slow else DEFAULT_RANGE_CAP
    if ns.end > cap:
        parser.error(
            f"--to {ns.end} exceeds the cap {cap}"
            + ("" if ns.allow_slow else " (pass --allow-slow to raise it)")
        )
    try:
        report = run_suite(ns.suite, ns.start, ns.end, workers=ns.workers)
    except DomainError as exc:
        parser.error(str(exc))
    except BrokenProcessPool as exc:
        print(f"error: worker process died: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(report.render(ns.fmt))
    if ns.fmt != "human":
        print(
            f"checked {report.checked} n in {report.elapsed_ms:.1f}ms, "
            f"{len(report.failures)} failure(s)",
            file=sys.stderr,
        )
    return 0 if report.ok else 4


def _cmd_bench(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> int:
    try:
        rows = run_bench(ns.pairs, ns.max_a, ns.seed)
    except DomainError as exc:
        parser.error(str(exc))
    sys.stdout.write(format_table(rows, ns.max_a))
    if any(not r.equal for r in rows):
        print("error: evaluator mismatch (correctness bug)", file=sys.stderr)
        return 4
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command == "eval":
            return _cmd_eval(parser, ns)
        if ns.command == "verify":
            return _cmd_verify(parser, ns)
        return _cmd_bench(parser, ns)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2
    except (DomainError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
