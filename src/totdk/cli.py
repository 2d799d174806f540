"""Command-line front end: single exact values, range verification, benchmarks.

Exit codes: 0 success, 2 usage error, 3 domain/resource error or a dead
worker process, 4 correctness failure (a verification mismatch, the
benchmark catching the two evaluators disagreeing, or an internal invariant
violation), 130 interrupted (KeyboardInterrupt, such as Ctrl-C during a long
verify sweep), 141 stdout closed by its reader (128 + SIGPIPE, as in `| head`).

The library checks every verify and bench input against its hard bounds; this
module parses arguments, applies verify's default caps (lifted by --allow-slow)
and maps the library's exceptions to exit codes.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import time
from fractions import Fraction

from .bench import format_table, run_bench
from .dedekind import dedekind_fast
from .errors import DomainError, InvariantViolation, ResourceLimitError
from .spence import delange_closed_form, nu, s_closed_form, spence_closed_form, theta
from .verify import SUITES, run_suite

#: The spence and chain suites' --to stops here unless --allow-slow is passed.
DEFAULT_RANGE_CAP = 100_000
#: The dedekind suite's naive terms, sum(a * end) over a in the range, stop here:
#: the 800 x 800 grid, 58 s on one core of a 2-core Xeon.  Every --to past 100000 is over.
DEFAULT_NAIVE_TERM_CAP = 800 * 801 // 2 * 800

#: eval kind -> (function, argument names); "x" is a rational, the rest integers.
_EVAL = {
    "spence": (spence_closed_form, ("n",)),
    "dedekind": (dedekind_fast, ("b", "a")),
    "theta": (theta, ("n", "x")),
    "nu": (nu, ("n", "x")),
    "ssum": (s_closed_form, ("n",)),
    "delange": (delange_closed_form, ("n",)),
}


def _integer(text: str) -> int:
    """Every integer argument: ASCII decimal digits, [+-]?[0-9]+ after strip(),
    within CPython's int-from-str digit limit."""
    if not re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer, [+-]?[0-9]+")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"over {sys.get_int_max_str_digits()} digits") from None


def _rational(text: str) -> Fraction:
    """eval's x, "p/q" or an integer: [+-]?[0-9]+(/[0-9]+)? after strip(), q != 0;
    p and q are read as integers."""
    if not re.fullmatch(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?", text.strip()):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer or p/q with q != 0")
    p, _, q = text.partition("/")
    return Fraction(_integer(p), _integer(q or "1"))


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
    p_eval.set_defaults(handler=_cmd_eval)
    kinds = p_eval.add_subparsers(dest="kind", required=True)
    for kind, (fn, names) in _EVAL.items():
        p_kind = kinds.add_parser(kind, help=fn.__doc__.splitlines()[0])
        for name in names:
            parse, form = (_rational, "integer or p/q") if name == "x" else (_integer, "integer")
            p_kind.add_argument(name, type=parse, help=form)

    p_verify = sub.add_parser("verify", help="verify identities over a range of n")
    p_verify.set_defaults(handler=functools.partial(_cmd_verify, p_verify))
    p_verify.add_argument("--from", dest="start", type=_integer, required=True)
    p_verify.add_argument("--to", dest="end", type=_integer, required=True)
    p_verify.add_argument("--suite", choices=SUITES, default="spence")
    p_verify.add_argument(
        "--format", dest="fmt", choices=("json", "csv", "human"), default="human"
    )
    p_verify.add_argument("--workers", type=_integer, default=1)
    p_verify.add_argument(
        "--allow-slow",
        action="store_true",
        help=f"lift the default caps: --to {DEFAULT_RANGE_CAP} for the spence and chain"
        f" suites, {DEFAULT_NAIVE_TERM_CAP} naive terms for the dedekind suite",
    )

    p_bench = sub.add_parser("bench", help="time the naive and fast Dedekind evaluators")
    p_bench.set_defaults(handler=functools.partial(_cmd_bench, p_bench))
    p_bench.add_argument("--pairs", type=_integer, required=True)
    p_bench.add_argument("--max-a", dest="max_a", type=_integer, required=True)
    p_bench.add_argument("--seed", type=_integer, default=1)
    return parser


def _cmd_eval(ns: argparse.Namespace) -> int:
    fn, names = _EVAL[ns.kind]
    value = fn(*(getattr(ns, name) for name in names))
    # An exact value may pass CPython's int-to-str digit limit: lift it for
    # this one print only, so long arguments stay usage errors.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        print(value)
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def _cmd_verify(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> int:
    if ns.suite != "dedekind" and ns.end > DEFAULT_RANGE_CAP and not ns.allow_slow:
        parser.error(
            f"--to {ns.end} exceeds the cap {DEFAULT_RANGE_CAP}"
            " (pass --allow-slow to raise it)"
        )
    # sum(a * end) over the range; run_suite rejects a range with start < 1
    terms = ns.end * (ns.start + ns.end) * (ns.end - ns.start + 1) // 2 if ns.start >= 1 else 0
    if ns.suite == "dedekind" and terms > DEFAULT_NAIVE_TERM_CAP and not ns.allow_slow:
        parser.error(
            f"--from {ns.start} --to {ns.end} takes {terms} naive Dedekind terms,"
            f" over the cap {DEFAULT_NAIVE_TERM_CAP} (pass --allow-slow to raise it)"
        )
    t0 = time.perf_counter()
    try:
        report = run_suite(ns.suite, ns.start, ns.end, workers=ns.workers)
    except DomainError as exc:
        parser.error(str(exc))
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    sys.stdout.write(report.render(ns.fmt))
    print(
        f"checked {report.checked} n in {elapsed_ms:.1f}ms, {len(report.failures)} failure(s)",
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
        code = ns.handler(ns)
        sys.stdout.flush()  # here, so that a closed stdout is caught below
        return code
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2
    except (DomainError, ResourceLimitError, InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, InvariantViolation) else 3
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:  # the reader closed stdout; the flush at exit goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
