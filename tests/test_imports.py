"""Which calls load numpy, seen from fresh interpreters.

Only the functions of `totdk.arith` that build int64 arrays import numpy: the
totatives, the shard's sieve table and the residue kernels that sum over the
totatives.  The Dedekind sums, `eval`, `bench` and the dedekind suite run
without it.  The test process has numpy
loaded already, so each check starts its own interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import totdk

SRC = str(Path(totdk.__file__).parents[1])

# Prints, as JSON, [step, exit code or raised exception name, numpy loaded]
# for each step, in order.
PROBE = """\
import contextlib, io, json, sys
import totdk, totdk.cli
from totdk import ENUMERATION_BOUND, coprime_residues
from totdk.cli import main

steps = [["import totdk, totdk.cli", 0, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    steps.append([" ".join(argv), code, "numpy" in sys.modules])
    if argv == ["eval", "dedekind", "1", "3"]:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            main(argv)
        assert out.getvalue() == "1/18\\n", out.getvalue()
try:
    coprime_residues(ENUMERATION_BOUND + 1)
    outcome = "returned"
except Exception as exc:
    outcome = type(exc).__name__
steps.append(["coprime_residues(ENUMERATION_BOUND + 1)", outcome, "numpy" in sys.modules])
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["verify", "--suite", "spence", "--from", "2", "--to", "20"])
steps.append(["verify --suite spence", code, "numpy" in sys.modules])
print(json.dumps(steps))
"""

NUMPY_FREE = [
    ["eval", "dedekind", "1", "3"],
    ["eval", "spence", "30"],
    ["eval", "theta", "6", "4"],
    ["eval", "nu", "5", "2"],
    ["eval", "ssum", "6"],
    ["eval", "delange", "5"],
    ["bench", "--pairs", "3", "--max-a", "100"],
    ["verify", "--suite", "dedekind", "--from", "1", "--to", "20"],
]


def _env():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_only_array_builders_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(NUMPY_FREE)],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert [step for step, _, _ in steps] == [
        "import totdk, totdk.cli",
        *(" ".join(argv) for argv in NUMPY_FREE),
        "coprime_residues(ENUMERATION_BOUND + 1)",
        "verify --suite spence",
    ]
    *numpy_free, refused, spence = steps
    for step, code, loaded in numpy_free:
        assert (code, loaded) == (0, False), step
    assert refused[1:] == ["ResourceLimitError", False]
    assert spence[1:] == [0, True]


def test_forked_workers_that_import_numpy_themselves_give_the_same_report():
    # The parent of a fresh `verify` run has not loaded numpy when the pool
    # forks, so each worker imports it on its first shard.
    outputs = []
    for workers in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "totdk.cli", "verify", "--suite", "chain",
             "--from", "2", "--to", "300", "--format", "json", "--workers", workers],
            capture_output=True,
            env=_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert (report["checked"], report["failures"]) == (299, [])
