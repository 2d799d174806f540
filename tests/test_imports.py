"""What a fresh process loads: numpy and the process pool, seen from new interpreters.

Only the functions of `totdk.arith` that build int64 arrays import numpy: the
totatives, the shard's sieve table and the residue kernels that sum over the
totatives.  The Dedekind sums, `eval`, `bench` and the dedekind suite run
without it.  Only a `verify` run of more than one shard imports
`multiprocessing` and `concurrent.futures`.  The test process has all of
these loaded already, so each check starts its own interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import totdk

SRC = str(Path(totdk.__file__).parents[1])

# Prints, as JSON, [step, exit code or raised exception name, the modules of
# WATCHED that are loaded] for each step, in order.
PROBE = """\
import contextlib, io, json, sys
import totdk, totdk.cli
from totdk import ENUMERATION_BOUND, coprime_residues
from totdk.cli import main

watched = json.loads(sys.argv[2])
def loaded():
    return [name for name in watched if name in sys.modules]

steps = [["import totdk, totdk.cli", 0, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    steps.append([" ".join(argv), code, loaded()])
    if argv == ["eval", "dedekind", "1", "3"]:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            main(argv)
        assert out.getvalue() == "1/18\\n", out.getvalue()
for bad in ("ENUMERATION_BOUND + 1", "0"):
    try:
        coprime_residues(eval(bad))
        outcome = "returned"
    except Exception as exc:
        outcome = type(exc).__name__
    steps.append([f"coprime_residues({bad})", outcome, loaded()])
for workers in ("1", "2"):
    argv = ["verify", "--suite", "spence", "--from", "2", "--to", "20", "--workers", workers]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    steps.append([" ".join(argv), code, loaded()])
print(json.dumps(steps))
"""

# totdk.bench is loaded by `import totdk.cli`, which perfbench's set-up probe
# relies on: it reads totdk.bench.generate_pairs after importing only the CLI.
WATCHED = ["totdk.bench", "numpy", "multiprocessing", "concurrent.futures"]

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


@pytest.fixture(scope="module")
def probe_steps():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(NUMPY_FREE), json.dumps(WATCHED)],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    spence = "verify --suite spence --from 2 --to 20 --workers"
    assert [step for step, _, _ in steps] == [
        "import totdk, totdk.cli",
        *(" ".join(argv) for argv in NUMPY_FREE),
        "coprime_residues(ENUMERATION_BOUND + 1)",
        "coprime_residues(0)",
        f"{spence} 1",
        f"{spence} 2",
    ]
    return steps


def test_only_array_builders_load_numpy(probe_steps):
    *numpy_free, too_large, too_small, solo, duo = probe_steps
    for step, code, loaded in numpy_free:
        assert (code, "numpy" in loaded) == (0, False), step
    assert (too_large[1], "numpy" in too_large[2]) == ("ResourceLimitError", False)
    assert (too_small[1], "numpy" in too_small[2]) == ("DomainError", False)
    assert (solo[1], "numpy" in solo[2]) == (0, True)
    assert (duo[1], "numpy" in duo[2]) == (0, True)


def test_only_a_sharded_verify_loads_the_process_pool(probe_steps):
    *one_process, duo = probe_steps
    pool = {"multiprocessing", "concurrent.futures"}
    for step, _, loaded in one_process:
        assert "totdk.bench" in loaded, step
        assert not pool & set(loaded), step
    assert duo[1] == 0
    assert pool <= set(duo[2])


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
