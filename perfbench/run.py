"""Benchmark of totdk's verify sweeps and Dedekind core, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: totdk is imported from `src/`, never
from an installed copy, and the run fails without printing a result if
`src/totdk` is missing.  A run builds the workload's inputs from the seed,
runs one untimed warm-up pass, then repeats passes for about S seconds and
reports medians over them.  Every pass's output is checked exactly.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (see tracing.py) and the
tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 1 if any
check failed or a per-layer count did not repeat exactly, 2 on bad usage.
Full results, the environment and the spans of the last traced pass go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import NAME, Tracer, pass_layers, percentile, span_seconds, write_spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Set-up is timed in this many fresh interpreters per run; setup_s is the median.
SETUP_SAMPLES = 7

#: Fewest timed passes per run, whatever --seconds allows (per mode when traced).
MIN_PASSES = 3

#: About the seconds `calibrate` takes on the host the baseline was recorded
#: on (2-core Xeon, CPython 3.11.7).  End-to-end times are rescaled to it.
CALIBRATION_REF_S = 0.05

#: Per-layer counts that must repeat exactly from pass to pass.
EXACT_COUNTS = (
    "arith.residues_calls",
    "arith.residues_elems",
    "arith.residues_bytes",
    "arith.sieve_calls",
    "dedekind.fast_calls",
    "dedekind.naive_calls",
    "dedekind.naive_terms",
    "dedekind.depth_mean",
    "dedekind.depth_max",
    "verify.shards",
)


def load_totdk():
    """Import totdk from this checkout's src/ and nowhere else."""
    package = ROOT / "src" / "totdk"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a totdk source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    totdk = importlib.import_module("totdk")
    if Path(totdk.__file__).resolve().parent != package:
        sys.exit(f"error: imported totdk from {totdk.__file__}, not {package}")
    for sub in ("bench", "cli", "dedekind", "spence", "verify"):
        importlib.import_module(f"totdk.{sub}")
    return totdk


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "start_method": multiprocessing.get_start_method(),
        "seed": seed,
    }


def calibrate() -> float:
    """Seconds for a fixed allocation-heavy loop that touches no totdk code.

    A shared host's speed can drift by a quarter within minutes, in CPU time
    as much as in wall time.  This loop's time follows that drift, so a time
    multiplied by CALIBRATION_REF_S / calibrate() measured beside it is the
    time at the reference speed, and a change to totdk moves only the
    numerator.  Building tuples and a dict tracked every workload's drift
    better than a tight arithmetic loop, which misses memory contention.
    """
    t0 = time.perf_counter()
    pairs = [(i, 2 * i) for i in range(150_000)]
    table = {k: v for k, v in pairs}
    sum(table[k] for k, _ in pairs)
    return time.perf_counter() - t0


#: Runs in a fresh interpreter with argv: src dir, perfbench dir, workload,
#: seed.  Prints the seconds to import the CLI and build the workload's inputs,
#: then the calibration time measured right after.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import totdk.cli
from workloads import WORKLOADS
WORKLOADS[sys.argv[3]].build(totdk, int(sys.argv[4]))
elapsed = time.perf_counter() - t0
from run import calibrate
print(elapsed, calibrate())
"""


def measure_setup(name: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, calibration seconds) from SETUP_SAMPLES fresh interpreters."""
    command = [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"), str(HERE), name, str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            command, capture_output=True, text=True, check=True, timeout=120
        )
        setup, cal = done.stdout.split()
        samples.append((float(setup), float(cal)))
    return samples


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


class Run:
    """One benchmark run: inputs, the checks, and the tallies of its passes."""

    def __init__(self, workload, totdk, seed: int, inputs):
        self.workload, self.totdk, self.seed, self.inputs = workload, totdk, seed, inputs
        self.items = workload.items(inputs)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference = None

    def one_pass(self, entry, latencies=None) -> tuple[float, float]:
        """Run, time and check one pass; returns (wall seconds, CPU seconds)."""
        gc.collect()
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            result = self.workload.run_pass(self.inputs, entry, latencies)
        except Exception as exc:  # a crash is a failed pass, not a crashed benchmark
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
            self._tally(self.items, f"pass raised {type(exc).__name__}: {exc}")
            return wall, cpu
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        if self.reference is None:
            self.reference = self.workload.reference(self.totdk, self.inputs, result)
        bad = self.workload.check(self.inputs, result, self.reference)
        self._tally(bad, f"{bad} of {self.items} items failed the check" if bad else "")
        return wall, cpu

    def _tally(self, bad: int, error: str) -> None:
        self.attempted += self.items
        self.failed += bad
        if error and error not in self.errors:
            self.errors.append(error)


def passes_until(deadline_s: float, step, minimum: int) -> list:
    """Call step() until `minimum` calls are done and another would overrun."""
    results, t0 = [], time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - t0
        if len(results) >= minimum and elapsed * (1 + 1 / len(results)) > deadline_s:
            return results


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    workload = run.workload
    entry = workload.entry(run.totdk)
    run.one_pass(entry)  # warm-up; also computes the reference values
    # Every pass does the same work, so the warm-up has reached the peak; read
    # it before the set-up probes and calibration loops add their own.
    peak_mb = peak_rss_mb()
    setup = measure_setup(workload.name, run.seed)
    latencies: list[float] = []
    calibrations = [calibrate()]

    def step():
        # Each pass is bracketed by calibrations; their mean rates the host.
        wall, cpu = run.one_pass(entry, latencies)
        calibrations.append(calibrate())
        return wall, cpu, CALIBRATION_REF_S / statistics.fmean(calibrations[-2:])

    timings = passes_until(seconds, step, MIN_PASSES)
    walls = [w for w, _, _ in timings]
    cpus = [c for _, c, _ in timings]
    metrics = {
        "throughput": metric(
            run.items / statistics.median(w * k for w, _, k in timings), "1/s"
        ),
        "cpu_us_per_item": metric(
            statistics.median(c * k for _, c, k in timings) / run.items * 1e6, "us"
        ),
        "worker_util": metric(
            statistics.median(c / (w * workload.workers) for w, c, _ in timings), "ratio"
        ),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "setup_s": metric(
            statistics.median(t * CALIBRATION_REF_S / cal for t, cal in setup), "s"
        ),
    }
    latencies.sort()
    extra = {
        "throughput.raw": run.items / statistics.median(walls),
        "cpu_us_per_item.raw": statistics.median(cpus) / run.items * 1e6,
        "setup_s.raw": statistics.median(t for t, _ in setup),
        "host_speed": CALIBRATION_REF_S / statistics.median(calibrations),
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "calibration_s": calibrations,
        "setup_samples_s": setup,
    }
    if latencies:
        extra["item_us.p50"] = percentile(latencies, 50) * 1e6
        extra["item_us.p99"] = percentile(latencies, 99) * 1e6
        extra["item_us.samples"] = len(latencies)
    return metrics, extra


def traced(run: Run, tracer: Tracer, seconds: float, setup_spans: list) -> tuple[dict, dict]:
    workload = run.workload
    entry = workload.entry(run.totdk)
    run.one_pass(entry)  # warm-up; also computes the reference values
    plain_walls, traced_walls, per_pass, fast_durations = [], [], [], []
    spans: list[tuple] = []

    def traced_pass():
        nonlocal spans
        tracer.install()
        try:
            traced_walls.append(run.one_pass(workload.entry(run.totdk))[0])
        finally:
            tracer.uninstall()
        tracer.collect_workers()
        spans = tracer.take()
        times, counts, durations = pass_layers(spans)
        per_pass.append((times, counts))
        fast_durations.extend(durations)

    def pair():
        # Alternate which side goes first, so drift in the host hits both.
        if len(traced_walls) % 2:
            traced_pass()
            plain_walls.append(run.one_pass(entry)[0])
        else:
            plain_walls.append(run.one_pass(entry)[0])
            traced_pass()

    passes_until(seconds, pair, MIN_PASSES)
    counts = [c for _, c in per_pass]
    mismatched = sorted(k for k in counts[0] if any(c.get(k) != counts[0][k] for c in counts))
    if mismatched:
        run.errors.append(f"per-layer counts differ between passes: {mismatched}")
    expected = workload.expected_counts(run.inputs)
    wrong = {k: (counts[0].get(k, 0), v) for k, v in expected.items() if counts[0].get(k, 0) != v}
    if wrong:
        run.errors.append(f"per-layer counts (got, expected): {wrong}")

    fast_durations.sort()
    values = {
        name: statistics.median(t[name] for t, _ in per_pass) for name in per_pass[0][0]
    }
    values.update({k: counts[0].get(k, 0) for k in EXACT_COUNTS})
    values["dedekind.fast_us.p50"] = percentile(fast_durations, 50) * 1e6
    values["dedekind.fast_us.p99"] = percentile(fast_durations, 99) * 1e6
    values["bench.pairs_s"] = span_seconds(s for s in setup_spans if s[NAME] == "bench.pairs")
    values["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    )
    metrics = {name: metric(values[name], unit) for name, unit in per_layer_units().items()}
    extra = {
        "untraced_pass_wall_s": plain_walls,
        "traced_pass_wall_s": traced_walls,
        "dedekind.fast_us.samples": len(fast_durations),
        "pass_counts": counts,
        "last_pass_spans": len(spans),
    }
    write_spans(OUT_DIR / f"{workload.name}-seed{run.seed}-spans.json", spans)
    return metrics, extra


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)
    if ns.seconds <= 0:
        p.error("--seconds must be positive")
    return ns


def main(argv=None) -> int:
    ns = parse_args(argv)
    workload = WORKLOADS[ns.workload]
    totdk = load_totdk()
    OUT_DIR.mkdir(exist_ok=True)
    env = environment(ns.seed)
    if ns.trace:
        if env["start_method"] != "fork":
            sys.exit("error: the traced run needs the fork start method")
        spool = OUT_DIR / f"spool-{os.getpid()}"
        spool.mkdir()
        tracer = Tracer(spool)
        try:
            tracer.install()
            try:
                inputs = workload.build(totdk, ns.seed)
            finally:
                tracer.uninstall()
            run = Run(workload, totdk, ns.seed, inputs)
            metrics, extra = traced(run, tracer, ns.seconds, tracer.take())
        finally:
            shutil.rmtree(spool, ignore_errors=True)
    else:
        run = Run(workload, totdk, ns.seed, workload.build(totdk, ns.seed))
        metrics, extra = untraced(run, ns.seconds)

    correct = run.failed == 0 and not run.errors
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "workload": ns.workload,
        "why": workload.why,
        "seconds": ns.seconds,
        "trace": ns.trace,
        "items_per_pass": run.items,
        "fail_frac": run.failed / run.attempted,
        "errors": run.errors,
        "environment": env,
        **result,
        "extra": extra,
    }
    path = OUT_DIR / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    passes = len(extra.get("pass_wall_s") or extra["traced_pass_wall_s"])
    print(
        f"workload {ns.workload}  seed {ns.seed}  trace {ns.trace}  "
        f"items/pass {run.items}  timed passes {passes}"
    )
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    fail_note = f"({run.failed} of {run.attempted} items)"
    print(f"  {'fail_frac':<28} {record['fail_frac']:>16.6g} ratio {fail_note}")
    raw_units = {"throughput.raw": "1/s", "cpu_us_per_item.raw": "us", "setup_s.raw": "s"}
    for name, unit in {**raw_units, "host_speed": "ratio"}.items():
        if name in extra:
            print(f"  {name:<28} {extra[name]:>16.6g} {unit}")
    if "item_us.p50" in extra:
        calls = f"({extra['item_us.samples']} calls)"
        print(f"  {'item_us.p50':<28} {extra['item_us.p50']:>16.6g} us {calls}")
        print(f"  {'item_us.p99':<28} {extra['item_us.p99']:>16.6g} us {calls}")
    for error in run.errors:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
