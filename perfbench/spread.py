"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                [--seconds S] [--out FILE] [--against FILE]

For every workload and seed it runs perfbench/run.py once (seed-major, so a
drifting host touches every workload alike), then prints per metric the
median, the quartiles from statistics.quantiles(values, n=4) and the
interquartile spread as a share of the median, next to the metric's bound
from BENCHMARK.json.  --against compares the medians with an earlier
summary written by --out: a positive change is a change for the worse, and
for traced runs of the same seeds every exact count must be equal.
Exits 1 if a run fails or is incorrect, or if an exact count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import EXACT_COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    p.add_argument("--against", type=Path)
    ns = p.parse_args(argv)

    workloads = ns.workloads.split(",")
    seeds = parse_seeds(ns.seeds)
    if len(seeds) < 2:
        p.error("need at least two seeds for quartiles")
    metrics = spec["per_layer"] if ns.trace else spec["end_to_end"]
    raw: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in seeds:
        for w in workloads:
            t0 = time.perf_counter()
            result = run_once(w, seed, ns.seconds, ns.trace)
            for name, m in result["metrics"].items():
                raw[w].setdefault(name, []).append(m["value"])
            took = time.perf_counter() - t0
            print(f"done {w} seed {seed} in {took:.1f} s", file=sys.stderr, flush=True)

    earlier = json.loads(ns.against.read_text()) if ns.against else {}
    against = earlier.get("workloads", {})
    same_runs = earlier.get("seeds") == seeds and earlier.get("trace") == ns.trace
    count_errors = []
    summary = {}
    header = f"{'workload':<14} {'metric':<28} {'median':>12} {'spread':>8} {'bound':>6}"
    print(header + ("  change" if against else ""))
    for w in workloads:
        summary[w] = {}
        for m in metrics:
            s = summarize(raw[w][m["name"]])
            summary[w][m["name"]] = s
            bound = m.get("bound")
            flag = "" if bound is None or s["spread"] < bound / 3 else "  WIDE"
            line = f"{w:<14} {m['name']:<28} {s['median']:>12.6g} {s['spread']:>8.3f}"
            line += f" {bound if bound is not None else '':>6}"
            old = against.get(w, {}).get(m["name"])
            if old and same_runs and m["name"] in EXACT_COUNTS and old["values"] != s["values"]:
                count_errors.append(f"{w} {m['name']}: {old['values']} then {s['values']}")
            if old and old["median"]:
                change = s["median"] / old["median"] - 1
                worse = change if m["better"] == "lower" else -change
                over = bound is not None and worse > bound
                line += f"  {worse:+.3f}" + ("  WORSE THAN BOUND" if over else "")
            print(line + flag)

    if ns.out:
        record_path = HERE / "out" / f"{workloads[0]}-seed{seeds[0]}-trace{ns.trace}.json"
        env = json.loads(record_path.read_text())["environment"]
        env.pop("seed", None)
        ns.out.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "command": spec["command"],
            "seconds": ns.seconds,
            "trace": ns.trace,
            "seeds": seeds,
            "environment": env,
            "workloads": summary,
        }
        ns.out.write_text(json.dumps(record, indent=2) + "\n")
    for error in count_errors:
        print(f"error: exact count differs between the two sets: {error}", file=sys.stderr)
    return 1 if count_errors else 0


if __name__ == "__main__":
    sys.exit(main())
