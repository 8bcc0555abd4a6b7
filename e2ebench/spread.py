"""Repeat the benchmark and print each metric's spread beside its bound.

Usage (from the repository root)::

    python3 e2ebench/spread.py [--repeat-seed S]

It runs ``BENCHMARK.json``'s command ten times per workload, each run in
its own process, for ``run_seconds``: with seeds ``0 .. 9``, or, with
``--repeat-seed``, with seed ``S`` every time, which shows how
much of the spread is run-to-run noise rather than the seeds' different
inputs.  The workloads take turns (one run of each, then the next
round), so no workload's runs all fall into one stretch of time.  Per
workload and metric it prints the median, the interquartile range as a
share of the median (quartiles as ``statistics.quantiles(values, n=4)``
gives them) and the metric's bound, and flags every spread above a third
of its bound.  It also prints the runs' failed shares, which must be the
same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def spread(values: list) -> tuple:
    """``(median, (Q3 - Q1) / median)`` of a list of values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else float("inf")


def run_once(command: list, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat-seed", type=int, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    results: dict = {w: [] for w in workloads}
    for index in range(RUNS):
        seed = index if args.repeat_seed is None else args.repeat_seed
        for workload in workloads:
            result = run_once(spec["command"], workload, seed,
                              spec["run_seconds"])
            results[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}"
                      for k, v in result["metrics"].items()), flush=True)
    for workload in workloads:
        runs = results[workload]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: failed shares {sorted(shares)}; all correct: "
              f"{all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            median, share = spread([r["metrics"][name]["value"]
                                    for r in runs])
            bound = bounds[name]
            flag = "  <-- above a third of the bound" if share > bound / 3 \
                else ""
            print(f"  {name:28} median {median:<14.6g} spread "
                  f"{share:.4f} bound {bound:.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
