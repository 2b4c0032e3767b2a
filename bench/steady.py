"""Steadiness report: run the benchmark once per workload and seed and
print, for each workload and metric, the median over the runs and the
interquartile spread as a share of the median, next to the host reference
loop of every run, with the attempted and failed operation counts.

    python3 bench/steady.py --seeds 1                # all three workloads once
    python3 bench/steady.py --workloads oracle --seeds 1-10 --seconds 20
    python3 bench/steady.py --workloads query --seeds 1,2,3 --trace 1

Run from the root of a checkout.  The spreads are computed the way
`statistics.quantiles(values, n=4)` gives the quartiles; compare them with
the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    """(median, (Q3 - Q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="sweep,oracle,query",
                        help="comma-separated: sweep, oracle, query")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]

    for workload in args.workloads.split(","):
        if report(workload, parse_seeds(args.seeds), seconds, args.trace):
            return 1
    return 0


def report(workload: str, seeds, seconds: int, trace: int) -> int:
    runs, host = [], []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((Path(".bench_out") /
                             f"run-{workload}-s{seed}-t{trace}.json").read_text())
        runs.append(result)
        host.append(statistics.mean(record["host_ref_loop_ms"]))
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"host.ref_loop_ms={host[-1]:.3f} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"\n{workload}, trace {trace}, {len(runs)} runs of {seconds} s")
    print(f"{'metric':38} {'median':>12} {'IQR/median':>11}")
    for name, meta in runs[0]["metrics"].items():
        med, rel = spread([r["metrics"][name]["value"] for r in runs])
        print(f"{name:38} {med:12.5g} {rel:11.2%}  {meta['unit']}")
    med, rel = spread(host)
    print(f"{'host.ref_loop_ms':38} {med:12.5g} {rel:11.2%}  ms")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share per run: {shares}; all correct: {all(r['correct'] for r in runs)}\n",
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
