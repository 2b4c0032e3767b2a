"""coxhull benchmark: cold sweeps, the closure oracle and cold hull queries.

    python3 bench/run.py --workload {sweep,oracle,query} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.
Each operation runs in a fresh worker interpreter (`worker.py`), and its
answer is checked against references computed apart from the program
(`reference.py`).  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  A full
record of the run, and with `--trace 1` the spans, go to `.bench_out/`.
See README.md for the workloads, the metrics and what each one shows.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from reference import TYPES  # noqa: E402
from spans import HULL_SPANS  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
WORKERS = 4                  # oracle and query: set-up repeats this often per run
RUN_LIMIT_S = 170            # a run must end within 180 s, hung workers included
_STARTED = time.monotonic()
TOUR_ROUNDS = {"oracle": 10, "query": 6, "sweep": 1}

END_TO_END = {"triples_per_s": "1/s", "p50_ms": "ms", "p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics read from span self times: metric -> (span, home), where
# home is the workload whose tour supplies the spans when the named workload's
# own calls do not reach that layer.
SPAN_METRICS = {
    "tessellation.context_build_ms": ("tessellation.context_build", "query"),
    "tessellation.ball_ms": ("tessellation.ball", "sweep"),
    "tessellation.chamber_from_word_ms": ("tessellation.chamber_from_word", "query"),
    "tessellation.word_of_ms": ("tessellation.word_of", "query"),
    "formulas.point_location_ms": ("formulas.point_location", "query"),
    "convexity.pair_hull_ms": ("convexity.pair_hull", "query"),
    "convexity.triple_hull_ms": ("convexity.triple_hull", "query"),
    "convexity.closure_hull_ms": ("convexity.closure_hull", "oracle"),
    "convexity.checked_hull_ms": ("convexity.checked_hull", "oracle"),
    "convexity.strong_hull_check_ms": ("convexity.strong_hull_check", "query"),
    "convexity.report_json_ms": ("convexity.report_json", "sweep"),
}
PER_LAYER_UNITS = {**{m: "ms" for m in SPAN_METRICS},
                   "convexity.hull_us_per_chamber": "us",
                   "convexity.hull_chambers": "count",
                   "convexity.sweep_kernel_s": "s",
                   "convexity.sweep_oracle_s": "s",
                   "host.ref_loop_ms": "ms",
                   "trace.overhead_pct": "%"}


class WorkerFailed(RuntimeError):
    pass


def ref_loop_ms() -> float:
    """A fixed pure-Python loop; its median shows how fast the host ran.
    No metric is divided by it."""
    times = []
    for _ in range(9):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def spawn(params: dict, label: str, trace_dir) -> dict:
    """Run one worker interpreter to its end and return its result; with a
    trace directory, the worker writes its spans there."""
    if trace_dir is not None:
        params = {**params, "trace_path": str(trace_dir / f"{label}.jsonl")}
    left = RUN_LIMIT_S - (time.monotonic() - _STARTED)
    if left <= 0:
        raise WorkerFailed(f"no time left for worker {label}")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(params)],
                          cwd=ROOT, capture_output=True, text=True, timeout=left)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker {label} exited with {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["label"] = label
    return res


# -- the three workloads ----------------------------------------------------------

def run_sweep(seed: int, trace_mode: int, budget: dict, trace_dir):
    """Rounds of one fresh-interpreter sweep per planar type; a traced round
    also runs each type's sweep without its oracle sample.  When tracing
    alternates, a traced round repeats the sweep seeds of the round before."""
    out = []
    for r in inputs.round_numbers(budget, trace_mode):
        traced = trace_mode == 2 or (trace_mode == 1 and r % 2 == 1)
        sweep_seed = inputs.sweep_seed(seed, r - r % 2 if trace_mode == 1 else r)
        for tag in TYPES:
            for mode in ("default", "kernel") if traced else ("default",):
                params = {"workload": "sweep", "tag": tag, "seed": seed, "round": r,
                          "sweep_seed": sweep_seed, "mode": mode, "trace": trace_mode}
                res = spawn(params, f"sweep-r{r}-{tag}-{mode}", trace_dir if traced else None)
                res.update(round=r, mode=mode, traced=traced)
                out.append(res)
    return out


def run_pool(workload: str, seed: int, trace_mode: int, budget: dict, trace_dir):
    """WORKERS fresh interpreters in turn, each with a share of the time;
    or one interpreter for a fixed number of rounds."""
    if "rounds" in budget:
        budgets = [(WORKERS, budget)]
    else:
        budgets = [(i, {"seconds": budget["seconds"] / WORKERS}) for i in range(WORKERS)]
    return [spawn({"workload": workload, "seed": seed, "index": i, "budget": b,
                   "trace": trace_mode}, f"{workload}-w{i}", trace_dir)
            for i, b in budgets]


def run_workload(workload: str, seed: int, trace_mode: int, budget: dict, trace_dir=None):
    runner = run_sweep if workload == "sweep" else functools.partial(run_pool, workload)
    return runner(seed, trace_mode, budget, trace_dir)


# -- metrics ------------------------------------------------------------------------

def _ops(results, traced=None):
    return [op for res in results for op in res["ops"]
            if op[0] != "kernel" and (traced is None or op[5] == traced)]


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ok_ops(results):
    return [op for op in _ops(results, traced=False) if op[4] == "ok"]


def end_to_end(workload: str, results) -> dict:
    """Throughput and latency percentiles over all the run's checked
    operations; set-up time as the median over the run's set-ups."""
    ops = _ok_ops(results)
    lat_ms = [op[2] * 1000 for op in ops]
    if workload == "sweep":
        setups = {}
        for res in results:
            setups[res["round"]] = setups.get(res["round"], 0) + res["setup_s"]
        setup = statistics.median(setups.values())
    else:
        setup = statistics.median(res["setup_s"] for res in results)
    return {
        "triples_per_s": sum(op[3] for op in ops) / sum(op[2] for op in ops),
        "p50_ms": statistics.median(lat_ms),
        "p90_ms": _quantile(lat_ms, 90) if len(lat_ms) > 1 else lat_ms[0],
        "setup_s": setup,
        "peak_rss_mb": max(res["rss_mb"] for res in results),
    }


def _merged_layers(results):
    merged = {}
    for res in results:
        for name, vals in res["layers"].items():
            merged.setdefault(name, []).extend(vals)
    return merged


def _sweep_split(results):
    """Median over traced rounds of the summed kernel-only sweep time and of
    the summed default-minus-kernel time, over the three types."""
    by_round = {}
    for res in results:
        if res["traced"]:
            row = by_round.setdefault(res["round"], {"default": 0.0, "kernel": 0.0})
            row[res["mode"]] += sum(op[2] for op in res["ops"])
    kernel = [row["kernel"] for row in by_round.values()]
    oracle = [row["default"] - row["kernel"] for row in by_round.values()]
    return statistics.median(kernel), statistics.median(oracle)


def per_layer(workload: str, native, tours: dict, host_ms: float) -> dict:
    """Each layer metric from the named workload's own spans where its calls
    reach that layer, otherwise from the tour of the layer's home workload."""
    own = _merged_layers(native)
    toured = {name: _merged_layers(res) for name, res in tours.items()}
    metrics = {}
    for metric, (span, home) in SPAN_METRICS.items():
        vals = own.get(span) or toured[home][span]
        metrics[metric] = statistics.median(ns for ns, _ in vals) / 1e6
    hull_vals = [v for s in HULL_SPANS for v in own.get(s, [])]
    metrics["convexity.hull_us_per_chamber"] = (
        sum(ns for ns, _ in hull_vals) / sum(ch for _, ch in hull_vals) / 1000)
    if workload == "sweep":
        first = min(res["round"] for res in native if res["traced"])
        metrics["convexity.hull_chambers"] = sum(
            res["hull_chambers"] for res in native if res["round"] == first)
    else:
        metrics["convexity.hull_chambers"] = sum(res["hull_chambers"] for res in native)
    sweeps = native if workload == "sweep" else tours["sweep"]
    metrics["convexity.sweep_kernel_s"], metrics["convexity.sweep_oracle_s"] = _sweep_split(sweeps)
    metrics["host.ref_loop_ms"] = host_ms
    metrics["trace.overhead_pct"] = 100 * (trace_ratio(native) - 1)
    return metrics


def trace_ratio(results) -> float:
    """Traced over untraced latency: the ratio of the median latencies of
    each operation kind and type, averaged geometrically."""
    groups = {}
    for kind, tag, seconds, _, _, traced in _ops(results):
        groups.setdefault((kind, tag), ([], []))[traced].append(seconds)
    return statistics.geometric_mean(
        statistics.median(on) / statistics.median(off)
        for off, on in groups.values() if on and off)


# -- entry point ---------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "oracle", "query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coxhull" / "__init__.py").is_file():
        print("error: run from the root of a coxhull checkout (src/coxhull is missing)",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    trace_dir = None
    if args.trace:
        trace_dir = OUT / f"trace-{args.workload}-s{args.seed}"
        trace_dir.mkdir(exist_ok=True)

    host_start = ref_loop_ms()
    try:
        native = run_workload(args.workload, args.seed, args.trace,
                              {"seconds": args.seconds}, trace_dir)
        tours = {}
        if args.trace:
            for other in ("sweep", "oracle", "query"):
                if other != args.workload:
                    tours[other] = run_workload(other, args.seed, 2,
                                                {"rounds": TOUR_ROUNDS[other]}, trace_dir)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    host_end = ref_loop_ms()
    host_ms = (host_start + host_end) / 2

    everything = native + [r for res in tours.values() for r in res]
    ops = [op for res in everything for op in res["ops"]]
    failed = sum(op[4] != "ok" for op in ops)
    wrong = sum(res["wrong"] for res in everything)
    problems = [p for res in everything for p in res["side_problems"] + res["problems"]]
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    if args.trace:
        values = per_layer(args.workload, native, tours, host_ms)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(args.workload, native)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(f"host.ref_loop_ms start {host_start:.3f} end {host_end:.3f}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host_ref_loop_ms": [host_start, host_end],
              "problems": problems, "metrics": metrics,
              "workers": [{k: v for k, v in res.items() if k != "layers"}
                          for res in everything]}
    (OUT / f"run-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    correct = wrong == 0 and not any(res["side_problems"] for res in everything)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
