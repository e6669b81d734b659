"""Run one workload of the repository benchmark and print its metrics.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that reports the per-layer metrics.  Human-readable lines come
first (with the runtime the programs ran on); the last line of standard
output is the JSON result.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from common import (
    END_TO_END,
    PER_LAYER,
    ROOT,
    SOURCE_DIR,
    THREAD_VARS,
    BenchmarkError,
    Tally,
    cpu_probe_ms,
    emit_result,
    median,
    percentile,
    program_env,
    require_sources,
    runtime_info,
    tail_is_supported,
    tree_rss_mb,
    usable_cpus,
)

BATCH_SCRIPT = Path(__file__).resolve().parent / "batch.py"
SETUP_LAUNCHES = 3
#: Extra seconds a batch child may take beyond its window(s).
BATCH_GRACE = 120.0


def _start_child(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Launch a batch child and wait for ``ready``; returns it with the
    set-up seconds (launch to imports done)."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(BATCH_SCRIPT), *args],
        cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    line = child.stdout.readline().strip()
    took = time.perf_counter() - started
    if line != "ready":
        child.kill()
        child.wait()
        raise BenchmarkError(f"batch child did not start (said {line!r})")
    return child, took


def run_batch(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    arguments = [workload, str(seed), str(seconds), str(int(trace))]
    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        child, took = _start_child([*arguments, "--setup-only"])
        child.wait()
        setups.append(took)
    child, took = _start_child(arguments)
    setups.append(took)
    peak_rss = 0.0
    deadline = time.monotonic() + seconds * (3 if trace else 1) + BATCH_GRACE
    try:
        while child.poll() is None:
            peak_rss = max(peak_rss, tree_rss_mb(child.pid))
            if time.monotonic() > deadline:
                raise BenchmarkError(f"{workload} child overran its time limit")
            time.sleep(0.05)
        output = child.stdout.read()
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
        child.stdout.close()
    if child.returncode != 0 or not output.strip():
        raise BenchmarkError(f"{workload} child failed with exit code {child.returncode}")
    report = json.loads(output.strip().splitlines()[-1])
    summary = report["summary"]
    tally = Tally(**report["tally"])
    latencies = summary["latencies"]
    return {
        "tally": tally,
        "notes": report["notes"],
        "health": None,
        "setups": setups,
        "samples": len(latencies),
        "tail_supported": tail_is_supported(len(latencies)),
        "metrics": {
            "setup_s": median(setups),
            "throughput_rps": summary["requests"] / summary["elapsed"],
            "points_per_s": summary["points"] / summary["elapsed"],
            "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
            "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
            "peak_rss_mb": max(peak_rss, summary["peak_rss_mb"]),
        },
        "layers": report.get("layers"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The benchmark's own in-process replays and checks see the same BLAS
    # threading as the programs it launches.
    given_thread_vars = {var: os.environ.pop(var, None) for var in THREAD_VARS}
    probe_ms = cpu_probe_ms()
    try:
        require_sources()
        sys.path.insert(0, str(SOURCE_DIR))
        workers = usable_cpus()
        if args.workload in wl.SERVING:
            from serving import run_serving

            result = run_serving(args.workload, args.seed, args.seconds, bool(args.trace), workers)
        else:
            result = run_batch(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    tally: Tally = result["tally"]
    runtime = runtime_info(result["health"])
    runtime["benchmark_thread_vars"] = given_thread_vars
    runtime["cpu_probe_ms"] = round(probe_ms, 1)
    metrics = dict(result["metrics"])
    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"
    )
    print("runtime " + json.dumps(runtime, sort_keys=True))
    print(f"  setup_s launches: {', '.join(f'{value:.3f}' for value in result['setups'])}")
    rows = dict(metrics)
    rows["failed_share"] = tally.failed_share
    units = {**END_TO_END, "failed_share": "ratio"}
    if args.workload in wl.SERVING:
        rows.pop("points_per_s")  # one request is one point
    for name, value in rows.items():
        print(f"  {name:<16} {value:12.4f} {units[name]}")
    print(
        f"  attempted {tally.attempted}  failed {tally.failed} {tally.reasons or ''}  "
        f"latency samples {result['samples']}"
        + ("" if result["tail_supported"] else "  (fewer than 10 beyond p99)")
    )
    for note in result["notes"]:
        print(f"  mismatch: {note}")
    correct = "wrong-answer" not in tally.reasons
    if args.trace:
        layers = {name: 0.0 for name in PER_LAYER}
        layers.update(result["layers"] or {})
        for name, value in layers.items():
            print(f"  {name:<36} {value:14.4f} {PER_LAYER[name]}")
        emit_result(correct, tally, layers, PER_LAYER)
    else:
        emit_result(correct, tally, metrics, END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
