"""Shared pieces of the benchmark: metric names, statistics, failure
accounting, the launched programs' environment and process-tree probes.

Nothing here imports the program under test (``repro``) or numpy, so the
load generator stays free of BLAS thread pools while it measures.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent

#: Where the program's sources live inside the checkout.
SOURCE_DIR = ROOT / "src"

#: BLAS/OpenMP thread variables removed from every launched program, so the
#: numbers measure the program's own threading default.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics (``--trace 0``), name -> unit.  Every workload reports
#: all of them; see README.md for what a request and a point are.
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "points_per_s": "points/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``), name -> unit.  A layer the workload does
#: not exercise reports 0.
PER_LAYER = {
    "protocol.parse_us": "us",
    "protocol.encode_us": "us",
    "sharding.route_us": "us",
    "sharding.pipe_hop_ms.p50": "ms",
    "sharding.pipe_hop_ms.p99": "ms",
    "sharding.routed_skew": "ratio",
    "scheduler.queue_wait_ms.p50": "ms",
    "scheduler.queue_wait_ms.p99": "ms",
    "scheduler.batch_size": "count",
    "scheduler.shed_share": "ratio",
    "scheduler.coalesced_share": "ratio",
    "cache.lookup_ms.p50": "ms",
    "cache.lookup_ms.p99": "ms",
    "cache.key_us": "us",
    "cache.hit_ratio": "ratio",
    "facade.batch_solve_ms.p50": "ms",
    "facade.batch_solve_ms.p99": "ms",
    "facade.attempts_per_solve": "ratio",
    "facade.warm_start_hit_ratio": "ratio",
    "facade.parallel_efficiency": "ratio",
    "facade.pool_spawns": "count/round",
    "spectral.matrices_ms": "ms",
    "spectral.eigen_ms.p50": "ms",
    "spectral.eigen_ms.p99": "ms",
    "spectral.boundary_ms.p50": "ms",
    "spectral.boundary_ms.p99": "ms",
    "geometric.solve_ms": "ms",
    "kernels.assemble_ms": "ms",
    "kernels.steady_state_ms": "ms",
    "kernels.iad_sweeps": "count",
    "ctmc.truncation_growths_per_solve": "ratio",
    "transient.uniformization_ms": "ms",
    "transient.steps": "count",
    "transient.first_passage_ms": "ms",
    "simulation.run_ms": "ms",
    "process.cpu_ms_per_op": "ms",
    "trace.overhead_share": "ratio",
}

NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Relative tolerance for analytic values against stored references.
REFERENCE_RTOL = 1e-6

#: Percentile reported as the latency tail, and how many samples must lie
#: beyond it for the estimate to count.
TAIL_QUANTILE = 0.99
MIN_SAMPLES_BEYOND = 10


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, a program that will
    not start); reported on stderr with a non-zero exit and no result."""


# -- statistics ---------------------------------------------------------------


def percentile(values: list[float], quantile: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, quantile: float) -> int:
    """How many of ``count`` samples lie strictly beyond the nearest-rank
    ``quantile``."""
    return count - max(1, math.ceil(quantile * count))


def tail_is_supported(count: int, quantile: float = TAIL_QUANTILE) -> bool:
    """Whether ``count`` samples leave at least ten beyond ``quantile``."""
    return samples_beyond(count, quantile) >= MIN_SAMPLES_BEYOND


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def relative_close(actual: float, expected: float, rtol: float = REFERENCE_RTOL) -> bool:
    """``actual`` within ``rtol`` of ``expected`` (absolute near zero)."""
    if not (math.isfinite(actual) and math.isfinite(expected)):
        return actual == expected
    return abs(actual - expected) <= rtol * max(abs(expected), 1e-12)


# -- failure accounting --------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, with the reason of each failure.

    Every attempt ends in exactly one :meth:`ok` or :meth:`fail`; nothing is
    retried.  A wrong answer found by a later check is moved from ok to
    failed with :meth:`mark_wrong`.
    """

    attempted: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def mark_wrong(self, count: int = 1) -> None:
        self.failed += count
        self.reasons["wrong-answer"] = self.reasons.get("wrong-answer", 0) + count

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for reason, count in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + count

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def http_failure_reason(status: int) -> str:
    """The failure class of a non-200 HTTP status."""
    if status == 429:
        return "refused-429"
    if status >= 500:
        return f"server-{status}"
    return f"http-{status}"


# -- the launched programs -----------------------------------------------------


def require_sources() -> None:
    """Fail fast when the checkout has no program to measure."""
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources under {SOURCE_DIR}; nothing to measure")


def program_env() -> dict[str, str]:
    """The environment of every launched program: the caller's, minus the
    BLAS thread variables, with the checkout's sources importable."""
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    env["PYTHONPATH"] = str(SOURCE_DIR)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def cpu_probe_ms() -> float:
    """Milliseconds of a fixed pure-Python loop: how fast this host ran
    when the run started (shared hosts drift by 2x from hour to hour)."""
    started = time.perf_counter()
    sum(range(3_000_000))
    return (time.perf_counter() - started) * 1e3


def runtime_info(health: dict | None = None) -> dict:
    """What the measured programs ran on: CPUs, versions, BLAS, thread
    variables.  Imports numpy and scipy, so call it outside timed windows."""
    import numpy
    import scipy

    def blas(module: object) -> dict:
        try:
            config = module.show_config(mode="dicts")  # type: ignore[attr-defined]
            found = config.get("Build Dependencies", {}).get("blas", {})
        except (TypeError, AttributeError):
            return {}
        return {
            key: found.get(key)
            for key in ("name", "version", "openblas configuration")
            if key in found
        }

    env = program_env()
    info = {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "program_thread_vars": {var: env.get(var) for var in THREAD_VARS},
    }
    if health is not None:
        info["healthz"] = health
    return info


# -- process tree probes (Linux /proc) ---------------------------------------------


def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name sits in parentheses and may contain spaces.
    return raw[raw.rindex(")") + 2 :].split()


def tree_pids(root: int) -> list[int]:
    """``root`` and every live descendant."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parents.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [root], [root]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def tree_rss_mb(root: int) -> float:
    """Resident set of the live process tree under ``root``, in MB."""
    total_kb = 0
    for pid in tree_pids(root):
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmRSS:"):
                    total_kb += int(line.split()[1])
                    break
        except OSError:
            continue
    return total_kb / 1024.0


def tree_cpu_seconds(root: int) -> float:
    """CPU time of the live tree under ``root``, including reaped children
    (their time is in each parent's ``cutime``/``cstime``)."""
    ticks = 0
    for pid in tree_pids(root):
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += sum(int(value) for value in fields[11:15])
    return ticks / os.sysconf("SC_CLK_TCK")


# -- the result line -----------------------------------------------------------------


def emit_result(
    correct: bool, tally: Tally, metrics: dict[str, float], units: dict[str, str]
) -> None:
    """Print the one-line JSON result the benchmark contract asks for."""
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchmarkError(f"metrics not measured: {', '.join(missing)}")
    payload = {
        "correct": bool(correct),
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()
