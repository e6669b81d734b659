"""Run every experiment of the paper and produce a single text report.

The runner reproduces, in order: the Section-2 trace analysis (Figures 3–4)
and the Section-4 numerical experiments (Figures 5–9).  It is used by the
``examples/reproduce_paper.py`` script and was used to generate
``EXPERIMENTS.md``.  Each experiment can also be run individually through its
``run_figureN`` function; the runner only orchestrates and concatenates.

Every figure evaluates its grid through one shared
:class:`~repro.sweeps.SweepRunner` — and therefore one shared
:class:`~repro.solvers.SolutionCache` — so configurations repeated across
figures are solved once, and ``parallel=True`` lets each grid fan out over
worker processes when its estimated work pays for the pool (the cache
deduplicates repeated points before fan-out).  The quick grids stay
serial.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

from ..sweeps import SweepRunner
from .figure5 import run_figure5
from .figure6 import run_figure6
from .figure7 import run_figure7
from .figure8 import run_figure8
from .figure9 import run_figure9
from .section2 import run_section2


@dataclass(frozen=True)
class ExperimentReport:
    """The rendered report of one experiment.

    Attributes
    ----------
    name:
        Identifier of the experiment (e.g. ``"figure5"``).
    text:
        The plain-text rendering of the result.
    elapsed_seconds:
        Wall-clock time the experiment took.
    result:
        The structured result object, for programmatic use.
    """

    name: str
    text: str
    elapsed_seconds: float
    result: object


def _run_one(name: str, runner: Callable[[], object]) -> ExperimentReport:
    start = time.perf_counter()
    result = runner()
    elapsed = time.perf_counter() - start
    text = result.to_text() if hasattr(result, "to_text") else str(result)
    return ExperimentReport(name=name, text=text, elapsed_seconds=elapsed, result=result)


def run_all_experiments(
    *,
    include_section2: bool = True,
    section2_num_events: int | None = None,
    figure6_simulation_horizon: float = 200_000.0,
    quick: bool = False,
    parallel: bool = False,
    max_workers: int | None = None,
) -> list[ExperimentReport]:
    """Run every experiment and return one report per table/figure.

    Parameters
    ----------
    include_section2:
        Whether to run the (comparatively slow) trace analysis.
    section2_num_events:
        Synthetic-trace size for Section 2; ``None`` uses the full 140,000
        events of the original data set.
    figure6_simulation_horizon:
        Simulated time for the deterministic point of Figure 6.
    quick:
        When True, use reduced parameter grids so the whole suite finishes in
        a couple of minutes (used by smoke tests); the full grids reproduce
        the paper's figures point for point.
    parallel:
        Let each figure grid fan out over worker processes when its
        estimated work pays for the pool (same numbers either way); smaller
        grids, such as every quick-mode one, run serially.
    max_workers:
        Worker-process count for the parallel path (defaults to CPU count).
    """
    sweep_runner = SweepRunner(parallel=parallel, max_workers=max_workers)
    reports: list[ExperimentReport] = []
    if include_section2:
        reports.append(
            _run_one(
                "section2",
                lambda: run_section2(
                    num_events=section2_num_events if not quick else 20_000
                ),
            )
        )
    if quick:
        reports.append(
            _run_one(
                "figure5",
                lambda: run_figure5(
                    arrival_rates=(7.0,),
                    server_counts=tuple(range(10, 14)),
                    solver="geometric",
                    runner=sweep_runner,
                ),
            )
        )
        reports.append(
            _run_one(
                "figure6",
                lambda: run_figure6(
                    arrival_rates=(8.5,),
                    scv_values=(1.0, 4.0, 8.0),
                    simulation_horizon=20_000.0,
                    runner=sweep_runner,
                ),
            )
        )
        reports.append(
            _run_one(
                "figure7",
                lambda: run_figure7(mean_repair_times=(1.0, 3.0, 5.0), runner=sweep_runner),
            )
        )
        reports.append(
            _run_one("figure8", lambda: run_figure8(loads=(0.90, 0.95, 0.99), runner=sweep_runner))
        )
        reports.append(
            _run_one(
                "figure9", lambda: run_figure9(server_counts=(9, 10, 11), runner=sweep_runner)
            )
        )
        return reports

    reports.append(_run_one("figure5", lambda: run_figure5(runner=sweep_runner)))
    reports.append(
        _run_one(
            "figure6",
            lambda: run_figure6(
                simulation_horizon=figure6_simulation_horizon, runner=sweep_runner
            ),
        )
    )
    reports.append(_run_one("figure7", lambda: run_figure7(runner=sweep_runner)))
    reports.append(_run_one("figure8", lambda: run_figure8(runner=sweep_runner)))
    reports.append(_run_one("figure9", lambda: run_figure9(runner=sweep_runner)))
    return reports


def render_report(reports: list[ExperimentReport]) -> str:
    """Concatenate experiment reports into one document."""
    sections = []
    for report in reports:
        header = f"## {report.name}  (took {report.elapsed_seconds:.1f}s)"
        sections.append(header + "\n\n" + report.text)
    return "\n\n\n".join(sections)
