"""Evaluation engine for parameter sweeps.

The :class:`SweepRunner` turns a :class:`~repro.sweeps.spec.SweepSpec` into a
:class:`~repro.sweeps.results.SweepResultSet`.  All evaluation semantics —
the spectral → geometric → ctmc → simulate solver fallback, memoisation and
process-parallel fan-out — live in :mod:`repro.solvers`; the runner's job is
purely to expand the grid, push the batch through
:func:`repro.solvers.solve_many` with its :class:`~repro.solvers.SolutionCache`,
and shape the outcomes into result rows:

* **solver fallback** — each point is evaluated with the first solver of its
  policy that succeeds (see :func:`repro.solvers.evaluate`);
* **process parallelism** — grid points are independent, so with
  ``parallel=True`` they may fan out over a
  :class:`concurrent.futures.ProcessPoolExecutor`: they do when the grid's
  estimated work pays for the pool (see :func:`repro.solvers.solve_many`),
  and run serially in-process otherwise.  The serial path is
  byte-for-byte deterministic with the parallel one because every evaluation
  is a pure function of ``(model, policy)``;
* **caching** — outcomes are memoised in a :class:`~repro.solvers.SolutionCache`
  keyed by the full model parameterisation and the policy.  Repeated grid
  points are solved exactly once per batch — the cache deduplicates pending
  work *before* parallel fan-out, so duplicates never reach the worker pool —
  and a runner (or cache) shared across sweeps solves each distinct
  configuration once globally.

Unstable models are not errors: they produce rows with ``stable=False`` and
infinite queue-length/response-time metrics, which is what cost curves over a
server-count axis expect.
"""

from __future__ import annotations

from ..exceptions import ParameterError
from ..scenarios.model import ScenarioModel
from ..solvers import (
    SolutionCache,
    SolveOutcome,
    SolverPolicy,
    default_max_workers,
    evaluate,
    solution_cache_key,
    solve_many,
)
from .results import SweepResult, SweepResultSet
from .spec import SweepSpec

def cache_key(model: ScenarioModel, policy: SolverPolicy) -> tuple:
    """The memoisation key of one evaluation: full model parameters + policy."""
    return solution_cache_key(model, policy)


def evaluate_point(model: ScenarioModel, policy: SolverPolicy) -> SolveOutcome:
    """Evaluate one model under a policy; pure function of its arguments.

    Thin alias of :func:`repro.solvers.evaluate`, kept because the sweep
    engine exposed it first.
    """
    return evaluate(model, policy)


class SweepRunner:
    """Evaluates sweep specs, optionally in parallel, with result caching.

    Parameters
    ----------
    parallel:
        Let grid points fan out over worker processes when the grid's
        estimated work pays for the pool (smaller grids run serially).  The
        results are identical to the serial path; only wall-clock time
        changes.
    max_workers:
        Worker-process count (defaults to the usable CPU count).
    cache:
        ``True`` (default) memoises outcomes in a runner-private
        :class:`~repro.solvers.SolutionCache`; ``False`` disables
        memoisation; an explicit :class:`~repro.solvers.SolutionCache`
        instance is used as-is, so several runners (or other call sites using
        :func:`repro.solvers.solve`) can share one cache.
    """

    def __init__(
        self,
        *,
        parallel: bool = False,
        max_workers: int | None = None,
        cache: bool | SolutionCache = True,
    ) -> None:
        self._parallel = bool(parallel)
        self._max_workers = max_workers if max_workers is not None else default_max_workers()
        if self._max_workers < 1:
            raise ParameterError(f"max_workers must be >= 1, got {max_workers}")
        if isinstance(cache, SolutionCache):
            self._cache = cache
        else:
            self._cache = SolutionCache(enabled=bool(cache))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def parallel(self) -> bool:
        """Whether grid points may fan out over worker processes."""
        return self._parallel

    @property
    def max_workers(self) -> int:
        """The worker-process count used when parallel."""
        return self._max_workers

    @property
    def cache(self) -> SolutionCache:
        """The solution cache backing this runner (possibly disabled)."""
        return self._cache

    def cache_info(self) -> dict[str, int]:
        """Hit/miss counters and the current number of cached outcomes."""
        stats = self._cache.stats()
        return {"hits": stats["hits"], "misses": stats["misses"], "size": stats["size"]}

    def clear_cache(self) -> None:
        """Drop all memoised outcomes (counters are reset too)."""
        self._cache.clear()

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def run(self, spec: SweepSpec) -> SweepResultSet:
        """Evaluate every grid point of ``spec`` and return the result set."""
        points = list(spec.expand())
        outcomes = solve_many(
            (point.model for point in points),
            [point.policy for point in points],
            parallel=self._parallel,
            max_workers=self._max_workers,
            cache=self._cache,
        )
        results = [
            SweepResult(
                index=point.index,
                parameters=dict(point.parameters),
                solver=outcome.solver,
                stable=outcome.stable,
                metrics=dict(outcome.metrics),
                error=outcome.error,
            )
            for point, outcome in zip(points, outcomes)
        ]
        return SweepResultSet(results, axis_names=spec.axis_names, name=spec.name)


def run_sweep(
    spec: SweepSpec,
    *,
    parallel: bool = False,
    max_workers: int | None = None,
) -> SweepResultSet:
    """One-shot convenience wrapper: build a runner, run one spec."""
    return SweepRunner(parallel=parallel, max_workers=max_workers).run(spec)
