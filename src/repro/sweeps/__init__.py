"""Declarative, parallel parameter sweeps over the queueing model.

The paper's Section-4 results are all parameter sweeps — queue length against
the number of servers, against the mean repair time, against the operative
squared coefficient of variation, cost against ``N``.  This package provides
the one engine behind all of them (and behind user-defined grids via the
``repro sweep`` CLI subcommand):

* :class:`SweepSpec` — a grid over model parameters plus a solver policy;
* :class:`SolverPolicy` — which solver to try first (``spectral`` by
  default) and the fallback order on failure (``geometric``, ``ctmc``,
  ``simulate``); this is :class:`repro.solvers.SolverPolicy`, re-exported —
  dispatch, fallback and caching all live in :mod:`repro.solvers`;
* :class:`SweepRunner` — evaluates the grid through
  :func:`repro.solvers.solve_many`, serially or, with ``parallel=True``,
  across worker processes when the grid's estimated work pays for the pool,
  memoising each distinct configuration in a
  :class:`~repro.solvers.SolutionCache`;
* :class:`SweepResultSet` / :class:`SweepResult` — structured rows with
  CSV/JSON export.

Example
-------

>>> from repro.queueing import sun_fitted_model
>>> from repro.sweeps import SweepRunner, SweepSpec
>>> spec = SweepSpec(
...     base_model=sun_fitted_model(num_servers=10, arrival_rate=7.0),
...     axes=[("num_servers", (9, 10, 11, 12))],
... )
>>> results = SweepRunner(parallel=True).run(spec)  # doctest: +SKIP
>>> results.metric_column("mean_queue_length")  # doctest: +SKIP
[...]
"""

from .results import SweepResult, SweepResultSet
from .runner import SweepRunner, cache_key, default_max_workers, evaluate_point, run_sweep
from .spec import (
    KNOWN_SOLVERS,
    MODEL_FIELDS,
    SOLVER_AXIS,
    TIME_AXIS,
    SolverPolicy,
    SweepAxis,
    SweepPoint,
    SweepSpec,
    TimeGridAxis,
)

__all__ = [
    "KNOWN_SOLVERS",
    "MODEL_FIELDS",
    "SOLVER_AXIS",
    "TIME_AXIS",
    "SolverPolicy",
    "SweepAxis",
    "SweepPoint",
    "SweepSpec",
    "TimeGridAxis",
    "SweepRunner",
    "SweepResult",
    "SweepResultSet",
    "cache_key",
    "default_max_workers",
    "evaluate_point",
    "run_sweep",
]
