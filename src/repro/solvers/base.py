"""The :class:`Solver` protocol and the normalised :class:`SolveOutcome`.

Every steady-state backend of the library — the exact spectral expansion, the
heavy-load geometric approximation, the truncated-CTMC reference and the
discrete-event simulator — answers the same questions about a
:class:`~repro.scenarios.ScenarioModel`, the paper's pool included.  A
:class:`Solver` wraps one such backend behind a uniform surface:

* ``name`` — the registry key users put in solver policies;
* :meth:`Solver.supports` — a cheap capability check against a model (the
  analytical solvers require a Markovian environment, the simulator accepts
  anything);
* :meth:`Solver.solve` — run the backend and return its native solution
  object (a :class:`~repro.queueing.solution_base.QueueSolution` subclass, or
  the simulator's estimate record);
* :meth:`Solver.metrics` — normalise a native solution into the flat metric
  mapping the sweep engine, the cost optimiser and the CLI consume;
* :meth:`Solver.work_estimate` — an optional cost hint that decides whether
  a ``parallel=True`` batch is worth a process pool.

Third parties subclass :class:`Solver` and register instances with
:func:`repro.solvers.register_solver`; registered names participate in
fallback policies exactly like the built-in backends.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.model import ScenarioModel
    from .policy import SolverPolicy

#: Metrics reported for unstable models: the queue grows without bound.
INFINITE_METRICS: dict[str, float] = {
    "mean_queue_length": float("inf"),
    "mean_response_time": float("inf"),
}

class SimulateDefaults(NamedTuple):
    """Default simulation options, shared by :class:`~repro.solvers.SolverPolicy`
    field defaults and the simulation backend's keyword defaults so the two
    cannot drift apart."""

    horizon: float = 50_000.0
    warmup_fraction: float = 0.1
    num_batches: int = 10
    seed: int = 0


#: The shared defaults instance both the policy and the backend read.
SIMULATE_DEFAULTS = SimulateDefaults()


class SolveOutcome(NamedTuple):
    """The normalised result of evaluating one model under a solver policy.

    The class is a named tuple on purpose: outcomes are stored in the shared
    :class:`~repro.solvers.cache.SolutionCache`, shipped between worker
    processes during parallel fan-out, and unpacked positionally by older
    call sites (``solver, stable, metrics, error = outcome``).

    Attributes
    ----------
    solver:
        Name of the solver that produced the metrics; ``None`` when the model
        was unstable or every solver in the policy failed.
    stable:
        Whether the model satisfied the stability condition (paper Eq. 11).
        Unstable models are not errors: they carry infinite metrics.
    metrics:
        Flat mapping of metric name to value (``mean_queue_length``,
        ``mean_response_time``, plus solver-specific extras such as
        ``decay_rate`` or ``utilisation``).
    error:
        Concatenated per-solver failure messages when no solver succeeded.
    """

    solver: str | None
    stable: bool
    metrics: dict[str, float]
    error: str | None

    @property
    def ok(self) -> bool:
        """Whether the outcome carries usable metrics."""
        return self.error is None


class Solver(abc.ABC):
    """One steady-state backend, dispatchable by name through the registry.

    Subclasses set :attr:`name` and implement :meth:`solve` and
    :meth:`metrics`; :meth:`supports` defaults to accepting every model and
    should be overridden by backends with structural requirements.
    """

    #: Registry key of the solver; must be unique within a registry.
    name: str = ""

    #: Whether the backend evaluates :class:`~repro.scenarios.ScenarioModel`
    #: instances (heterogeneous server groups, limited repair crews) — the
    #: declared scenario contract the ``RPR004`` lint rule checks for.
    #: Backends that *touch* scenario models must either set this or raise
    #: :class:`~repro.exceptions.UnsupportedScenarioError` so fallback chains
    #: can skip them deterministically.
    supports_scenarios: bool = False

    #: Whether :meth:`solve` accepts a ``warm_start`` keyword carrying the
    #: native solution of a *nearby* model (same family).  The serial path of
    #: :func:`~repro.solvers.facade.solve_many` orders grid points by
    #: parameter distance and seeds each solve from its nearest solved
    #: neighbour when the winning solver declares this.
    supports_warm_start: bool = False

    def supports(self, model: "ScenarioModel") -> bool:
        """Whether this solver can evaluate ``model`` at all.

        This is a *structural* check (e.g. "the period distributions admit a
        Markovian environment"), not a prediction of numerical success; a
        supported model may still raise
        :class:`~repro.exceptions.SolverError` from :meth:`solve`, which the
        fallback chain treats the same way.
        """
        return True

    def unsupported_reason(self, model: "ScenarioModel") -> str:
        """A human-readable reason why :meth:`supports` returned False."""
        return f"model not supported by the {self.name!r} solver"

    @abc.abstractmethod
    def solve(self, model: "ScenarioModel", **options: object) -> object:
        """Evaluate ``model`` and return the backend's native solution object."""

    @abc.abstractmethod
    def metrics(self, solution: object) -> dict[str, float]:
        """Normalise a native solution into the flat metric mapping."""

    def work_estimate(self, model: "ScenarioModel") -> float | None:
        """The estimated cost of solving ``model``, or ``None`` when unknown.

        The unit is the spectral solver's ``N·s³`` (servers times modes
        cubed).  With ``parallel=True``,
        :func:`~repro.solvers.facade.solve_many` sums the estimates of each
        task's first solver and fans the batch out over worker processes
        only when the sum reaches
        :data:`~repro.solvers.facade.POOL_BREAK_EVEN_WORK`; one unknown
        estimate (the default) always fans out.
        """
        return None

    def options_from_policy(self, policy: "SolverPolicy") -> dict[str, object]:
        """Extract this solver's keyword options from a policy.

        The base implementation returns no options; the simulation backend
        overrides it to pick up the ``simulate_*`` policy fields.
        """
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
