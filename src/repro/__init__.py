"""repro — reproduction of Palmer & Mitrani, "Empirical and Analytical
Evaluation of Systems with Multiple Unreliable Servers" (DSN 2006).

The library models clusters of parallel servers that alternate between
operative and inoperative periods, evaluates their performance exactly by
spectral expansion of the underlying Markov-modulated queue, approximates it
with the heavy-load geometric law, validates both against a truncated-CTMC
solver and a discrete-event simulator, and reproduces the paper's empirical
trace analysis and every numerical experiment (Figures 3–9).

Quickstart
----------

>>> from repro import UnreliableQueueModel
>>> from repro.distributions import SUN_OPERATIVE_FIT, Exponential
>>> model = UnreliableQueueModel(
...     num_servers=10,
...     arrival_rate=7.0,
...     service_rate=1.0,
...     operative=SUN_OPERATIVE_FIT,
...     inoperative=Exponential(rate=25.0),
... )
>>> solution = model.solve_spectral()
>>> round(solution.mean_response_time, 3)  # doctest: +SKIP
1.31

Subpackages
-----------

:mod:`repro.distributions`
    Exponential, hyperexponential and supporting distributions.
:mod:`repro.stats`
    Empirical densities, moments and the Kolmogorov–Smirnov test.
:mod:`repro.fitting`
    Moment-matching, brute-force, iterative and EM distribution fitting.
:mod:`repro.data`
    Breakdown-trace model, synthetic Sun-like trace generation, CSV I/O.
:mod:`repro.markov`
    Operational-mode enumeration, the Markovian environment, CTMC solvers.
:mod:`repro.spectral`
    The spectral-expansion solver and the geometric approximation.
:mod:`repro.blas`
    The one-BLAS-thread scope every spectral solve runs in, and the BLAS
    runtime report.
:mod:`repro.queueing`
    The model front end, the truncated-CTMC reference solver and M/M/c
    baselines.
:mod:`repro.simulation`
    Discrete-event simulation with batch-means output analysis.
:mod:`repro.optimization`
    Cost optimisation and capacity planning.
:mod:`repro.solvers`
    Unified solver dispatch: the registry of named backends, the
    fallback-chain facade (:func:`repro.solvers.solve`) and the shared,
    process-safe solution cache.
:mod:`repro.scenarios`
    The scenario library: heterogeneous server groups, limited repair
    crews and named presets, solved by the scenario-aware backends.
:mod:`repro.sweeps`
    Declarative, parallel parameter sweeps built on :mod:`repro.solvers`.
:mod:`repro.transient`
    Time-dependent analysis: uniformization ``pi(t)`` distributions,
    availability and first-passage metrics, ensemble transient simulation.
:mod:`repro.query`
    The request vocabulary shared by the command line and the service: the
    model's six fields, declared once, and the request-body parser.
:mod:`repro.service`
    The async solver service: JSON-over-HTTP queries scheduled onto the
    solver facade with single-flight coalescing, batch windows and
    admission-control backpressure (``repro serve``).
:mod:`repro.experiments`
    One driver per table/figure of the paper (built on :mod:`repro.sweeps`).
"""

from .distributions import (
    SUN_INOPERATIVE_FIT,
    SUN_OPERATIVE_FIT,
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
    HyperExponential,
    PhaseType,
)
from .exceptions import (
    DataError,
    FittingError,
    ParameterError,
    ReproError,
    SimulationError,
    SolverError,
    UnstableQueueError,
    UnsupportedScenarioError,
)
from .queueing import (
    PerformanceSummary,
    QueueSolution,
    UnreliableQueueModel,
    sun_fitted_model,
)
from .scenarios import (
    ScenarioModel,
    ServerGroup,
    preset_names,
    scenario_preset,
)
from .solvers import SolutionCache, SolveOutcome, Solver, SolverPolicy, register_solver
from .solvers import solve as solve_model
from .spectral import (
    GeometricSolution,
    SpectralSolution,
    solve_geometric,
    solve_spectral,
)
from .transient import (
    FirstPassageSolution,
    TransientEnsembleEstimate,
    TransientSolution,
    first_passage_time,
    simulate_transient,
    solve_transient,
)

__version__ = "1.0.0"


def package_version() -> str:
    """The installed distribution's version, falling back to the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro-unreliable-servers")
    except PackageNotFoundError:
        return __version__


__all__ = [
    "__version__",
    "package_version",
    # distributions
    "Distribution",
    "Exponential",
    "HyperExponential",
    "Erlang",
    "Deterministic",
    "PhaseType",
    "SUN_OPERATIVE_FIT",
    "SUN_INOPERATIVE_FIT",
    # model and solutions
    "UnreliableQueueModel",
    "sun_fitted_model",
    "QueueSolution",
    "PerformanceSummary",
    "SpectralSolution",
    "solve_spectral",
    "GeometricSolution",
    "solve_geometric",
    # scenario library
    "ScenarioModel",
    "ServerGroup",
    "scenario_preset",
    "preset_names",
    # transient analysis
    "TransientSolution",
    "FirstPassageSolution",
    "TransientEnsembleEstimate",
    "solve_transient",
    "first_passage_time",
    "simulate_transient",
    # solver registry and facade
    "Solver",
    "SolverPolicy",
    "SolveOutcome",
    "SolutionCache",
    "register_solver",
    "solve_model",
    # exceptions
    "ReproError",
    "ParameterError",
    "UnstableQueueError",
    "SolverError",
    "UnsupportedScenarioError",
    "FittingError",
    "DataError",
    "SimulationError",
]
