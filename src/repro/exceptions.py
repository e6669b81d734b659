"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised deliberately by the library derive from
:class:`ReproError`, so that callers can distinguish library failures from
programming errors with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all exceptions raised by the :mod:`repro` library."""


class ParameterError(ReproError, ValueError):
    """A model or distribution parameter is invalid.

    Raised, for example, when a rate is non-positive, a probability vector
    does not sum to one, or the number of servers is not a positive integer.
    """


class UnstableQueueError(ReproError):
    """The queue described by the model parameters is not ergodic.

    The stability condition of the Palmer–Mitrani model (paper Eq. 11) is
    ``lambda / mu < N * eta / (xi + eta)``.  Solvers that require a steady
    state raise this exception when the condition is violated.
    """

    def __init__(self, offered_load: float, effective_servers: float) -> None:
        self.offered_load = float(offered_load)
        self.effective_servers = float(effective_servers)
        super().__init__(
            "queue is unstable: offered load {:.6g} is not smaller than the "
            "average number of operative servers {:.6g}".format(
                self.offered_load, self.effective_servers
            )
        )


class SolverError(ReproError):
    """A numerical solver failed to produce a valid solution.

    Examples include an eigenvalue count inside the unit disk that does not
    match the number of environment states, a singular boundary system, or a
    steady-state vector with significantly negative entries.
    """


class UnsupportedScenarioError(SolverError):
    """A solver backend cannot evaluate a :class:`~repro.scenarios.ScenarioModel`.

    The geometric approximation is derived for the paper's homogeneous server
    pool; heterogeneous server groups and limited repair crews fall outside
    its one-server structure, so that backend raises this exception (and
    solver fallback chains skip past it to the scenario-capable
    ``spectral``, ``ctmc`` and ``simulate`` backends).
    """


class FittingError(ReproError):
    """A distribution-fitting procedure failed.

    Raised when moment matching has no feasible solution (for instance when
    the empirical squared coefficient of variation is below one, which no
    hyperexponential distribution can represent) or when an iterative fitting
    procedure fails to converge.
    """


class DataError(ReproError):
    """A breakdown trace or empirical data set is malformed."""


class CachePersistenceError(ReproError):
    """A solution-cache snapshot could not be read back.

    Raised by :meth:`repro.solvers.SolutionCache.load` when a spill file is
    corrupt or was written by an incompatible snapshot format version.  A
    *missing* file is not an error — a cold start is the normal first run.
    """


class SimulationError(ReproError):
    """The discrete-event simulator was configured or driven incorrectly."""
