"""The unreliable multi-server queueing model of Palmer & Mitrani.

This is the front-end class users construct: ``N`` parallel servers fed by a
Poisson stream through one unbounded FIFO queue, exponential service times,
and servers that alternate between operative and inoperative periods drawn
from exponential or hyperexponential distributions.  Jobs interrupted by a
breakdown return to the head of the queue and later resume from the point of
interruption (preemptive resume), which together with the exponential service
assumption makes the system a Markov-modulated M/M/N queue.

The class validates parameters, evaluates the stability condition (paper
Eq. 11) and hands the heavy lifting to the solvers:

* :meth:`UnreliableQueueModel.solve_spectral` — exact spectral expansion
  (paper Section 3.1);
* :meth:`UnreliableQueueModel.solve_geometric` — the heavy-load geometric
  approximation (paper Section 3.2);
* :meth:`UnreliableQueueModel.solve_ctmc` — truncated-CTMC reference solution
  used for validation;
* :meth:`UnreliableQueueModel.simulate` — discrete-event simulation, which
  also accepts non-phase-type period distributions.

The model is the ``K = 1, R = N`` case of :class:`~repro.scenarios.ScenarioModel`:
its environment is the one-group :class:`~repro.markov.ScenarioEnvironment`,
and spectral expansion, the truncated CTMC, transient analysis and
simulation run the scenario code on it.  The geometric approximation exists
for this case only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

from .._validation import check_positive, check_positive_int
from ..distributions import Distribution, Exponential, HyperExponential
from ..exceptions import UnstableQueueError
from ..markov import ScenarioEnvironment, expected_num_scenario_modes

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..scenarios.ctmc import ScenarioCTMCSolution
    from ..simulation.estimators import SimulationEstimate
    from ..spectral.approximation import GeometricSolution
    from ..spectral.solution import SpectralSolution


@dataclass(frozen=True)
class UnreliableQueueModel:
    """A multi-server queue whose servers suffer breakdowns and repairs.

    Parameters
    ----------
    num_servers:
        The number of servers ``N``.
    arrival_rate:
        The Poisson arrival rate ``lambda``.
    service_rate:
        The exponential service rate ``mu`` of each operative server
        (the paper's experiments all use ``mu = 1``).
    operative:
        Distribution of operative periods.  Exponential and
        :class:`~repro.distributions.HyperExponential` distributions yield an
        exact Markov model; other distributions are accepted but can only be
        studied by simulation.
    inoperative:
        Distribution of inoperative (repair) periods, same restrictions.

    Examples
    --------
    The configuration of the paper's Figure 5 with ``N = 12`` servers:

    >>> from repro.distributions import SUN_OPERATIVE_FIT, Exponential
    >>> model = UnreliableQueueModel(
    ...     num_servers=12,
    ...     arrival_rate=8.0,
    ...     service_rate=1.0,
    ...     operative=SUN_OPERATIVE_FIT,
    ...     inoperative=Exponential(rate=25.0),
    ... )
    >>> model.is_stable
    True
    """

    num_servers: int
    arrival_rate: float
    service_rate: float
    operative: Distribution
    inoperative: Distribution
    _validated: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_positive_int(self.num_servers, "num_servers")
        check_positive(self.arrival_rate, "arrival_rate")
        check_positive(self.service_rate, "service_rate")
        object.__setattr__(self, "_validated", True)

    # ------------------------------------------------------------------ #
    # Derived characteristics
    # ------------------------------------------------------------------ #

    @property
    def mean_service_time(self) -> float:
        """The mean service requirement ``1 / mu``."""
        return 1.0 / self.service_rate

    @property
    def offered_load(self) -> float:
        """The offered load ``lambda / mu`` in units of busy servers."""
        return self.arrival_rate / self.service_rate

    @property
    def availability(self) -> float:
        """The long-run fraction of time each server is operative, ``eta / (xi + eta)``."""
        operative_mean = self.operative.mean
        inoperative_mean = self.inoperative.mean
        return operative_mean / (operative_mean + inoperative_mean)

    @property
    def mean_operative_servers(self) -> float:
        """The steady-state average number of operative servers ``N eta / (xi + eta)``."""
        return self.num_servers * self.availability

    @property
    def effective_load(self) -> float:
        """The load normalised by the average operative capacity.

        This is the quantity plotted on the x-axis of the paper's Figure 8:
        ``rho = (lambda / mu) / (N eta / (xi + eta))``; the queue is stable
        iff ``rho < 1``.
        """
        return self.offered_load / self.mean_operative_servers

    @property
    def is_stable(self) -> bool:
        """Whether the stability condition of paper Eq. 11 holds."""
        return self.offered_load < self.mean_operative_servers

    def require_stable(self) -> None:
        """Raise :class:`UnstableQueueError` when the stability condition fails."""
        if not self.is_stable:
            raise UnstableQueueError(self.offered_load, self.mean_operative_servers)

    @property
    def is_markovian(self) -> bool:
        """Whether both period distributions admit the exact Markov model."""
        return isinstance(self.operative, (Exponential, HyperExponential)) and isinstance(
            self.inoperative, (Exponential, HyperExponential)
        )

    @cached_property
    def num_modes(self) -> int:
        """The number of operational modes ``s`` of the Markovian environment (Eq. 12)."""
        return expected_num_scenario_modes([(self.num_servers, self.operative, self.inoperative)])

    @cached_property
    def environment(self) -> ScenarioEnvironment:
        """The Markovian environment: one group of ``N`` servers, unlimited crew."""
        return ScenarioEnvironment([(self.num_servers, self.operative, self.inoperative)])

    @cached_property
    def service_capacity_by_level(self) -> "np.ndarray":
        """Array ``(N + 1, num_modes)``: ``C_j = min(x, j) mu`` per level and mode."""
        return self.environment.capacity_by_level((self.service_rate,))

    # ------------------------------------------------------------------ #
    # Model surgery helpers used by the experiment harness
    # ------------------------------------------------------------------ #

    def with_servers(self, num_servers: int) -> "UnreliableQueueModel":
        """Return a copy of the model with a different number of servers."""
        return replace(self, num_servers=num_servers)

    def with_arrival_rate(self, arrival_rate: float) -> "UnreliableQueueModel":
        """Return a copy of the model with a different arrival rate."""
        return replace(self, arrival_rate=arrival_rate)

    def with_periods(
        self,
        operative: Distribution | None = None,
        inoperative: Distribution | None = None,
    ) -> "UnreliableQueueModel":
        """Return a copy with different operative and/or inoperative distributions."""
        return replace(
            self,
            operative=operative if operative is not None else self.operative,
            inoperative=inoperative if inoperative is not None else self.inoperative,
        )

    # ------------------------------------------------------------------ #
    # Solvers (lazy imports to keep the package import graph acyclic)
    # ------------------------------------------------------------------ #

    def solve_spectral(self) -> "SpectralSolution":
        """Solve the model exactly by spectral expansion (paper Section 3.1)."""
        from ..spectral.solution import solve_spectral

        return solve_spectral(self)

    def solve_geometric(self) -> "GeometricSolution":
        """Solve the model approximately by the geometric law (paper Section 3.2)."""
        from ..spectral.approximation import solve_geometric

        return solve_geometric(self)

    def solve_ctmc(
        self,
        max_queue_length: int | None = None,
        *,
        warm_start: "ScenarioCTMCSolution | None" = None,
    ) -> "ScenarioCTMCSolution":
        """Solve a truncated-CTMC reference model (validation baseline).

        ``warm_start`` seeds the truncation level and the iterative solver's
        initial iterate from a nearby model's solution (parameter sweeps).
        """
        from ..scenarios.ctmc import solve_scenario_ctmc

        return solve_scenario_ctmc(self, max_queue_length, warm_start=warm_start)

    def simulate(
        self,
        *,
        horizon: float,
        warmup_fraction: float = 0.1,
        num_batches: int = 10,
        seed: int = 0,
    ) -> "SimulationEstimate":
        """Estimate performance by discrete-event simulation.

        Unlike the analytical solvers this accepts arbitrary period
        distributions (the paper uses simulation for the deterministic
        ``C^2 = 0`` point of Figure 6).
        """
        from ..simulation.scenario_sim import simulate_queue

        return simulate_queue(
            self,
            horizon=horizon,
            warmup_fraction=warmup_fraction,
            num_batches=num_batches,
            seed=seed,
        )


def sun_fitted_model(
    num_servers: int,
    arrival_rate: float,
    *,
    service_rate: float = 1.0,
    repair_rate: float = 25.0,
) -> UnreliableQueueModel:
    """Build the model used throughout the paper's Section-4 experiments.

    Operative periods follow the fitted Sun hyperexponential
    (``alpha = (0.7246, 0.2754)``, ``xi = (0.1663, 0.0091)``); inoperative
    periods are exponential with rate ``eta`` (the paper uses ``eta = 25`` in
    Figures 5, 8 and 9); the mean service time is ``1 / mu = 1``.
    """
    from ..distributions import SUN_OPERATIVE_FIT

    return UnreliableQueueModel(
        num_servers=num_servers,
        arrival_rate=arrival_rate,
        service_rate=service_rate,
        operative=SUN_OPERATIVE_FIT,
        inoperative=Exponential(rate=repair_rate),
    )
