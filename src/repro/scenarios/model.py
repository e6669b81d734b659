"""Scenario front-end: heterogeneous server groups with a limited repair crew.

A :class:`ScenarioModel` generalises the paper's
:class:`~repro.queueing.model.UnreliableQueueModel` along two axes while
staying a Markov-modulated M/M/N-type system:

* **heterogeneous server groups** — ``K`` named groups, each with its own
  size, exponential service rate and operative/inoperative period
  distributions.  The environment mode space becomes the product of the
  per-group partitions and the scalar operative count of the paper is
  replaced by a per-group service-capacity vector;
* **limited repair crew** — at most ``R`` servers are repaired concurrently
  (inoperative completion rates scale with ``min(broken, R)``); ``R = N``
  recovers the paper's unlimited-crew model exactly.

The paper's model is the ``K = 1, R = N`` case, and the truncated CTMC,
transient analysis and simulation run one implementation for both classes.

Jobs still arrive in one Poisson stream to one unbounded FIFO queue, service
is exponential, and an interrupted job resumes from the point of interruption
(preemptive resume).  With several service speeds the dispatch discipline
matters: the scenario model assumes the ``j`` jobs in the system always
occupy the ``j`` *fastest* operative servers ("fastest-server-first"), which
keeps the system Markovian and is matched exactly by the scenario simulator.

A scenario chain is the paper's QBD with level- and mode-dependent service
capacities: :meth:`ScenarioModel.solve_spectral` solves it exactly, and
:meth:`ScenarioModel.solve_ctmc` (the truncated reference) and
:meth:`ScenarioModel.simulate` solve it too.  Only the geometric
approximation raises :class:`~repro.exceptions.UnsupportedScenarioError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .._validation import check_positive, check_positive_int
from ..distributions import Distribution, Exponential, HyperExponential
from ..exceptions import ParameterError, UnstableQueueError
from ..markov import ScenarioEnvironment, expected_num_scenario_modes
from ..queueing.model import UnreliableQueueModel
from ..solvers.cache import distribution_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulation.estimators import SimulationEstimate
    from ..spectral.solution import SpectralSolution
    from .ctmc import ScenarioCTMCSolution


@dataclass(frozen=True)
class ServerGroup:
    """One homogeneous group of servers inside a scenario.

    Parameters
    ----------
    name:
        Label used by sweep axes (``"<name>.size"``), presets and reports.
    size:
        The number of servers in the group.
    service_rate:
        The exponential service rate ``mu_g`` of each operative server.
    operative, inoperative:
        Period distributions of the group's servers.  Exponential and
        hyperexponential distributions admit the exact Markov model; other
        distributions restrict the scenario to simulation.
    """

    name: str
    size: int
    service_rate: float
    operative: Distribution
    inoperative: Distribution

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("a server group needs a non-empty name")
        check_positive_int(self.size, "size")
        check_positive(self.service_rate, "service_rate")

    @property
    def is_markovian(self) -> bool:
        """Whether the group's period distributions admit the exact Markov model."""
        return isinstance(self.operative, (Exponential, HyperExponential)) and isinstance(
            self.inoperative, (Exponential, HyperExponential)
        )

    def parameter_key(self) -> tuple:
        """A hashable, value-based stand-in for caching and deduplication.

        The group *name* is a label, not a dynamical parameter, so it is
        excluded: scenarios that differ only in labels share cached solutions.
        """
        return (
            self.size,
            self.service_rate,
            distribution_key(self.operative),
            distribution_key(self.inoperative),
        )


@dataclass(frozen=True)
class ScenarioModel:
    """A multi-server queue with heterogeneous groups and a limited repair crew.

    Parameters
    ----------
    groups:
        The server groups (at least one; names must be unique).
    arrival_rate:
        The Poisson arrival rate ``lambda`` of the single job stream.
    repair_capacity:
        The repair-crew size ``R`` (``None`` = unlimited, i.e. ``R = N``).
    name:
        Label used in reports and the CLI.

    Examples
    --------
    A two-speed cluster with one shared repairman:

    >>> from repro.distributions import Exponential
    >>> scenario = ScenarioModel(
    ...     groups=(
    ...         ServerGroup("fast", 2, 1.5, Exponential(rate=0.05), Exponential(rate=10.0)),
    ...         ServerGroup("slow", 2, 0.75, Exponential(rate=0.02), Exponential(rate=5.0)),
    ...     ),
    ...     arrival_rate=2.0,
    ...     repair_capacity=1,
    ... )
    >>> scenario.num_servers
    4
    """

    groups: tuple[ServerGroup, ...]
    arrival_rate: float
    repair_capacity: int | None = None
    name: str = "scenario"
    _validated: bool = field(default=False, repr=False, compare=False)

    #: Marker consulted by solver backends and the cache (duck typing keeps
    #: :mod:`repro.solvers` free of an import cycle with this package).
    is_scenario = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise ParameterError("a scenario needs at least one server group")
        names = [group.name for group in self.groups]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ParameterError(f"duplicate server-group names: {', '.join(duplicates)}")
        check_positive(self.arrival_rate, "arrival_rate")
        if self.repair_capacity is not None:
            check_positive_int(self.repair_capacity, "repair_capacity")
        object.__setattr__(self, "_validated", True)

    # ------------------------------------------------------------------ #
    # Basic structure
    # ------------------------------------------------------------------ #

    @property
    def num_groups(self) -> int:
        """The number of server groups ``K``."""
        return len(self.groups)

    @property
    def num_servers(self) -> int:
        """The total number of servers ``N`` across all groups."""
        return sum(group.size for group in self.groups)

    @property
    def effective_repair_capacity(self) -> int:
        """The repair-crew size actually in force (``min(R, N)``; ``N`` when unlimited)."""
        if self.repair_capacity is None:
            return self.num_servers
        return min(self.repair_capacity, self.num_servers)

    @property
    def service_rates(self) -> tuple[float, ...]:
        """The per-group service rates ``mu_g``, in group order."""
        return tuple(group.service_rate for group in self.groups)

    @property
    def is_markovian(self) -> bool:
        """Whether every group's period distributions admit the exact Markov model."""
        return all(group.is_markovian for group in self.groups)

    @cached_property
    def num_modes(self) -> int:
        """The number of global operational modes (product over groups)."""
        return expected_num_scenario_modes(
            [(group.size, group.operative, group.inoperative) for group in self.groups]
        )

    def group(self, name: str) -> ServerGroup:
        """The group with the given name."""
        for group in self.groups:
            if group.name == name:
                return group
        raise ParameterError(
            f"no server group named {name!r}; groups: "
            f"{', '.join(group.name for group in self.groups)}"
        )

    @cached_property
    def environment(self) -> ScenarioEnvironment:
        """The generalised Markovian environment induced by the groups."""
        return ScenarioEnvironment(
            groups=[(group.size, group.operative, group.inoperative) for group in self.groups],
            repair_capacity=self.effective_repair_capacity,
        )

    # ------------------------------------------------------------------ #
    # Capacity and stability
    # ------------------------------------------------------------------ #

    @cached_property
    def capacity_vector(self) -> np.ndarray:
        """Per-mode full-utilisation service capacity ``sum_g x_g(m) mu_g``."""
        return self.environment.service_capacities(self.service_rates)

    @cached_property
    def _stability_environment(self) -> ScenarioEnvironment:
        """The environment used for the stability condition.

        Markovian scenarios use the exact environment.  Scenarios with
        general period distributions (simulation-only) substitute exponential
        periods with matched means: with an unlimited crew the servers are
        independent and availability depends on the period means only, so the
        substitution is *exact*; with a limited crew it is a mean-based
        heuristic (the simulator remains the authority on such scenarios).
        """
        if self.is_markovian:
            return self.environment
        return ScenarioEnvironment(
            groups=[
                (
                    group.size,
                    Exponential(rate=1.0 / group.operative.mean),
                    Exponential(rate=1.0 / group.inoperative.mean),
                )
                for group in self.groups
            ],
            repair_capacity=self.effective_repair_capacity,
        )

    @cached_property
    def mean_service_capacity(self) -> float:
        """The steady-state average service capacity of the environment.

        This generalises the paper's ``N mu eta / (xi + eta)``: with a limited
        repair crew the per-server availability is not product-form, so the
        capacity must be averaged against the environment's stationary
        distribution (see :attr:`_stability_environment` for how non-Markovian
        scenarios are handled).
        """
        environment = self._stability_environment
        return float(
            environment.steady_state @ environment.service_capacities(self.service_rates)
        )

    @property
    def offered_load(self) -> float:
        """The offered load ``lambda`` in units of service capacity."""
        return self.arrival_rate

    @property
    def effective_load(self) -> float:
        """The load normalised by the average operative capacity (stable iff < 1)."""
        return self.arrival_rate / self.mean_service_capacity

    @property
    def is_stable(self) -> bool:
        """Whether the generalised stability condition ``lambda < E[capacity]`` holds."""
        return self.arrival_rate < self.mean_service_capacity

    def require_stable(self) -> None:
        """Raise :class:`UnstableQueueError` when the stability condition fails."""
        if not self.is_stable:
            raise UnstableQueueError(self.arrival_rate, self.mean_service_capacity)

    @cached_property
    def service_capacity_by_level(self) -> np.ndarray:
        """Array ``(N + 1, num_modes)``: service rate with ``j`` jobs present.

        Under fastest-server-first dispatch the ``j`` jobs in the system
        occupy the ``j`` fastest operative servers, so the row for level
        ``j <= N`` sums the ``j`` largest operative per-server rates of each
        mode; above ``N`` the capacity saturates at :attr:`capacity_vector`.
        """
        return self.environment.capacity_by_level(self.service_rates)

    # ------------------------------------------------------------------ #
    # Model surgery helpers (sweep axes build on these)
    # ------------------------------------------------------------------ #

    def with_arrival_rate(self, arrival_rate: float) -> "ScenarioModel":
        """Return a copy of the scenario with a different arrival rate."""
        return replace(self, arrival_rate=float(arrival_rate))

    def with_repair_capacity(self, repair_capacity: int | None) -> "ScenarioModel":
        """Return a copy of the scenario with a different repair-crew size."""
        return replace(self, repair_capacity=repair_capacity)

    def with_group(self, group_name: str, **changes: object) -> "ScenarioModel":
        """Return a copy with the named group's fields replaced.

        Accepted fields are those of :class:`ServerGroup` except ``name``
        (rename by rebuilding the scenario instead).
        """
        unknown = set(changes) - {"size", "service_rate", "operative", "inoperative"}
        if unknown:
            raise ParameterError(
                f"cannot change group field(s) {sorted(unknown)}; "
                "expected size, service_rate, operative or inoperative"
            )
        target = self.group(group_name)
        groups = tuple(
            replace(group, **changes) if group is target else group for group in self.groups
        )
        return replace(self, groups=groups)

    # ------------------------------------------------------------------ #
    # Conversions to and from the homogeneous model
    # ------------------------------------------------------------------ #

    @classmethod
    def from_homogeneous(
        cls,
        model: UnreliableQueueModel,
        *,
        repair_capacity: int | None = None,
        name: str = "scenario",
        group_name: str = "servers",
    ) -> "ScenarioModel":
        """Wrap an :class:`UnreliableQueueModel` as a single-group scenario."""
        return cls(
            groups=(
                ServerGroup(
                    name=group_name,
                    size=model.num_servers,
                    service_rate=model.service_rate,
                    operative=model.operative,
                    inoperative=model.inoperative,
                ),
            ),
            arrival_rate=model.arrival_rate,
            repair_capacity=repair_capacity,
            name=name,
        )

    def as_homogeneous(self) -> UnreliableQueueModel:
        """Convert a degenerate scenario (``K = 1, R = N``) to the paper's model.

        This is the bridge to the geometric approximation, and the basis of
        the pinned equivalence tests.
        """
        if self.num_groups != 1:
            raise ParameterError(
                f"only single-group scenarios are homogeneous (got {self.num_groups} groups)"
            )
        if self.effective_repair_capacity != self.num_servers:
            raise ParameterError(
                "scenarios with a limited repair crew "
                f"(R={self.effective_repair_capacity} < N={self.num_servers}) "
                "have no homogeneous equivalent"
            )
        group = self.groups[0]
        return UnreliableQueueModel(
            num_servers=group.size,
            arrival_rate=self.arrival_rate,
            service_rate=group.service_rate,
            operative=group.operative,
            inoperative=group.inoperative,
        )

    # ------------------------------------------------------------------ #
    # Caching support
    # ------------------------------------------------------------------ #

    def solution_key(self) -> tuple:
        """The value-based cache key used by :mod:`repro.solvers` (name-free,
        so identically parameterised scenarios share cached solutions)."""
        return (
            "scenario",
            tuple(group.parameter_key() for group in self.groups),
            self.arrival_rate,
            self.effective_repair_capacity,
        )

    # ------------------------------------------------------------------ #
    # Solvers (lazy imports to keep the package import graph acyclic)
    # ------------------------------------------------------------------ #

    def solve_spectral(self) -> "SpectralSolution":
        """Solve the scenario exactly by spectral expansion (paper Section 3.1)."""
        from ..spectral.solution import solve_spectral

        return solve_spectral(self)

    def solve_ctmc(
        self,
        max_queue_length: int | None = None,
        *,
        warm_start: "ScenarioCTMCSolution | None" = None,
    ) -> "ScenarioCTMCSolution":
        """Solve the scenario's truncated-CTMC reference model.

        ``warm_start`` seeds the solve from a nearby scenario's solution.
        """
        from .ctmc import solve_scenario_ctmc

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

        Accepts arbitrary period distributions; the repair crew is shared
        equally among the broken servers (matching the analytical model's
        ``min(broken, R)`` completion-rate scaling for phase-type repairs).
        """
        from ..simulation.scenario_sim import simulate_scenario

        return simulate_scenario(
            self,
            horizon=horizon,
            warmup_fraction=warmup_fraction,
            num_batches=num_batches,
            seed=seed,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        groups = ", ".join(f"{group.name}x{group.size}" for group in self.groups)
        return (
            f"ScenarioModel(name={self.name!r}, groups=[{groups}], "
            f"lambda={self.arrival_rate}, R={self.effective_repair_capacity})"
        )
