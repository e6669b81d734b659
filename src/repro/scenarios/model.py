"""The one model class: heterogeneous server groups with a limited repair crew.

A :class:`ScenarioModel` is a Markov-modulated M/M/N-type queue built from
two ingredients:

* **server groups** — ``K`` named groups, each with its own size,
  exponential service rate and operative/inoperative period distributions.
  The environment's mode space is the product of the per-group partitions,
  and each mode has a per-group service-capacity vector;
* **a repair crew** — at most ``R`` servers are repaired concurrently
  (inoperative completion rates scale with ``min(broken, R)``); ``R = N`` is
  an unlimited crew.

The paper's pool of ``N`` identical servers is the ``K = 1, R = N`` case.
:class:`~repro.queueing.model.UnreliableQueueModel` is that case under the
paper's five-field constructor, and every solver reads it through this
class.  Any model with one group and an unlimited crew
(:attr:`ScenarioModel.is_homogeneous`) takes the one-server shortcuts: its
decay rate ``z_s`` and its geometric approximation come from one server's
phases, and ``z_s`` sizes its truncated CTMC.

Jobs arrive in one Poisson stream to one unbounded FIFO queue, service is
exponential, and an interrupted job resumes from the point of interruption
(preemptive resume).  With several service speeds the dispatch discipline
matters: the model assumes the ``j`` jobs in the system always occupy the
``j`` *fastest* operative servers ("fastest-server-first"), which keeps the
system Markovian and is matched exactly by the scenario simulator.

:meth:`ScenarioModel.solve_spectral` solves the chain exactly,
:meth:`ScenarioModel.solve_ctmc` (the truncated reference) and
:meth:`ScenarioModel.simulate` solve it too, and
:meth:`ScenarioModel.solve_geometric` answers the homogeneous case only
(anything else raises :class:`~repro.exceptions.UnsupportedScenarioError`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Self

import numpy as np

from .._validation import check_positive, check_positive_int
from ..distributions import Distribution, Exponential, HyperExponential
from ..exceptions import ParameterError, UnstableQueueError
from ..markov import ScenarioEnvironment, expected_num_scenario_modes
from ..solvers.cache import distribution_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..queueing.model import UnreliableQueueModel
    from ..simulation.estimators import SimulationEstimate
    from ..spectral.approximation import GeometricSolution
    from ..spectral.solution import SpectralSolution
    from .ctmc import ScenarioCTMCSolution

#: Scenario-level fields a sweep axis may name directly.
SCENARIO_FIELDS = ("arrival_rate", "repair_capacity")

#: Per-group fields addressable through dotted ``"<group>.<field>"`` axes and
#: :meth:`ScenarioModel.with_group`.
GROUP_FIELDS = ("size", "service_rate", "operative", "inoperative")


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

    @property
    def availability(self) -> float:
        """The long-run fraction of time each server is operative, ``eta / (xi + eta)``."""
        operative_mean = self.operative.mean
        return operative_mean / (operative_mean + self.inoperative.mean)

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

    # ------------------------------------------------------------------ #
    # Basic structure
    # ------------------------------------------------------------------ #

    @property
    def num_groups(self) -> int:
        """The number of server groups ``K``."""
        return len(self.groups)

    @cached_property
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
    def _unlimited_crew(self) -> bool:
        """Whether every broken server is repaired at once (``R >= N``)."""
        return self.effective_repair_capacity == self.num_servers

    @property
    def is_homogeneous(self) -> bool:
        """Whether this is the paper's pool: one group and an unlimited crew.

        Then the servers are independent and identical, and the queue's decay
        rate ``z_s`` comes from one server's phases: the geometric
        approximation and the truncated CTMC's sizing use it.
        """
        return len(self.groups) == 1 and self._unlimited_crew

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
    def mean_service_capacity(self) -> float:
        """The steady-state average service capacity of the environment.

        This generalises the paper's ``N mu eta / (xi + eta)`` (Eq. 11).  With
        an unlimited crew the servers are independent, so it is
        ``sum_g size_g mu_g E[op_g] / (E[op_g] + E[inop_g])`` in closed form,
        whatever the period distributions.  With a limited crew availability
        is not product-form, and the capacity is averaged against the
        environment's stationary distribution; non-Markovian groups then get
        exponential periods with matched means, a mean-based heuristic (the
        simulator remains the authority on such scenarios).
        """
        if self._unlimited_crew:
            return sum(
                group.size * group.service_rate * group.availability for group in self.groups
            )
        if self.is_markovian:
            environment = self.environment
        else:
            environment = ScenarioEnvironment(
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
        """Whether the stability condition ``lambda < E[capacity]`` holds."""
        return self.arrival_rate < self.mean_service_capacity

    def require_stable(self) -> None:
        """Raise :class:`UnstableQueueError` when the stability condition fails.

        The error states the load and the capacity in the unit of
        :attr:`offered_load`.
        """
        if not self.is_stable:
            unit = self.arrival_rate / self.offered_load
            raise UnstableQueueError(self.offered_load, self.mean_service_capacity / unit)

    @cached_property
    def service_capacity_by_level(self) -> np.ndarray:
        """Array ``(N + 1, num_modes)``: service rate with ``j`` jobs present.

        Under fastest-server-first dispatch the ``j`` jobs in the system
        occupy the ``j`` fastest operative servers, so the row for level
        ``j <= N`` sums the ``j`` largest operative per-server rates of each
        mode (``min(x, j) mu`` for one group); above ``N`` the capacity
        saturates at :attr:`capacity_vector`.
        """
        return self.environment.capacity_by_level(self.service_rates)

    # ------------------------------------------------------------------ #
    # Model surgery helpers (sweep axes build on these)
    # ------------------------------------------------------------------ #

    def _replace(self, **changes: object) -> Self:
        """A copy with the named constructor fields replaced."""
        return replace(self, **changes)

    def with_arrival_rate(self, arrival_rate: float) -> Self:
        """Return a copy of the model with a different arrival rate."""
        return self._replace(arrival_rate=float(arrival_rate))

    def with_repair_capacity(self, repair_capacity: int | None) -> "ScenarioModel":
        """Return a copy of the scenario with a different repair-crew size."""
        return self._replace(repair_capacity=repair_capacity)

    def with_group(self, group_name: str, **changes: object) -> "ScenarioModel":
        """Return a copy with the named group's fields replaced.

        Accepted fields are those of :class:`ServerGroup` except ``name``
        (rename by rebuilding the scenario instead).
        """
        unknown = set(changes) - set(GROUP_FIELDS)
        if unknown:
            raise ParameterError(
                f"cannot change group field(s) {sorted(unknown)}; "
                "expected size, service_rate, operative or inoperative"
            )
        target = self.group(group_name)
        groups = tuple(
            replace(group, **changes) if group is target else group for group in self.groups
        )
        return self._replace(groups=groups)

    def check_sweep_axis(self, name: str) -> None:
        """Raise :class:`ParameterError` unless a sweep axis ``name`` applies here.

        A scenario's axes are :data:`SCENARIO_FIELDS` and dotted
        ``"<group>.<field>"`` names over :data:`GROUP_FIELDS`.
        """
        if name in SCENARIO_FIELDS:
            return
        if "." in name:
            group_name, field_name = name.split(".", 1)
            group_names = [group.name for group in self.groups]
            if group_name not in group_names:
                raise ParameterError(
                    f"axis {name!r} names unknown server group {group_name!r}; "
                    f"groups: {', '.join(group_names)}"
                )
            if field_name not in GROUP_FIELDS:
                raise ParameterError(
                    f"axis {name!r} names unknown group field {field_name!r}; "
                    f"expected one of {GROUP_FIELDS}"
                )
            return
        raise ParameterError(
            f"axis {name!r} is not a scenario field ({SCENARIO_FIELDS}) or a "
            "'<group>.<field>' group axis; provide a model_factory"
        )

    def with_sweep_value(self, name: str, value: object) -> "ScenarioModel":
        """A copy with the sweep axis ``name`` (see :meth:`check_sweep_axis`) set to ``value``."""
        if name == "arrival_rate":
            return self.with_arrival_rate(float(value))
        if name == "repair_capacity":
            capacity = None if value is None else check_positive_int(value, name)
            return self.with_repair_capacity(capacity)
        group_name, field_name = name.split(".", 1)
        if field_name == "size":
            value = check_positive_int(value, name)
        elif field_name == "service_rate":
            value = float(value)
        return self.with_group(group_name, **{field_name: value})

    # ------------------------------------------------------------------ #
    # Conversions to and from the paper's pool
    # ------------------------------------------------------------------ #

    @classmethod
    def from_homogeneous(
        cls,
        model: "UnreliableQueueModel",
        *,
        repair_capacity: int | None = None,
        name: str = "scenario",
        group_name: str = "servers",
    ) -> "ScenarioModel":
        """The pool as a plain one-group scenario, optionally with a limited crew."""
        return cls(
            groups=(replace(model.groups[0], name=group_name),),
            arrival_rate=model.arrival_rate,
            repair_capacity=repair_capacity,
            name=name,
        )

    def as_homogeneous(self) -> "UnreliableQueueModel":
        """Convert a homogeneous scenario (``K = 1, R = N``) to the paper's pool."""
        if self.num_groups != 1:
            raise ParameterError(
                f"only single-group scenarios are homogeneous (got {self.num_groups} groups)"
            )
        if not self._unlimited_crew:
            raise ParameterError(
                "scenarios with a limited repair crew "
                f"(R={self.effective_repair_capacity} < N={self.num_servers}) "
                "have no homogeneous equivalent"
            )
        from ..queueing.model import UnreliableQueueModel

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
        """Solve the model exactly by spectral expansion (paper Section 3.1)."""
        from ..spectral.solution import solve_spectral

        return solve_spectral(self)

    def solve_geometric(self) -> "GeometricSolution":
        """Approximate the homogeneous model by the geometric law (paper Section 3.2)."""
        from ..spectral.approximation import solve_geometric

        return solve_geometric(self)

    def solve_ctmc(self, max_queue_length: int | None = None) -> "ScenarioCTMCSolution":
        """Solve the model's truncated-CTMC reference (validation baseline)."""
        from .ctmc import solve_scenario_ctmc

        return solve_scenario_ctmc(self, max_queue_length)

    def simulate(
        self,
        *,
        horizon: float,
        warmup_fraction: float = 0.1,
        num_batches: int = 10,
        seed: int = 0,
    ) -> "SimulationEstimate":
        """Estimate performance by discrete-event simulation.

        Accepts arbitrary period distributions (the paper simulates the
        deterministic ``C^2 = 0`` point of Figure 6); the repair crew is
        shared equally among the broken servers (matching the analytical
        model's ``min(broken, R)`` completion-rate scaling for phase-type
        repairs).
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
