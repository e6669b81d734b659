"""The unreliable multi-server queueing model of Palmer & Mitrani.

``N`` parallel servers are fed by a Poisson stream through one unbounded FIFO
queue; service times are exponential, and servers alternate between operative
and inoperative periods drawn from exponential or hyperexponential
distributions.  Jobs interrupted by a breakdown return to the head of the
queue and later resume from the point of interruption (preemptive resume),
which together with the exponential service assumption makes the system a
Markov-modulated M/M/N queue.

:class:`UnreliableQueueModel` is the paper's five-parameter front end to that
system: the one-group, unlimited-crew (``K = 1, R = N``)
:class:`~repro.scenarios.ScenarioModel`.  It adds the paper's vocabulary
(offered load in busy servers, availability, mean operative servers) and
inherits everything else: the environment, the stability condition (paper
Eq. 11) and the solver entry points, the geometric approximation (paper
Section 3.2) included, which needs this one-group, unlimited-crew shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Self

from .._validation import check_positive, check_positive_int
from ..distributions import Distribution, Exponential
from ..exceptions import ParameterError
from ..scenarios.model import ScenarioModel, ServerGroup
from ..solvers.cache import distribution_key

#: The constructor fields of the pool, in order; a sweep over a pool names
#: its axes after them.
POOL_FIELDS = ("num_servers", "arrival_rate", "service_rate", "operative", "inoperative")


# Frozen like every scenario; the constructor and repr are the pool's own, and
# equality and hashing are the scenario's over the one group.
@dataclass(frozen=True, init=False, repr=False, eq=False)
class UnreliableQueueModel(ScenarioModel):
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

    The pool is a :class:`~repro.scenarios.ScenarioModel` with one group
    named ``"servers"`` and an unlimited crew, so every solver and scenario
    quantity applies to it unchanged.  A limited crew makes a plain scenario:
    see :meth:`~repro.scenarios.ScenarioModel.from_homogeneous`.

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

    def __init__(
        self,
        num_servers: int,
        arrival_rate: float,
        service_rate: float,
        operative: Distribution,
        inoperative: Distribution,
    ) -> None:
        check_positive_int(num_servers, "num_servers")
        check_positive(arrival_rate, "arrival_rate")
        group = ServerGroup("servers", num_servers, service_rate, operative, inoperative)
        super().__init__(groups=(group,), arrival_rate=arrival_rate)

    # ------------------------------------------------------------------ #
    # The five fields and the paper's derived characteristics
    # ------------------------------------------------------------------ #

    @property
    def service_rate(self) -> float:
        """The service rate ``mu`` of each operative server."""
        return self.groups[0].service_rate

    @property
    def operative(self) -> Distribution:
        """The distribution of operative periods."""
        return self.groups[0].operative

    @property
    def inoperative(self) -> Distribution:
        """The distribution of inoperative (repair) periods."""
        return self.groups[0].inoperative

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
        return self.groups[0].availability

    @property
    def mean_operative_servers(self) -> float:
        """The steady-state average number of operative servers ``N eta / (xi + eta)``."""
        return self.num_servers * self.availability

    # ------------------------------------------------------------------ #
    # Model surgery helpers used by the experiment harness and sweeps
    # ------------------------------------------------------------------ #

    def _replace(self, **changes: object) -> Self:
        fields = {name: getattr(self, name) for name in POOL_FIELDS}
        fields.update(changes)
        return type(self)(**fields)

    def with_servers(self, num_servers: int) -> "UnreliableQueueModel":
        """Return a copy of the model with a different number of servers."""
        return self._replace(num_servers=num_servers)

    def with_periods(
        self,
        operative: Distribution | None = None,
        inoperative: Distribution | None = None,
    ) -> "UnreliableQueueModel":
        """Return a copy with different operative and/or inoperative distributions."""
        return self._replace(
            operative=operative if operative is not None else self.operative,
            inoperative=inoperative if inoperative is not None else self.inoperative,
        )

    def check_sweep_axis(self, name: str) -> None:
        """Raise :class:`ParameterError` unless ``name`` is one of :data:`POOL_FIELDS`."""
        if name not in POOL_FIELDS:
            raise ParameterError(
                f"axis {name!r} is not a model field ({POOL_FIELDS}); provide a model_factory"
            )

    def with_sweep_value(self, name: str, value: object) -> "UnreliableQueueModel":
        """A copy with the field ``name`` set to ``value`` (see :meth:`check_sweep_axis`)."""
        if name == "num_servers":
            return self.with_servers(check_positive_int(value, name))
        if name in ("arrival_rate", "service_rate"):
            return self._replace(**{name: float(value)})
        return self.with_periods(**{name: value})

    def solution_key(self) -> tuple:
        """The value-based cache key used by :mod:`repro.solvers`: the five fields."""
        return (
            self.num_servers,
            self.arrival_rate,
            self.service_rate,
            distribution_key(self.operative),
            distribution_key(self.inoperative),
        )

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in POOL_FIELDS)
        return f"{type(self).__qualname__}({fields})"


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
