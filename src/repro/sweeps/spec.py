"""Declarative description of a parameter sweep.

A :class:`SweepSpec` is the single object the sweep engine consumes: a base
model, a list of :class:`SweepAxis` grids over model parameters, and a
:class:`SolverPolicy` describing which solver to try first and where to fall
back when it fails.  Expanding the spec yields one :class:`SweepPoint` per
grid cell (Cartesian product, first axis slowest), each carrying the concrete
model instance and the policy that will evaluate it.

The base model names the axes it accepts and applies them
(``check_sweep_axis`` and ``with_sweep_value``).  An
:class:`~repro.queueing.model.UnreliableQueueModel` takes its five fields
(``num_servers``, ``arrival_rate``, ``service_rate``, ``operative``,
``inoperative``).  Any other :class:`~repro.scenarios.ScenarioModel` takes
``arrival_rate`` and ``repair_capacity``, and dotted names of the form
``"<group>.<field>"`` (with ``field`` one of ``size``, ``service_rate``,
``operative``, ``inoperative``) that target the named server group — e.g.
``("slow.service_rate", (0.5, 0.75, 1.0))`` or ``("fast.size", (1, 2, 3))``.
The name ``solver`` is reserved: its values select the solver for that point,
overriding the policy order.  Any other axis name requires a
``model_factory`` — a callable ``(base_model, parameters) -> model`` that
knows how to turn the axis values into a model (e.g. mapping an ``scv`` value
to a fitted hyperexponential operative-period distribution).

The name ``time`` is reserved too (see :class:`TimeGridAxis`): its values are
transient evaluation times, folded into each point's policy as a one-point
``transient_times`` grid, so a sweep can scan over parameters *and* time —
e.g. availability ramp-up across repair-crew sizes.

Factories and per-point policy callables run only in the parent process
during expansion, so they may be closures; the objects shipped to worker
processes (models, policies) are plain picklable dataclasses.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..exceptions import ParameterError
from ..queueing.model import POOL_FIELDS
from ..solvers import BUILTIN_SOLVER_NAMES, SolverPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios import ScenarioModel

#: Built-in solver names in the order the library trusts them (kept as an
#: alias for backwards compatibility; policies accept any name registered
#: with :mod:`repro.solvers`).
KNOWN_SOLVERS = BUILTIN_SOLVER_NAMES

#: The pool's fields, which an axis over an
#: :class:`~repro.queueing.model.UnreliableQueueModel` may target directly.
MODEL_FIELDS = POOL_FIELDS

#: Reserved axis name that selects the solver per grid point.
SOLVER_AXIS = "solver"

#: Reserved axis name that selects the transient evaluation time per point.
TIME_AXIS = "time"


@dataclass(frozen=True)
class SweepAxis:
    """One dimension of the sweep grid: a parameter name and its values."""

    name: str
    values: tuple[object, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ParameterError(f"axis {self.name!r} has no values")

    def __len__(self) -> int:
        return len(self.values)


class TimeGridAxis(SweepAxis):
    """An axis over transient evaluation times (the reserved ``"time"`` name).

    A time value does not change the model; it is folded into the grid
    point's :class:`~repro.solvers.SolverPolicy` as a one-point
    ``transient_times`` grid.  Unless the policy's order already names
    ``"transient"`` (an explicit opt-in to a custom chain), the cell is
    evaluated by the transient solver *alone* — a steady-state fallback
    would silently ignore the time value, so models the transient solver
    cannot handle produce an error row instead of a wrong answer.  A spec
    therefore only needs the axis itself to scan availability or queue
    build-up over time, alone or crossed with any parameter axes.  Each cell is cached and parallelised independently
    like every other grid point; for a pure time scan of one fixed model,
    calling :func:`repro.transient.solve_transient` with the whole grid is
    the cheaper equivalent (one uniformization pass serves all times).
    """

    def __init__(self, values: Iterable[float]) -> None:
        super().__init__(name=TIME_AXIS, values=tuple(float(value) for value in values))


@dataclass(frozen=True)
class SweepPoint:
    """One grid cell: the concrete model to evaluate and how to evaluate it.

    Attributes
    ----------
    index:
        Position in row-major grid order (first axis slowest).
    parameters:
        Mapping from axis name to this cell's value.
    model:
        The concrete model instance for this cell.
    policy:
        The solver policy that will evaluate the model.
    """

    index: int
    parameters: Mapping[str, object]
    model: "ScenarioModel"
    policy: SolverPolicy


def _normalise_axes(
    axes: Sequence[SweepAxis | tuple[str, Iterable[object]]],
) -> tuple[SweepAxis, ...]:
    normalised: list[SweepAxis] = []
    for axis in axes:
        if isinstance(axis, SweepAxis):
            normalised.append(axis)
        else:
            name, values = axis
            normalised.append(SweepAxis(name=name, values=tuple(values)))
    return tuple(normalised)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative parameter sweep over a queueing model.

    Attributes
    ----------
    base_model:
        The model every grid cell starts from: the paper's
        :class:`~repro.queueing.model.UnreliableQueueModel` (axes over its
        five fields) or any other :class:`~repro.scenarios.ScenarioModel`
        (axes over scenario and group parameters).
    axes:
        The grid dimensions; accepts :class:`SweepAxis` instances or plain
        ``(name, values)`` pairs.
    policy:
        Default solver policy (the reserved ``solver`` axis and
        ``point_policy`` can override it per point).
    model_factory:
        Optional ``(base_model, parameters) -> model`` callable, required
        when an axis name is not a model field.
    point_policy:
        Optional ``(parameters) -> SolverPolicy`` callable for heterogeneous
        grids (e.g. simulate the ``C^2 = 0`` cell, solve the rest exactly).
    name:
        Label used in exports and progress reports.
    """

    base_model: "ScenarioModel"
    axes: tuple[SweepAxis, ...]
    policy: SolverPolicy = field(default_factory=SolverPolicy)
    model_factory: Callable[["ScenarioModel", Mapping[str, object]], "ScenarioModel"] | None = None
    point_policy: Callable[[Mapping[str, object]], SolverPolicy] | None = None
    name: str = "sweep"

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", _normalise_axes(self.axes))
        if not self.axes:
            raise ParameterError("a sweep needs at least one axis")
        names = [axis.name for axis in self.axes]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ParameterError(
                f"duplicate sweep axis name(s): {', '.join(duplicates)}; "
                "each axis name must appear exactly once"
            )
        if self.model_factory is None:
            for name in names:
                if name not in (SOLVER_AXIS, TIME_AXIS):
                    self.base_model.check_sweep_axis(name)

    @property
    def axis_names(self) -> tuple[str, ...]:
        """The axis names, in grid order."""
        return tuple(axis.name for axis in self.axes)

    @property
    def grid_size(self) -> int:
        """The total number of grid cells."""
        size = 1
        for axis in self.axes:
            size *= len(axis)
        return size

    def _build_model(self, parameters: Mapping[str, object]) -> "ScenarioModel":
        if self.model_factory is not None:
            return self.model_factory(self.base_model, parameters)
        model = self.base_model
        for name, value in parameters.items():
            if name not in (SOLVER_AXIS, TIME_AXIS):
                model = model.with_sweep_value(name, value)
        return model

    def _policy_for(self, parameters: Mapping[str, object]) -> SolverPolicy:
        if self.point_policy is not None:
            policy = self.point_policy(parameters)
        else:
            solver = parameters.get(SOLVER_AXIS)
            policy = self.policy.with_order(str(solver)) if solver is not None else self.policy
        time = parameters.get(TIME_AXIS)
        if time is not None:
            # A steady-state backend answering a time-axis cell would silently
            # ignore the time value, so unless the policy explicitly opted
            # into a chain containing 'transient', the cell runs the transient
            # solver alone — an unsupported model then fails loudly.
            order = policy.order if "transient" in policy.order else ("transient",)
            policy = replace(policy, order=order, transient_times=(float(time),))
        return policy

    def expand(self) -> Iterator[SweepPoint]:
        """Yield every :class:`SweepPoint` of the grid in row-major order."""
        for index, combination in enumerate(
            itertools.product(*(axis.values for axis in self.axes))
        ):
            parameters = dict(zip(self.axis_names, combination))
            yield SweepPoint(
                index=index,
                parameters=parameters,
                model=self._build_model(parameters),
                policy=self._policy_for(parameters),
            )
