"""Solver policies: which backends to try, in which order, with what options.

A :class:`SolverPolicy` is the single vocabulary every call site uses to name
solvers — the sweep engine, the cost optimiser, the sizing helpers and the
CLI all accept one (or anything :func:`as_policy` can coerce into one: a
solver name, or a sequence of names forming a fallback chain).  Names are
validated against the default :mod:`solver registry <repro.solvers.registry>`
at construction time, so registered third-party solvers are first-class
policy members.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..exceptions import ParameterError
from .base import SIMULATE_DEFAULTS
from .registry import default_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .registry import SolverRegistry

#: Registry that policies constructed inside :func:`validating_against`
#: validate their names with (``None`` selects the default registry).
_VALIDATION_REGISTRY: contextvars.ContextVar["SolverRegistry | None"] = contextvars.ContextVar(
    "repro_solver_validation_registry", default=None
)


@contextlib.contextmanager
def validating_against(registry: "SolverRegistry | None") -> Iterator[None]:
    """Validate policies constructed in this context against ``registry``.

    The facade uses this so ``solve(model, "mine", registry=custom)`` accepts
    names that exist only in the custom registry; ``None`` is a no-op.
    """
    if registry is None:
        yield
        return
    token = _VALIDATION_REGISTRY.set(registry)
    try:
        yield
    finally:
        _VALIDATION_REGISTRY.reset(token)


@dataclass(frozen=True)
class SolverPolicy:
    """Which solvers to try, in order, and how to configure the simulator.

    Attributes
    ----------
    order:
        Solver names tried left to right; the first one that succeeds
        produces the metrics.  A solver failure
        (:class:`~repro.exceptions.SolverError`, a
        :class:`~repro.exceptions.ParameterError` from non-Markovian period
        distributions, or a simulation error) falls through to the next name.
    simulate_horizon, simulate_seed, simulate_num_batches,
    simulate_warmup_fraction:
        Options forwarded to :meth:`UnreliableQueueModel.simulate` when the
        ``"simulate"`` solver runs.
    transient_times:
        Evaluation time grid forwarded to the ``"transient"`` solver (empty =
        the solver's default grid).  The policy is part of every solution
        cache key, so folding the grid in here is what makes cached transient
        outcomes time-grid-aware: the same model solved over two different
        grids occupies two cache entries.
    """

    order: tuple[str, ...] = ("spectral", "geometric")
    simulate_horizon: float = SIMULATE_DEFAULTS.horizon
    simulate_seed: int = SIMULATE_DEFAULTS.seed
    simulate_num_batches: int = SIMULATE_DEFAULTS.num_batches
    simulate_warmup_fraction: float = SIMULATE_DEFAULTS.warmup_fraction
    transient_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.order:
            raise ParameterError("a solver policy needs at least one solver")
        object.__setattr__(self, "order", tuple(self.order))
        object.__setattr__(
            self, "transient_times", tuple(float(t) for t in self.transient_times)
        )
        if not all(math.isfinite(t) and t >= 0.0 for t in self.transient_times):
            raise ParameterError("transient_times must be finite and non-negative")
        registry = _VALIDATION_REGISTRY.get()
        if registry is None:
            registry = default_registry()
        for name in self.order:
            if name not in registry:
                raise ParameterError(
                    f"unknown solver {name!r}; registered solvers: "
                    f"{', '.join(registry.names())}"
                )

    def with_order(self, *order: str) -> "SolverPolicy":
        """A copy of the policy with a different solver order."""
        return replace(self, order=tuple(order))

    def with_transient_times(self, *times: float) -> "SolverPolicy":
        """A copy of the policy with a different transient evaluation grid."""
        return replace(self, transient_times=tuple(times))


def as_policy(policy: object, *, registry: "SolverRegistry | None" = None) -> SolverPolicy:
    """Coerce a user-facing solver specification into a :class:`SolverPolicy`.

    Accepted forms: an existing policy (returned unchanged), ``None`` (the
    default policy), a solver name string (a one-element chain), or an
    iterable of names (a fallback chain).  Anything else — including solver
    callables, which bypass the registry — is a :class:`ParameterError`.
    Names are validated against ``registry`` when given (else the default
    registry), so custom registries can dispatch solvers of their own.
    """
    if isinstance(policy, SolverPolicy):
        return policy
    with validating_against(registry):
        if policy is None:
            return SolverPolicy()
        if isinstance(policy, str):
            return SolverPolicy(order=(policy,))
        if isinstance(policy, Iterable):
            return SolverPolicy(order=tuple(str(name) for name in policy))
    raise ParameterError(
        f"cannot interpret {policy!r} as a solver policy; expected a SolverPolicy, "
        "a solver name, or a sequence of solver names"
    )
