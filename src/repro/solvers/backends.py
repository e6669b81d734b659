"""The built-in solver backends, wrapped behind the :class:`Solver` protocol.

Each backend delegates to the corresponding solver of the library and
normalises the native solution object into the flat metric mapping shared by
every consumer (the sweep engine, the cost optimiser, the CLI).  The trusted
steady-state fallback order — exact first, then the fast approximation, then
the finite-chain reference, then simulation — is encoded once, in
:data:`BUILTIN_SOLVER_NAMES`; the ``transient`` backend sits outside that
chain (it answers time-dependent questions) and runs only when a policy
names it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..exceptions import UnsupportedScenarioError
from .base import SIMULATE_DEFAULTS, Solver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..queueing.model import UnreliableQueueModel
    from .policy import SolverPolicy


def is_scenario_model(model: object) -> bool:
    """Whether ``model`` is a scenario (duck-typed to avoid an import cycle)."""
    return bool(getattr(model, "is_scenario", False))


class _MarkovianSolver(Solver):
    """Base for the analytical backends, which need a Markovian environment."""

    def supports(self, model: "UnreliableQueueModel") -> bool:
        return model.is_markovian

    def unsupported_reason(self, model: "UnreliableQueueModel") -> str:
        if is_scenario_model(model):
            return (
                f"the {self.name!r} solver requires exponential or hyperexponential "
                "period distributions in every server group"
            )
        return (
            f"the {self.name!r} solver requires exponential or hyperexponential "
            f"period distributions, got {type(model.operative).__name__}/"
            f"{type(model.inoperative).__name__}"
        )


def _decay_metrics(solution: Any) -> dict[str, float]:
    return {
        "mean_queue_length": solution.mean_queue_length,
        "mean_response_time": solution.mean_response_time,
        "decay_rate": solution.decay_rate,
    }


class SpectralSolver(_MarkovianSolver):
    """Exact spectral-expansion solution (paper Section 3.1), scenarios included."""

    name = "spectral"
    supports_scenarios = True

    def solve(self, model: "UnreliableQueueModel", **options: Any) -> object:
        return model.solve_spectral(**options)

    def work_estimate(self, model: "UnreliableQueueModel") -> float | None:
        # The level reduction is O(N s^3), the reduction for R O(steps s^3).
        if not self.supports(model):
            return None
        return float(model.num_servers * model.num_modes**3)

    def metrics(self, solution: Any) -> dict[str, float]:
        return _decay_metrics(solution)


class GeometricSolver(_MarkovianSolver):
    """Heavy-load geometric approximation (paper Section 3.2), homogeneous pool only.

    Scenarios raise :class:`UnsupportedScenarioError`, which fallback chains skip.
    """

    name = "geometric"

    def supports(self, model: "UnreliableQueueModel") -> bool:
        return not is_scenario_model(model) and super().supports(model)

    def unsupported_reason(self, model: "UnreliableQueueModel") -> str:
        if is_scenario_model(model):
            return (
                f"the {self.name!r} solver handles only the homogeneous model; scenario "
                "models (server groups, repair crews) need 'spectral', 'ctmc' or 'simulate'"
            )
        return super().unsupported_reason(model)

    def solve(self, model: "UnreliableQueueModel", **options: Any) -> object:
        if is_scenario_model(model):
            raise UnsupportedScenarioError(self.unsupported_reason(model))
        return model.solve_geometric(**options)

    def work_estimate(self, model: "UnreliableQueueModel") -> float | None:
        # One server's (n + m)-phase chain whatever N: negligible.
        return 0.0 if self.supports(model) else None

    def metrics(self, solution: Any) -> dict[str, float]:
        return _decay_metrics(solution)


class TruncatedCTMCSolver(_MarkovianSolver):
    """Truncated-CTMC reference solution used for validation.

    Accepts scenario models as well as the homogeneous model: both expose
    ``solve_ctmc`` with the same signature and solve the same chain.
    """

    name = "ctmc"
    supports_scenarios = True
    supports_warm_start = True

    def solve(self, model: "UnreliableQueueModel", **options: Any) -> object:
        return model.solve_ctmc(**options)

    def metrics(self, solution: Any) -> dict[str, float]:
        # The utilisation makes CTMC rows directly comparable to simulation
        # estimates; the chain size shows what the lumping bought.
        return {
            "mean_queue_length": solution.mean_queue_length,
            "mean_response_time": solution.mean_response_time,
            "utilisation": float(solution.utilisation),
            "num_solved_states": float(solution.num_solved_states),
        }


class SimulationSolver(Solver):
    """Discrete-event simulation; accepts arbitrary period distributions.

    Dispatches through ``model.simulate``, so homogeneous models and scenario
    models (which route to the scenario simulator) are both supported.
    """

    name = "simulate"
    supports_scenarios = True

    def solve(
        self,
        model: "UnreliableQueueModel",
        *,
        horizon: float = SIMULATE_DEFAULTS.horizon,
        warmup_fraction: float = SIMULATE_DEFAULTS.warmup_fraction,
        num_batches: int = SIMULATE_DEFAULTS.num_batches,
        seed: int = SIMULATE_DEFAULTS.seed,
    ) -> object:
        return model.simulate(
            horizon=horizon,
            warmup_fraction=warmup_fraction,
            num_batches=num_batches,
            seed=seed,
        )

    def metrics(self, estimate: Any) -> dict[str, float]:
        return {
            "mean_queue_length": estimate.mean_queue_length.estimate,
            "mean_response_time": estimate.mean_response_time.estimate,
            "utilisation": estimate.utilisation,
        }

    def options_from_policy(self, policy: "SolverPolicy") -> dict[str, object]:
        return {
            "horizon": policy.simulate_horizon,
            "warmup_fraction": policy.simulate_warmup_fraction,
            "num_batches": policy.simulate_num_batches,
            "seed": policy.simulate_seed,
        }


class TransientSolver(_MarkovianSolver):
    """Uniformization transient solver (:mod:`repro.transient`).

    Computes ``pi(t)`` over the policy's ``transient_times`` grid (the
    package default grid when the policy names none) and reports the headline
    metrics *at the final grid time*.  Unlike the steady-state backends its
    metrics carry no ``mean_response_time`` — a time-dependent response time
    is not a point functional of ``pi(t)`` — but they include the
    ``evaluation_time`` itself, so exported rows are self-describing (the
    name deliberately differs from the reserved ``time`` sweep-axis name, so
    time-axis sweeps never emit two columns with the same header).

    Accepts scenario models as well as the homogeneous model (the transient
    engine reuses the truncated-CTMC generator builders of both).
    """

    name = "transient"
    supports_scenarios = True

    def solve(self, model: "UnreliableQueueModel", **options: Any) -> object:
        from ..transient import solve_transient

        return solve_transient(model, **options)

    def metrics(self, solution: Any) -> dict[str, float]:
        return {
            "mean_queue_length": float(solution.mean_queue_length[-1]),
            "availability": float(solution.availability[-1]),
            "probability_empty": float(solution.probability_empty[-1]),
            "probability_all_inoperative": float(solution.probability_all_inoperative[-1]),
            "evaluation_time": float(solution.times[-1]),
        }

    def options_from_policy(self, policy: "SolverPolicy") -> dict[str, object]:
        options: dict[str, object] = {}
        if policy.transient_times:
            options["times"] = policy.transient_times
        return options


def builtin_solvers() -> tuple[Solver, ...]:
    """Fresh instances of the five built-in backends, in trusted order."""
    return (
        SpectralSolver(),
        GeometricSolver(),
        TruncatedCTMCSolver(),
        SimulationSolver(),
        TransientSolver(),
    )


#: The built-in solver names in the order the library trusts them.  The
#: steady-state backends come first (their order is the default fallback
#: vocabulary); ``transient`` answers a different question and only runs when
#: a policy names it explicitly.
BUILTIN_SOLVER_NAMES = ("spectral", "geometric", "ctmc", "simulate", "transient")
