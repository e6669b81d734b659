"""The built-in solver backends, wrapped behind the :class:`Solver` protocol.

Each backend delegates to the corresponding solver of the library and
normalises the native solution object into the flat metric mapping shared by
every consumer (the sweep engine, the cost optimiser, the CLI).  Every backend
takes any :class:`~repro.scenarios.ScenarioModel`, the paper's pool included,
except ``geometric``: it answers homogeneous models only (one group, unlimited
crew) and raises :class:`~repro.exceptions.UnsupportedScenarioError` for the
rest.  The trusted steady-state fallback order — exact first, then the fast
approximation, then the finite-chain reference, then simulation — is encoded
once, in :data:`BUILTIN_SOLVER_NAMES`; the ``transient`` backend sits outside
that chain (it answers time-dependent questions) and runs only when a policy
names it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .base import SIMULATE_DEFAULTS, Solver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.model import ScenarioModel
    from .policy import SolverPolicy


class _MarkovianSolver(Solver):
    """Base for the analytical backends, which need a Markovian environment."""

    def supports(self, model: "ScenarioModel") -> bool:
        return model.is_markovian

    def unsupported_reason(self, model: "ScenarioModel") -> str:
        periods = ", ".join(
            f"{type(group.operative).__name__}/{type(group.inoperative).__name__}"
            for group in model.groups
        )
        return (
            f"the {self.name!r} solver requires exponential or hyperexponential "
            f"period distributions, got {periods}"
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

    def solve(self, model: "ScenarioModel", **options: Any) -> object:
        return model.solve_spectral(**options)

    def work_estimate(self, model: "ScenarioModel") -> float | None:
        # The level reduction is O(N s^3), the reduction for R O(steps s^3).
        if not self.supports(model):
            return None
        return float(model.num_servers * model.num_modes**3)

    def metrics(self, solution: Any) -> dict[str, float]:
        return _decay_metrics(solution)


class GeometricSolver(_MarkovianSolver):
    """Heavy-load geometric approximation (paper Section 3.2), homogeneous models only.

    It works on one server's phases, so it needs one group with an unlimited
    crew: the paper's pool, or a scenario of that shape.  Other scenarios
    raise :class:`UnsupportedScenarioError`, which fallback chains skip.
    """

    name = "geometric"

    def supports(self, model: "ScenarioModel") -> bool:
        return model.is_homogeneous and super().supports(model)

    def unsupported_reason(self, model: "ScenarioModel") -> str:
        if not model.is_homogeneous:
            return (
                f"the {self.name!r} solver handles only the homogeneous model; scenario "
                "models (server groups, repair crews) need 'spectral', 'ctmc' or 'simulate'"
            )
        return super().unsupported_reason(model)

    def solve(self, model: "ScenarioModel", **options: Any) -> object:
        return model.solve_geometric(**options)

    def work_estimate(self, model: "ScenarioModel") -> float | None:
        # One server's (n + m)-phase chain whatever N: negligible.
        return 0.0 if self.supports(model) else None

    def metrics(self, solution: Any) -> dict[str, float]:
        return _decay_metrics(solution)


class TruncatedCTMCSolver(_MarkovianSolver):
    """Truncated-CTMC reference solution used for validation, for every chain model."""

    name = "ctmc"
    supports_scenarios = True

    def solve(self, model: "ScenarioModel", **options: Any) -> object:
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
    """Discrete-event simulation (``model.simulate``); accepts arbitrary period distributions."""

    name = "simulate"
    supports_scenarios = True

    def solve(
        self,
        model: "ScenarioModel",
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

    Accepts every chain model: the transient engine reuses the truncated
    CTMC's generator builder.
    """

    name = "transient"
    supports_scenarios = True

    def solve(self, model: "ScenarioModel", **options: Any) -> object:
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
