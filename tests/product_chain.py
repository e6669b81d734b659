"""The per-server (product-space) scenario chain: the test oracle for lumping.

:class:`~repro.markov.ScenarioEnvironment` tracks only *how many* servers of
each group occupy each phase — the lumped representation the library solves.
This module builds the chain it is the quotient of: every server is labelled
and tracked individually, so a global state is the tuple of per-server phases
and the state space has :math:`\\prod_g (n_g + m_g)^{N_g}` states instead of
:math:`\\prod_g \\binom{N_g + n_g + m_g - 1}{n_g + m_g - 1}`.

Servers within a group are exchangeable: breakdown and repair rates depend
only on a server's own phase and on the *total* number of broken servers
(through the crew-sharing factor), never on server identity.  The count map
is therefore a strong lumping of this chain, and the two representations are
law-equivalent — :meth:`ProductScenarioEnvironment.lumping_map` exhibits the
quotient map, and ``test_lumping.py`` aggregates the product-space solutions
of :func:`solve_product_ctmc` and :func:`solve_product_transient` through it
and compares them against the library's solvers at solver precision.

The product space grows exponentially in the group sizes, so this class
guards construction behind :data:`PRODUCT_STATE_LIMIT`: it is an oracle for
small scenarios, not a solver.  That asymmetry is the point: the lumped
representation is what makes many-server scenarios tractable at all.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from repro._validation import check_positive_int
from repro.distributions import Distribution
from repro.exceptions import ParameterError
from repro.markov import (
    LevelModeStructure,
    ScenarioEnvironment,
    assemble_level_mode_generator,
    mode_index_map,
    num_modes,
    steady_state_csr,
)
from repro.markov.scenario_env import _as_phase_mixture
from repro.scenarios import ScenarioModel
from repro.transient.uniformization import transient_distributions

#: Hard cap on the number of product states a :class:`ProductScenarioEnvironment`
#: will materialise.  Beyond it the lumped representation is the only option.
PRODUCT_STATE_LIMIT = 60_000

#: The named initial conditions of :meth:`ProductScenarioEnvironment.initial_distribution`.
_INITIAL_KINDS = ("empty-operative", "empty-inoperative", "empty-equilibrium")


@dataclass(frozen=True)
class _GroupSpace:
    """Per-group bookkeeping of the product construction (internal)."""

    size: int  # number of servers N_g
    alpha: np.ndarray
    xi: np.ndarray
    beta: np.ndarray
    eta: np.ndarray

    @property
    def num_phases(self) -> int:
        """Local per-server states: operative phases first, then inoperative."""
        return int(self.alpha.size + self.beta.size)

    @property
    def subspace_size(self) -> int:
        """Size of the group's product subspace ``(n + m)^N``."""
        return self.num_phases**self.size


class ProductScenarioEnvironment:
    """The per-server-labelled environment chain of a scenario.

    Accepts the same ``(size, operative, inoperative)`` group triples and
    ``repair_capacity`` as :class:`ScenarioEnvironment`; a state is the tuple
    of per-server phases, mixed-radix encoded group by group.
    """

    def __init__(
        self,
        groups: list[tuple[int, Distribution, Distribution]],
        *,
        repair_capacity: int | None = None,
    ) -> None:
        if not groups:
            raise ParameterError("a scenario environment needs at least one server group")
        spaces: list[_GroupSpace] = []
        for position, (size, operative, inoperative) in enumerate(groups):
            size = check_positive_int(size, f"groups[{position}].size")
            alpha, xi = _as_phase_mixture(operative, f"groups[{position}].operative")
            beta, eta = _as_phase_mixture(inoperative, f"groups[{position}].inoperative")
            spaces.append(_GroupSpace(size=size, alpha=alpha, xi=xi, beta=beta, eta=eta))
        self._spaces = tuple(spaces)
        self._num_servers = sum(space.size for space in self._spaces)
        if repair_capacity is None:
            repair_capacity = self._num_servers
        repair_capacity = check_positive_int(repair_capacity, "repair_capacity")
        self._repair_capacity = min(repair_capacity, self._num_servers)
        self._groups_spec = list(groups)

        total = math.prod(space.subspace_size for space in self._spaces)
        if total > PRODUCT_STATE_LIMIT:
            raise ParameterError(
                f"the product representation has {total} states "
                f"(limit {PRODUCT_STATE_LIMIT}); use the lumped representation "
                "for scenarios of this size"
            )
        self._num_states = total

    # ------------------------------------------------------------------ #
    # Basic structure
    # ------------------------------------------------------------------ #

    @property
    def num_servers(self) -> int:
        """The total number of servers ``N``."""
        return self._num_servers

    @property
    def repair_capacity(self) -> int:
        """The repair-crew size ``R`` (at most ``N``)."""
        return self._repair_capacity

    @property
    def num_states(self) -> int:
        """The number of per-server-labelled global states."""
        return self._num_states

    @cached_property
    def lumped(self) -> ScenarioEnvironment:
        """The count-based quotient environment this chain lumps onto."""
        return ScenarioEnvironment(self._groups_spec, repair_capacity=self._repair_capacity)

    # ------------------------------------------------------------------ #
    # Per-group subspace tables (each of size (n_g + m_g)^{N_g})
    # ------------------------------------------------------------------ #

    def _group_digit_table(self, position: int) -> np.ndarray:
        """Array ``(subspace, N_g)``: the per-server phase digits of each combo."""
        space = self._spaces[position]
        base, servers = space.num_phases, space.size
        combos = np.arange(space.subspace_size)
        digits = np.empty((space.subspace_size, servers), dtype=np.int64)
        for server in range(servers):
            combos, digit = np.divmod(combos, base)
            digits[:, server] = digit
        return digits

    @cached_property
    def operative_counts_by_group(self) -> np.ndarray:
        """Array ``(num_states, K)``: operative servers per group and state."""
        counts = np.zeros((self._num_states, len(self._spaces)))
        sizes = [space.subspace_size for space in self._spaces]
        for position, space in enumerate(self._spaces):
            digits = self._group_digit_table(position)
            local = (digits < space.alpha.size).sum(axis=1).astype(float)
            before = math.prod(sizes[:position])
            after = math.prod(sizes[position + 1 :])
            counts[:, position] = np.tile(np.repeat(local, after), before)
        return counts

    @cached_property
    def operative_counts(self) -> np.ndarray:
        """The total number of operative servers in each state."""
        return self.operative_counts_by_group.sum(axis=1)

    @cached_property
    def broken_counts(self) -> np.ndarray:
        """The total number of inoperative servers in each state."""
        return float(self._num_servers) - self.operative_counts

    @cached_property
    def lumping_map(self) -> np.ndarray:
        """Array of length ``num_states``: the lumped mode index of each state.

        The quotient map of the strong lumping: state ``i`` maps to the mode
        whose per-group phase-occupancy counts match the state's.
        """
        sizes = [space.subspace_size for space in self._spaces]
        lumped_sizes = [
            num_modes(space.size, space.alpha.size, space.beta.size) for space in self._spaces
        ]
        global_index = np.zeros(self._num_states, dtype=np.int64)
        for position, space in enumerate(self._spaces):
            digits = self._group_digit_table(position)
            n, m = space.alpha.size, space.beta.size
            index_map = mode_index_map(space.size, n, m)
            local = np.empty(space.subspace_size, dtype=np.int64)
            for combo in range(space.subspace_size):
                occupancy = np.bincount(digits[combo], minlength=n + m)
                key = (tuple(int(c) for c in occupancy[:n]), tuple(int(c) for c in occupancy[n:]))
                local[combo] = index_map[key]
            before = math.prod(sizes[:position])
            after = math.prod(sizes[position + 1 :])
            tiled = np.tile(np.repeat(local, after), before)
            stride = math.prod(lumped_sizes[position + 1 :])
            global_index += tiled * stride
        return global_index

    def lump_distribution(self, distribution: np.ndarray) -> np.ndarray:
        """Aggregate a distribution over product states onto the lumped modes."""
        vector = np.asarray(distribution, dtype=float)
        if vector.shape[-1] != self._num_states:
            raise ParameterError(
                f"distribution has {vector.shape[-1]} entries, expected {self._num_states}"
            )
        flat = vector.reshape(-1, self._num_states)
        lumped = np.zeros((flat.shape[0], self.lumped.num_modes))
        for row in range(flat.shape[0]):
            np.add.at(lumped[row], self.lumping_map, flat[row])
        return lumped.reshape(vector.shape[:-1] + (self.lumped.num_modes,))

    # ------------------------------------------------------------------ #
    # Transition structure
    # ------------------------------------------------------------------ #

    def _local_server_matrices(
        self, position: int
    ) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]:
        """One *server's* local breakdown and unscaled repair matrices."""
        space = self._spaces[position]
        n, m = space.alpha.size, space.beta.size
        breakdown = np.zeros((n + m, n + m))
        repair = np.zeros((n + m, n + m))
        for j in range(n):
            for k in range(m):
                breakdown[j, n + k] = space.xi[j] * space.beta[k]
        for k in range(m):
            for j in range(n):
                repair[n + k, j] = space.eta[k] * space.alpha[j]
        return scipy.sparse.csr_matrix(breakdown), scipy.sparse.csr_matrix(repair)

    @cached_property
    def transition_matrix_sparse(self) -> scipy.sparse.csr_matrix:
        """Sparse state-changing transition rates (zero diagonal).

        One Kronecker lift per *server*: server transitions are independent
        apart from the crew-sharing factor, which depends only on the global
        broken count and is applied as a row scaling of the repair part.
        """
        bases = [space.num_phases for space in self._spaces for _ in range(space.size)]
        server_positions = [
            position for position, space in enumerate(self._spaces) for _ in range(space.size)
        ]
        total = self._num_states
        breakdown = scipy.sparse.csr_matrix((total, total))
        repair = scipy.sparse.csr_matrix((total, total))
        for server, position in enumerate(server_positions):
            local_breakdown, local_repair = self._local_server_matrices(position)
            before = math.prod(bases[:server])
            after = math.prod(bases[server + 1 :])
            for local, is_breakdown in ((local_breakdown, True), (local_repair, False)):
                lifted = scipy.sparse.kron(
                    scipy.sparse.identity(before),
                    scipy.sparse.kron(local, scipy.sparse.identity(after)),
                ).tocsr()
                if is_breakdown:
                    breakdown = breakdown + lifted
                else:
                    repair = repair + lifted
        broken = self.broken_counts
        share = np.where(
            broken > 0.0,
            np.minimum(broken, float(self._repair_capacity)) / np.maximum(broken, 1.0),
            1.0,
        )
        return (breakdown + scipy.sparse.diags(share) @ repair).tocsr()

    @cached_property
    def generator_sparse(self) -> scipy.sparse.csr_matrix:
        """The environment's CTMC generator over the product states."""
        matrix = self.transition_matrix_sparse
        diagonal = np.asarray(matrix.sum(axis=1)).ravel()
        return (matrix - scipy.sparse.diags(diagonal)).tocsr()

    @cached_property
    def steady_state(self) -> np.ndarray:
        """The stationary distribution over the product states."""
        return steady_state_csr(self.generator_sparse)

    # ------------------------------------------------------------------ #
    # Initial conditions (transient analysis)
    # ------------------------------------------------------------------ #

    def initial_distribution(self, kind: str) -> np.ndarray:
        """A named initial distribution over the product states.

        ``"empty-operative"`` / ``"empty-inoperative"`` start every server
        independently in an operative / inoperative phase drawn from the
        group's entry weights (the product-space counterpart of the lumped
        multinomial start); ``"empty-equilibrium"`` is :attr:`steady_state`.
        """
        if kind not in _INITIAL_KINDS:
            raise ParameterError(
                f"unknown initial condition {kind!r}; expected one of {', '.join(_INITIAL_KINDS)}"
            )
        if kind == "empty-equilibrium":
            return np.asarray(self.steady_state, dtype=float)
        operative_start = kind == "empty-operative"
        vector = np.array([1.0])
        for space in self._spaces:
            weights = np.zeros(space.num_phases)
            if operative_start:
                weights[: space.alpha.size] = space.alpha
            else:
                weights[space.alpha.size :] = space.beta
            for _ in range(space.size):
                vector = np.multiply.outer(vector, weights).ravel()
        return vector

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = tuple(space.size for space in self._spaces)
        return (
            f"ProductScenarioEnvironment(groups={sizes}, "
            f"R={self._repair_capacity}, states={self._num_states})"
        )


def product_environment(scenario: ScenarioModel) -> ProductScenarioEnvironment:
    """The per-server-labelled environment of a scenario (size-guarded)."""
    return ProductScenarioEnvironment(
        groups=[(group.size, group.operative, group.inoperative) for group in scenario.groups],
        repair_capacity=scenario.effective_repair_capacity,
    )


def _product_generator(
    scenario: ScenarioModel, max_queue_length: int, environment: ProductScenarioEnvironment
) -> scipy.sparse.csr_matrix:
    """The truncated generator over ``(level, per-server state)`` pairs.

    The departure rate of a product state is that of its lumped mode (service
    capacity depends only on the operative counts), so the lumped capacity
    table is indexed through the lumping map rather than recomputed.
    """
    level_index = np.minimum(np.arange(max_queue_length + 1), scenario.num_servers)
    departures = scenario.service_capacity_by_level[level_index][:, environment.lumping_map]
    return assemble_level_mode_generator(
        environment.transition_matrix_sparse, scenario.arrival_rate, departures
    )


def solve_product_ctmc(scenario: ScenarioModel, max_queue_length: int) -> np.ndarray:
    """The stationary ``(levels, lumped modes)`` law, solved in product space."""
    environment = product_environment(scenario)
    generator = _product_generator(scenario, max_queue_length, environment)
    structure = LevelModeStructure(
        num_levels=max_queue_length + 1,
        num_modes=environment.num_states,
        mode_generator=environment.generator_sparse,
    )
    stationary = steady_state_csr(generator, structure=structure)
    return environment.lump_distribution(
        stationary.reshape(max_queue_length + 1, environment.num_states)
    )


def solve_product_transient(
    scenario: ScenarioModel,
    times: Sequence[float],
    max_queue_length: int,
    initial: str = "empty-operative",
) -> np.ndarray:
    """``pi(t)`` over ``(times, levels, lumped modes)``, swept in product space."""
    environment = product_environment(scenario)
    generator = _product_generator(scenario, max_queue_length, environment)
    num_states = environment.num_states
    start = np.zeros((max_queue_length + 1) * num_states)
    start[:num_states] = environment.initial_distribution(initial)
    result = transient_distributions(generator, start, tuple(times))
    per_state = result.distributions.reshape(len(times), max_queue_length + 1, num_states)
    return environment.lump_distribution(per_state)
