"""The Markovian environment of ``K`` unreliable server groups and a repair crew.

Section 3 of the paper models ``N`` servers as a Markovian environment whose
state records how many servers are in each phase of an operative or
inoperative period.  The environment is independent of the job queue; it
modulates the queue only through the operative servers of the current mode.
This module builds that environment along the two axes of the scenario
library:

* **heterogeneous server groups** — ``K`` groups, each with its own size and
  its own operative/inoperative period distributions.  A global operational
  mode is the tuple of per-group occupancy pairs ``(X_g, Y_g)``, so the mode
  space is the Cartesian product of the per-group partitions and the scalar
  operative count of the paper becomes a per-group *capacity vector*;
* **limited repair crew** — at most ``R`` servers can be under repair
  concurrently.  Following the classical machine-repairman construction, the
  repair crew is shared equally among the broken servers, so every
  inoperative completion rate is scaled by ``min(broken, R) / broken``.

The paper's homogeneous pool is the ``K = 1, R = N`` case: the crew-sharing
factor is identically one and the modes enumerate exactly as in the paper's
worked example.  Every solver of the library — spectral, geometric, the
truncated CTMC and transient analysis — reads its matrices from here.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from .._validation import check_positive_int
from ..distributions import Distribution, Exponential, HyperExponential
from ..exceptions import ParameterError
from .partitions import enumerate_modes, num_modes

#: Largest mode count for which the dense ``transition_matrix``/``generator``
#: accessors will materialise an ``s x s`` array.  Hot paths use the sparse
#: accessors; the dense ones remain for the spectral algebra and small chains.
DENSE_MODE_LIMIT = 4096

#: Group shapes ``(size, n, m)`` whose local mode and move tables stay memoized.
_LOCAL_SPACE_CACHE_SIZE = 64


def _as_phase_mixture(distribution: Distribution, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Return (weights, rates) of a distribution usable as a period distribution.

    The analytical model requires hyperexponential (or exponential) periods;
    other distributions are rejected with a clear message — they can still be
    studied via the simulator.
    """
    if isinstance(distribution, HyperExponential):
        return distribution.weights, distribution.rates
    if isinstance(distribution, Exponential):
        return np.array([1.0]), np.array([distribution.rate])
    raise ParameterError(
        f"{name} must be Exponential or HyperExponential for the analytical model, "
        f"got {type(distribution).__name__}; use repro.simulation for general distributions"
    )


@dataclass(frozen=True)
class _GroupPhases:
    """Phase parameters of one server group (internal)."""

    size: int
    alpha: np.ndarray  # operative-phase entry probabilities
    xi: np.ndarray  # operative-phase rates
    beta: np.ndarray  # inoperative-phase entry probabilities
    eta: np.ndarray  # inoperative-phase rates


@dataclass(frozen=True)
class _Moves:
    """One kind of local mode change, one entry per (source mode, phase pair).

    A move takes one of the ``count`` servers in phase ``leave`` of the period
    being left and starts it in phase ``enter`` of the next period.
    """

    source: np.ndarray
    target: np.ndarray
    count: np.ndarray
    leave: np.ndarray
    enter: np.ndarray

    def rates(self, leave_rates: np.ndarray, enter_weights: np.ndarray) -> np.ndarray:
        """``count * rate(leave) * weight(enter)`` per move (paper Eq. 9)."""
        return self.count * leave_rates[self.leave] * enter_weights[self.enter]


@dataclass(frozen=True)
class _LocalSpace:
    """The rate-free structure of one group's local mode space (internal)."""

    num_modes: int
    operative: np.ndarray  # operative servers per local mode
    breakdowns: _Moves
    repairs: _Moves


def _shifted(occupancy: tuple[int, ...], phase: int, delta: int) -> tuple[int, ...]:
    changed = list(occupancy)
    changed[phase] += delta
    return tuple(changed)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=_LOCAL_SPACE_CACHE_SIZE)
def _local_space(size: int, n: int, m: int) -> _LocalSpace:
    """The local modes and moves of a group of ``size`` servers.

    Depends only on the group size and the phase counts; the rates are
    applied by :class:`ScenarioEnvironment`.  Memoized, so every environment
    with a group of this shape shares one read-only copy: a sweep builds a
    new environment per solve, but each group shape's tables only once.
    """
    modes = enumerate_modes(size, n, m)
    index = {mode: position for position, mode in enumerate(modes)}
    breakdowns: list[tuple[int, int, int, int, int]] = []
    repairs: list[tuple[int, int, int, int, int]] = []
    for source, (operative, inoperative) in enumerate(modes):
        for j, k in itertools.product(range(n), range(m)):
            if operative[j]:
                target = index[(_shifted(operative, j, -1), _shifted(inoperative, k, +1))]
                breakdowns.append((source, target, operative[j], j, k))
        for k, j in itertools.product(range(m), range(n)):
            if inoperative[k]:
                target = index[(_shifted(operative, j, +1), _shifted(inoperative, k, -1))]
                repairs.append((source, target, inoperative[k], k, j))

    def moves(entries: list[tuple[int, int, int, int, int]]) -> _Moves:
        table = _read_only(np.array(entries, dtype=np.int64).reshape(-1, 5))
        count = _read_only(table[:, 2].astype(float))
        return _Moves(table[:, 0], table[:, 1], count, table[:, 3], table[:, 4])

    operative_counts = _read_only(np.array([float(sum(operative)) for operative, _ in modes]))
    return _LocalSpace(len(modes), operative_counts, moves(breakdowns), moves(repairs))


class ScenarioEnvironment:
    """The Markov-modulating environment of ``K`` server groups and ``R`` repairers.

    Parameters
    ----------
    groups:
        A sequence of ``(size, operative, inoperative)`` triples, one per
        group.  Period distributions must be exponential or hyperexponential
        (the analytical restriction of the paper); general distributions are
        handled by the simulator instead.
    repair_capacity:
        The number of servers that can be repaired concurrently, ``R``.
        ``None`` means an unlimited crew (``R = N``), which recovers the
        paper's model.

    Examples
    --------
    The paper's worked example with two servers, two operative phases and one
    (exponential) inoperative phase has six modes:

    >>> from repro.distributions import HyperExponential, Exponential
    >>> env = ScenarioEnvironment(
    ...     groups=[
    ...         (2, HyperExponential(weights=[0.5, 0.5], rates=[1.0, 0.1]), Exponential(rate=2.0)),
    ...     ],
    ... )
    >>> env.num_modes
    6
    """

    def __init__(
        self,
        groups: list[tuple[int, Distribution, Distribution]],
        *,
        repair_capacity: int | None = None,
    ) -> None:
        if not groups:
            raise ParameterError("a scenario environment needs at least one server group")
        phases: list[_GroupPhases] = []
        for position, (size, operative, inoperative) in enumerate(groups):
            size = check_positive_int(size, f"groups[{position}].size")
            alpha, xi = _as_phase_mixture(operative, f"groups[{position}].operative")
            beta, eta = _as_phase_mixture(inoperative, f"groups[{position}].inoperative")
            phases.append(_GroupPhases(size=size, alpha=alpha, xi=xi, beta=beta, eta=eta))
        self._groups = tuple(phases)
        self._num_servers = sum(group.size for group in self._groups)
        if repair_capacity is None:
            repair_capacity = self._num_servers
        repair_capacity = check_positive_int(repair_capacity, "repair_capacity")
        self._repair_capacity = min(repair_capacity, self._num_servers)
        # The global mode space is the Cartesian product of the local ones
        # with group 0 varying slowest, so a single group enumerates exactly
        # like the paper's worked example.
        self._local = [
            _local_space(group.size, group.alpha.size, group.beta.size) for group in self._groups
        ]
        self._num_modes = math.prod(local.num_modes for local in self._local)

    # ------------------------------------------------------------------ #
    # Basic structure
    # ------------------------------------------------------------------ #

    @property
    def num_groups(self) -> int:
        """The number of server groups ``K``."""
        return len(self._groups)

    @property
    def num_servers(self) -> int:
        """The total number of servers ``N`` across all groups."""
        return self._num_servers

    @property
    def group_sizes(self) -> tuple[int, ...]:
        """The per-group server counts."""
        return tuple(group.size for group in self._groups)

    @property
    def repair_capacity(self) -> int:
        """The repair-crew size ``R`` (at most ``N``)."""
        return self._repair_capacity

    @property
    def num_modes(self) -> int:
        """The number of global modes (product of the per-group mode counts)."""
        return self._num_modes

    @property
    def num_product_modes(self) -> int:
        """The size ``prod_g (n_g + m_g)^{N_g}`` of the per-server-labelled chain.

        The state count this environment *would* have without exchangeable-
        server lumping — the denominator of the state-space saving reported by
        the CLI and the benchmarks.  Computed without building that chain (it
        is astronomically large for realistic group sizes).
        """
        total = 1
        for group in self._groups:
            total *= int(group.alpha.size + group.beta.size) ** group.size
        return total

    @cached_property
    def _modes(self) -> list[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
        local_modes = [
            enumerate_modes(group.size, group.alpha.size, group.beta.size)
            for group in self._groups
        ]
        return list(itertools.product(*local_modes))

    @cached_property
    def _mode_index(self) -> dict[tuple, int]:
        return {mode: index for index, mode in enumerate(self._modes)}

    @property
    def modes(self) -> list[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
        """The global modes as tuples of per-group ``(X, Y)`` occupancy pairs."""
        return list(self._modes)

    def mode_of(self, mode: tuple) -> int:
        """Return the index of the mode with the given per-group occupancies."""
        key = tuple((tuple(operative), tuple(inoperative)) for operative, inoperative in mode)
        if key not in self._mode_index:
            raise ParameterError(f"no such mode: {key!r}")
        return self._mode_index[key]

    def _strides(self) -> list[tuple[int, int]]:
        """Per group, the mode counts of the groups before and after it."""
        sizes = [local.num_modes for local in self._local]
        return [
            (math.prod(sizes[:position]), math.prod(sizes[position + 1 :]))
            for position in range(len(sizes))
        ]

    @cached_property
    def operative_counts_by_group(self) -> np.ndarray:
        """Array of shape ``(num_modes, K)``: operative servers per group and mode.

        Built by mixed-radix tiling of the per-group local counts (group 0
        varies slowest in the global enumeration), not by iterating the
        global product space.
        """
        counts = np.zeros((self.num_modes, len(self._groups)))
        for position, (before, after) in enumerate(self._strides()):
            local = self._local[position].operative
            counts[:, position] = np.tile(np.repeat(local, after), before)
        return counts

    @cached_property
    def operative_counts(self) -> np.ndarray:
        """The total number of operative servers in each mode, in mode order."""
        return self.operative_counts_by_group.sum(axis=1)

    @cached_property
    def broken_counts(self) -> np.ndarray:
        """The total number of inoperative servers in each mode, in mode order."""
        return float(self._num_servers) - self.operative_counts

    @property
    def operative_weights_by_group(self) -> tuple[np.ndarray, ...]:
        """Per-group operative-phase entry probabilities ``alpha_gj`` (copies).

        Exposed for consumers that need the phase mixture itself rather than
        the transition structure — e.g. the transient engine's multinomial
        all-operative initial condition.
        """
        return tuple(group.alpha.copy() for group in self._groups)

    @property
    def inoperative_weights_by_group(self) -> tuple[np.ndarray, ...]:
        """Per-group inoperative-phase entry probabilities ``beta_gk`` (copies)."""
        return tuple(group.beta.copy() for group in self._groups)

    # ------------------------------------------------------------------ #
    # Transition structure (paper Section 3.1)
    # ------------------------------------------------------------------ #

    @cached_property
    def transition_matrix_sparse(self) -> scipy.sparse.csr_matrix:
        """Sparse matrix ``A`` of mode-changing transition rates (zero diagonal).

        Breakdowns in group ``g`` move one server from operative phase ``j``
        to inoperative phase ``k`` at rate ``x_gj xi_gj beta_gk``; repairs
        move one back from phase ``k`` to phase ``j`` at rate
        ``y_gk eta_gk alpha_gj``, scaled by the crew-sharing factor
        ``min(broken, R) / broken`` of the source mode.

        Assembled in one pass of index arithmetic: a group's local move
        ``a -> b`` recurs for every combination of the other groups' local
        modes, at ``offset + a * after -> offset + b * after`` for each such
        combination's ``offset``.
        """
        broken = self.broken_counts
        share = np.minimum(broken, float(self._repair_capacity)) / np.maximum(broken, 1.0)
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        data: list[np.ndarray] = []
        for group, local, (before, after) in zip(self._groups, self._local, self._strides()):
            offsets = (
                np.arange(before)[:, None] * (local.num_modes * after) + np.arange(after)
            ).ravel()
            for moves, rates, is_repair in (
                (local.breakdowns, local.breakdowns.rates(group.xi, group.beta), False),
                (local.repairs, local.repairs.rates(group.eta, group.alpha), True),
            ):
                keep = rates != 0.0
                source = (offsets[:, None] + moves.source[keep] * after).ravel()
                values = np.tile(rates[keep], offsets.size)
                rows.append(source)
                cols.append((offsets[:, None] + moves.target[keep] * after).ravel())
                data.append(values * share[source] if is_repair else values)
        size = self.num_modes
        return scipy.sparse.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(size, size),
        ).tocsr()

    @cached_property
    def generator_sparse(self) -> scipy.sparse.csr_matrix:
        """The environment's own CTMC generator ``A - D^A``, sparse."""
        matrix = self.transition_matrix_sparse
        diagonal = np.asarray(matrix.sum(axis=1)).ravel()
        return (matrix - scipy.sparse.diags(diagonal)).tocsr()

    def _check_dense_limit(self, what: str) -> None:
        if self.num_modes > DENSE_MODE_LIMIT:
            raise ParameterError(
                f"refusing to materialise the dense {what} for {self.num_modes} modes "
                f"(limit {DENSE_MODE_LIMIT}); use the sparse accessor "
                f"'{what}_sparse' instead"
            )

    @cached_property
    def transition_matrix(self) -> np.ndarray:
        """The dense matrix ``A`` (spectral algebra and small environments).

        Environments beyond :data:`DENSE_MODE_LIMIT` modes refuse to densify.
        """
        self._check_dense_limit("transition_matrix")
        return np.asarray(self.transition_matrix_sparse.todense())

    @cached_property
    def generator(self) -> np.ndarray:
        """The environment's own CTMC generator, dense (small environments)."""
        self._check_dense_limit("generator")
        return np.asarray(self.generator_sparse.todense())

    # ------------------------------------------------------------------ #
    # Steady-state quantities (ingredients of paper Eq. 10-11)
    # ------------------------------------------------------------------ #

    @cached_property
    def steady_state(self) -> np.ndarray:
        """The stationary distribution of the environment over its modes.

        With a limited repair crew the per-server availability is *not*
        product-form, so every steady-state quantity comes from this
        distribution.  Solved on the sparse generator, so it scales to
        environments far beyond the dense limit.
        """
        from .kernels import steady_state_csr

        return steady_state_csr(self.generator_sparse)

    @cached_property
    def mean_operative_servers(self) -> float:
        """The steady-state average number of operative servers."""
        return float(self.steady_state @ self.operative_counts)

    @property
    def availability(self) -> float:
        """The long-run fraction of servers that are operative."""
        return self.mean_operative_servers / self._num_servers

    def _group_rates(self, service_rates: Sequence[float] | np.ndarray) -> np.ndarray:
        rates = np.asarray(service_rates, dtype=float)
        if rates.shape != (self.num_groups,):
            raise ParameterError(
                f"expected {self.num_groups} per-group service rates, got shape {rates.shape}"
            )
        return rates

    def service_capacities(self, service_rates: Sequence[float] | np.ndarray) -> np.ndarray:
        """Per-mode full-utilisation service capacity ``sum_g x_g(m) mu_g``."""
        return self.operative_counts_by_group @ self._group_rates(service_rates)

    def capacity_by_level(self, service_rates: Sequence[float] | np.ndarray) -> np.ndarray:
        """Array ``(N + 1, num_modes)``: the service rate with ``j`` jobs present.

        Under fastest-server-first dispatch the ``j`` jobs occupy the ``j``
        fastest operative servers, so group ``g`` serves
        ``clip(j - (operative servers faster than g), 0, x_g)`` of them.  With
        one group this is the paper's ``C_j = min(x, j) mu``.
        """
        rates = self._group_rates(service_rates)
        counts = self.operative_counts_by_group
        levels = np.arange(self._num_servers + 1, dtype=float)[:, None]
        capacity = np.zeros((levels.size, self.num_modes))
        faster = np.zeros(self.num_modes)
        for position in np.argsort(-rates, kind="stable"):
            capacity += np.clip(levels - faster, 0.0, counts[:, position]) * rates[position]
            faster = faster + counts[:, position]
        return capacity

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScenarioEnvironment(groups={self.group_sizes}, "
            f"R={self._repair_capacity}, modes={self.num_modes})"
        )


def expected_num_scenario_modes(
    groups: list[tuple[int, Distribution, Distribution]],
) -> int:
    """The global mode count without building the environment."""
    total = 1
    for position, (size, operative, inoperative) in enumerate(groups):
        alpha, _ = _as_phase_mixture(operative, f"groups[{position}].operative")
        beta, _ = _as_phase_mixture(inoperative, f"groups[{position}].inoperative")
        total *= num_modes(size, alpha.size, beta.size)
    return total
