"""Discrete-event simulation of the unreliable multi-server queue.

The simulator reproduces the modelling assumptions of Section 3 of the paper
without the Markovian restriction on the period distributions: jobs arrive
in a Poisson stream and wait in one unbounded FIFO queue, each server
alternates between operative and inoperative periods drawn independently
from arbitrary distributions, an operative server is never idle while jobs
wait, and a job whose service is interrupted by a breakdown returns to the
*front* of the queue and later resumes from the point of interruption.  The
paper uses simulation for the deterministic (``C^2 = 0``) operative-period
point of Figure 6.

It simulates :class:`~repro.scenarios.ScenarioModel` systems, and with them
the paper's :class:`~repro.queueing.model.UnreliableQueueModel` as its
``K = 1, R = N`` scenario (:func:`simulate_queue`), while remaining exactly
equivalent in law to the truncated CTMC for phase-type periods:

* **per-group service rates** — a job carries its remaining service *work*
  (a unit-mean exponential requirement) and a server of group ``g`` consumes
  work at speed ``mu_g``, so its completion hazard on that server is
  ``mu_g`` — exactly the CTMC's per-server rate;
* **fastest-server-first dispatch** — a waiting job always starts on the
  fastest idle operative server, and whenever a faster server becomes
  available while the queue is empty the job on the slowest busy server
  migrates to it.  This maintains the analytical model's invariant that the
  ``j`` jobs present occupy the ``j`` fastest operative servers (migration is
  statistically free because the service requirement is memoryless);
* **repair-slot contention** — at most ``R`` servers make repair progress
  concurrently.  The crew is shared equally: every broken server's remaining
  repair work is consumed at speed ``min(broken, R) / broken``, so for
  phase-type repair distributions the completion rates are scaled exactly as
  in the CTMC generator.  When the broken count changes, pending repair
  completions are rescheduled to the new speed.

When every server has the same speed no migration can help, so the
migration scan is skipped; with an unlimited crew repairs run at unit speed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .._validation import check_positive, check_positive_int
from ..exceptions import SimulationError
from .engine import EventHandle, EventScheduler
from .estimators import SimulationEstimate, TimeWeightedAccumulator, batch_means_interval

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..queueing.model import UnreliableQueueModel
    from ..scenarios import ScenarioModel


@dataclass
class _ScenarioJob:
    """A job in the simulated system (mutable: remaining work decreases)."""

    identifier: int
    arrival_time: float
    remaining_work: float  # unit-mean exponential service requirement


@dataclass
class _ScenarioServer:
    """A simulated server: group membership, speed and current activity."""

    identifier: int
    group: int
    rate: float
    operative: bool = True
    job: _ScenarioJob | None = None
    completion_handle: EventHandle | None = None
    repair_handle: EventHandle | None = None


class ScenarioSimulator:
    """Event-driven simulator of a scenario model.

    Parameters
    ----------
    scenario:
        The :class:`~repro.scenarios.ScenarioModel` to simulate.  Period
        distributions may be arbitrary :class:`~repro.distributions.Distribution`
        instances (phase-type restrictions apply only to the analytical
        solvers).
    seed:
        Seed for the NumPy random generator.

    Notes
    -----
    Dispatch and migration scan the server list, which is ``O(N)`` per event;
    the systems are small (tens of servers), so simplicity wins over heap
    bookkeeping here.
    """

    def __init__(self, scenario: "ScenarioModel", *, seed: int = 0) -> None:
        self._scenario = scenario
        self._rng = np.random.default_rng(seed)
        self._scheduler = EventScheduler()
        self._queue: deque[_ScenarioJob] = deque()
        self._servers: list[_ScenarioServer] = []
        for position, group in enumerate(scenario.groups):
            for _ in range(group.size):
                self._servers.append(
                    _ScenarioServer(
                        identifier=len(self._servers), group=position, rate=group.service_rate
                    )
                )
        self._repair_capacity = scenario.effective_repair_capacity
        self._limited_crew = self._repair_capacity < len(self._servers)
        self._single_speed = len({server.rate for server in self._servers}) == 1
        self._broken_ids: set[int] = set()
        self._repair_share = 1.0
        self._next_job_id = 0
        self._jobs_in_system = 0
        self._num_busy = 0
        self._jobs_accumulator = TimeWeightedAccumulator()
        self._busy_accumulator = TimeWeightedAccumulator()
        self._completed_jobs: list[tuple[float, float]] = []
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # Public interface
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """The current simulation time."""
        return self._scheduler.now

    @property
    def num_jobs_in_system(self) -> int:
        """The current number of jobs present (waiting or in service)."""
        return self._jobs_in_system

    @property
    def num_operative_servers(self) -> int:
        """The current number of operative servers."""
        return len(self._servers) - len(self._broken_ids)

    @property
    def num_busy_servers(self) -> int:
        """The current number of servers actively serving a job."""
        return self._num_busy

    @property
    def num_broken_servers(self) -> int:
        """The current number of servers under (or waiting for) repair."""
        return len(self._broken_ids)

    @property
    def repair_share(self) -> float:
        """The current crew-sharing factor ``min(broken, R) / broken``."""
        return self._repair_share

    def busy_rates(self) -> list[float]:
        """The service rates of the currently busy servers (test hook)."""
        return sorted(server.rate for server in self._servers if server.job is not None)

    def idle_operative_rates(self) -> list[float]:
        """The service rates of the idle operative servers (test hook)."""
        return sorted(
            server.rate
            for server in self._servers
            if server.operative and server.job is None
        )

    def run(self, horizon: float) -> None:
        """Run (or continue) the simulation until the given absolute time."""
        if horizon <= 0.0:
            raise SimulationError(f"horizon must be positive, got {horizon}")
        if self._closed:
            raise SimulationError("the simulator was closed; it cannot run further")
        if not self._started:
            self._bootstrap()
            self._started = True
        self._scheduler.run_until(horizon)

    def close(self) -> None:
        """Release the pending events and the servers' handles to them.

        Each pending event's action refers back to the simulator, and the
        servers hold handles to those events, so until they are dropped a
        finished simulator is a reference cycle that only the cyclic garbage
        collector frees.  The statistics stay readable; the run cannot go on.
        """
        self._scheduler.clear()
        for server in self._servers:
            server.completion_handle = None
            server.repair_handle = None
        self._closed = True

    def completed_jobs(self) -> list[tuple[float, float]]:
        """Return ``(completion_time, response_time)`` pairs for finished jobs."""
        return list(self._completed_jobs)

    def time_average_jobs(self, start: float, end: float) -> float:
        """Time-average number of jobs in the system over ``[start, end]``."""
        return self._jobs_accumulator.time_average(start, end)

    def time_average_busy_servers(self, start: float, end: float) -> float:
        """Time-average number of busy servers over ``[start, end]``."""
        return self._busy_accumulator.time_average(start, end)

    # ------------------------------------------------------------------ #
    # Event logic
    # ------------------------------------------------------------------ #

    def _bootstrap(self) -> None:
        self._schedule_next_arrival()
        for server in self._servers:
            self._schedule_breakdown(server)

    def _schedule_next_arrival(self) -> None:
        delay = self._rng.exponential(scale=1.0 / self._scenario.arrival_rate)
        self._scheduler.schedule(delay, self._handle_arrival)

    def _schedule_breakdown(self, server: _ScenarioServer) -> None:
        distribution = self._scenario.groups[server.group].operative
        duration = float(distribution.sample(self._rng))
        self._scheduler.schedule(duration, lambda: self._handle_breakdown(server))

    def _handle_arrival(self) -> None:
        self._schedule_next_arrival()
        job = _ScenarioJob(
            identifier=self._next_job_id,
            arrival_time=self.now,
            remaining_work=float(self._rng.exponential(scale=1.0)),
        )
        self._next_job_id += 1
        self._record_jobs_change(+1)
        self._queue.append(job)
        self._dispatch_jobs()

    def _handle_breakdown(self, server: _ScenarioServer) -> None:
        if not server.operative:  # pragma: no cover - defensive; should not happen
            return
        server.operative = False
        if server.job is not None:
            self._preempt(server)
        self._enter_repair(server)
        self._dispatch_jobs()

    def _handle_repair(self, server: _ScenarioServer) -> None:
        if server.operative:  # pragma: no cover - defensive; should not happen
            return
        server.repair_handle = None
        self._leave_repair(server)
        server.operative = True
        self._schedule_breakdown(server)
        self._dispatch_jobs()
        self._rebalance()

    def _handle_completion(self, server: _ScenarioServer) -> None:
        job = server.job
        if job is None:  # pragma: no cover - defensive; cancelled handles prevent this
            return
        server.job = None
        server.completion_handle = None
        self._record_busy_change(-1)
        self._record_jobs_change(-1)
        self._completed_jobs.append((self.now, self.now - job.arrival_time))
        self._dispatch_jobs()
        self._rebalance()

    def _preempt(self, server: _ScenarioServer) -> None:
        """Interrupt the job in service and return it to the front of the queue."""
        job = server.job
        assert job is not None
        if server.completion_handle is not None:
            server.completion_handle.cancel()
            job.remaining_work = max(
                (server.completion_handle.time - self.now) * server.rate, 0.0
            )
        server.job = None
        server.completion_handle = None
        self._record_busy_change(-1)
        self._queue.appendleft(job)

    # ------------------------------------------------------------------ #
    # Repair-crew contention
    # ------------------------------------------------------------------ #

    def _crew_share(self, broken: int) -> float:
        if broken <= 0:
            return 1.0
        return min(float(broken), float(self._repair_capacity)) / float(broken)

    def _enter_repair(self, server: _ScenarioServer) -> None:
        """Start a repair for ``server``, rescaling the crew share."""
        old_share = self._repair_share
        self._broken_ids.add(server.identifier)
        new_share = self._crew_share(len(self._broken_ids))
        if self._limited_crew and new_share != old_share:
            self._rescale_repairs(old_share, new_share)
        self._repair_share = new_share
        distribution = self._scenario.groups[server.group].inoperative
        work = float(distribution.sample(self._rng))
        server.repair_handle = self._scheduler.schedule(
            work / new_share, lambda: self._handle_repair(server)
        )

    def _leave_repair(self, server: _ScenarioServer) -> None:
        """Finish ``server``'s repair, rescaling the remaining broken servers."""
        old_share = self._repair_share
        self._broken_ids.discard(server.identifier)
        new_share = self._crew_share(len(self._broken_ids))
        if self._limited_crew and new_share != old_share:
            self._rescale_repairs(old_share, new_share)
        self._repair_share = new_share

    def _rescale_repairs(self, old_share: float, new_share: float) -> None:
        """Reschedule pending repair completions to the new crew speed."""
        for identifier in self._broken_ids:
            broken = self._servers[identifier]
            handle = broken.repair_handle
            if handle is None:  # pragma: no cover - defensive
                continue
            remaining_work = max((handle.time - self.now) * old_share, 0.0)
            handle.cancel()
            broken.repair_handle = self._scheduler.schedule(
                remaining_work / new_share,
                lambda srv=broken: self._handle_repair(srv),
            )

    # ------------------------------------------------------------------ #
    # Dispatch and migration (fastest-server-first invariant)
    # ------------------------------------------------------------------ #

    def _fastest_idle_operative(self) -> _ScenarioServer | None:
        best: _ScenarioServer | None = None
        for server in self._servers:
            if not server.operative or server.job is not None:
                continue
            if best is None or server.rate > best.rate:
                best = server
        return best

    def _slowest_busy(self) -> _ScenarioServer | None:
        worst: _ScenarioServer | None = None
        for server in self._servers:
            if server.job is None:
                continue
            if worst is None or server.rate < worst.rate:
                worst = server
        return worst

    def _start_service(self, server: _ScenarioServer, job: _ScenarioJob) -> None:
        server.job = job
        server.completion_handle = self._scheduler.schedule(
            job.remaining_work / server.rate, lambda srv=server: self._handle_completion(srv)
        )

    def _dispatch_jobs(self) -> None:
        """Assign waiting jobs to the fastest idle operative servers."""
        while self._queue:
            server = self._fastest_idle_operative()
            if server is None:
                break
            job = self._queue.popleft()
            self._start_service(server, job)
            self._record_busy_change(+1)

    def _rebalance(self) -> None:
        """Migrate jobs so they occupy the fastest operative servers.

        Only relevant when the queue is empty (work conservation otherwise
        keeps every operative server busy) and the servers differ in speed.
        Migration preserves the job's remaining work; the exponential
        requirement makes it statistically invisible, and it is what aligns
        the simulator with the CTMC's fastest-server-first service capacity.
        """
        if self._queue or self._single_speed:
            return
        while True:
            idle = self._fastest_idle_operative()
            busy = self._slowest_busy()
            if idle is None or busy is None or idle.rate <= busy.rate:
                return
            job = busy.job
            assert job is not None
            if busy.completion_handle is not None:
                busy.completion_handle.cancel()
                job.remaining_work = max(
                    (busy.completion_handle.time - self.now) * busy.rate, 0.0
                )
            busy.job = None
            busy.completion_handle = None
            self._start_service(idle, job)

    # ------------------------------------------------------------------ #
    # Statistics plumbing
    # ------------------------------------------------------------------ #

    def _record_jobs_change(self, delta: int) -> None:
        self._jobs_in_system += delta
        self._jobs_accumulator.record(self.now, float(self._jobs_in_system))

    def _record_busy_change(self, delta: int) -> None:
        self._num_busy += delta
        self._busy_accumulator.record(self.now, float(self._num_busy))


def simulate_scenario(
    scenario: "ScenarioModel",
    *,
    horizon: float,
    warmup_fraction: float = 0.1,
    num_batches: int = 10,
    seed: int = 0,
    confidence: float = 0.95,
) -> SimulationEstimate:
    """Simulate a :class:`~repro.scenarios.ScenarioModel`.

    Parameters
    ----------
    scenario:
        The scenario to simulate (period distributions may be any
        :class:`~repro.distributions.Distribution`).
    horizon:
        Total simulated time, including warm-up.
    warmup_fraction:
        Fraction of the horizon discarded before statistics are collected.
    num_batches:
        Number of batches for the batch-means confidence intervals.
    seed:
        Random seed.
    confidence:
        Confidence level for the intervals.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise SimulationError("warmup_fraction must lie in [0, 1)")
    num_batches = check_positive_int(num_batches, "num_batches")
    if num_batches < 2:
        raise SimulationError("at least two batches are required for confidence intervals")
    horizon = check_positive(horizon, "horizon")

    simulator = ScenarioSimulator(scenario, seed=seed)
    simulator.run(horizon)
    simulator.close()

    warmup_time = warmup_fraction * horizon
    measurement_time = horizon - warmup_time
    batch_length = measurement_time / num_batches

    queue_batches = np.array(
        [
            simulator.time_average_jobs(
                warmup_time + index * batch_length, warmup_time + (index + 1) * batch_length
            )
            for index in range(num_batches)
        ]
    )
    queue_interval = batch_means_interval(queue_batches, confidence=confidence)

    completions = [
        (when, response) for when, response in simulator.completed_jobs() if when >= warmup_time
    ]
    if len(completions) < num_batches:
        raise SimulationError(
            "too few completed jobs after warm-up to form response-time batches; "
            "increase the horizon"
        )
    response_times = np.array([response for _, response in completions])
    response_batches = np.array(
        [float(np.mean(chunk)) for chunk in np.array_split(response_times, num_batches)]
    )
    response_interval = batch_means_interval(response_batches, confidence=confidence)

    busy_average = simulator.time_average_busy_servers(warmup_time, horizon)
    return SimulationEstimate(
        mean_queue_length=queue_interval,
        mean_response_time=response_interval,
        utilisation=busy_average / scenario.num_servers,
        num_completed_jobs=len(completions),
        horizon=horizon,
        warmup_time=warmup_time,
    )


def simulate_queue(
    model: "UnreliableQueueModel",
    *,
    horizon: float,
    warmup_fraction: float = 0.1,
    num_batches: int = 10,
    seed: int = 0,
    confidence: float = 0.95,
) -> SimulationEstimate:
    """Simulate an :class:`~repro.queueing.model.UnreliableQueueModel`.

    The model runs as its ``K = 1, R = N`` scenario; parameters are those of
    :func:`simulate_scenario`.
    """
    from ..scenarios.model import ScenarioModel

    return simulate_scenario(
        ScenarioModel.from_homogeneous(model),
        horizon=horizon,
        warmup_fraction=warmup_fraction,
        num_batches=num_batches,
        seed=seed,
        confidence=confidence,
    )
