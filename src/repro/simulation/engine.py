"""A small deterministic discrete-event simulation engine.

The engine is deliberately minimal: a simulation clock, a priority queue of
time-stamped events with stable FIFO tie-breaking, and support for cancelling
events that have become obsolete (for example the service completion of a job
whose server just broke down).  The queueing simulator in
:mod:`repro.simulation.scenario_sim` is built on top of it; keeping the engine
generic also makes it reusable for the extension studies in the examples.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

from ..exceptions import SimulationError


@dataclass(order=True)
class _ScheduledEvent:
    """Internal heap entry: (time, sequence) ordering with payload attached."""

    time: float
    sequence: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventHandle:
    """Handle returned by :meth:`EventScheduler.schedule`; allows cancellation."""

    __slots__ = ("_event",)

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self._event.cancelled = True

    @property
    def time(self) -> float:
        """The scheduled firing time of the event."""
        return self._event.time

    @property
    def is_cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self._event.cancelled


class EventScheduler:
    """A simulation clock with a cancellable future-event list."""

    def __init__(self) -> None:
        self._clock = 0.0
        self._heap: list[_ScheduledEvent] = []
        self._sequence = itertools.count()
        self._processed = 0

    @property
    def now(self) -> float:
        """The current simulation time."""
        return self._clock

    @property
    def num_processed_events(self) -> int:
        """The number of events executed so far (cancelled events excluded)."""
        return self._processed

    @property
    def num_pending_events(self) -> int:
        """The number of events still in the future-event list (including cancelled)."""
        return len(self._heap)

    def clear(self) -> None:
        """Drop every pending event, and with it each action's references."""
        self._heap.clear()

    def schedule(self, delay: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` to run ``delay`` time units from now.

        Raises
        ------
        SimulationError
            If ``delay`` is negative or not finite.
        """
        if not delay >= 0.0:
            raise SimulationError(f"event delay must be non-negative and finite, got {delay!r}")
        event = _ScheduledEvent(time=self._clock + delay, sequence=next(self._sequence), action=action)
        heapq.heappush(self._heap, event)
        return EventHandle(event)

    def schedule_at(self, time: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` at an absolute simulation time (>= now)."""
        if time < self._clock:
            raise SimulationError(
                f"cannot schedule an event in the past (time {time} < now {self._clock})"
            )
        return self.schedule(time - self._clock, action)

    def run_until(self, horizon: float) -> None:
        """Execute events in time order until the clock reaches ``horizon``.

        Events scheduled exactly at the horizon are executed; the clock never
        exceeds the horizon even if later events remain pending.
        """
        if horizon < self._clock:
            raise SimulationError(
                f"horizon {horizon} lies in the past (current time {self._clock})"
            )
        while self._heap and self._heap[0].time <= horizon:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._clock = event.time
            self._processed += 1
            event.action()
        self._clock = horizon

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns True if an event was executed, False if the event list is
        empty (cancelled events are discarded silently).
        """
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._clock = event.time
            self._processed += 1
            event.action()
            return True
        return False
