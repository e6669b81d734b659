"""Per-backend profiling: capture the facade's fallback-chain attempts.

The solver facade's :func:`~repro.solvers.facade.evaluate` is the
single place the spectral → geometric → ctmc → simulate chain runs, so it is
the single place backend timing can be observed.  It calls
:func:`record_attempt` around every attempt — a no-op unless a caller has an
active :func:`capture_attempts` context on the *same thread*.

Thread-locality is deliberate: the serving scheduler runs batches on an
executor thread (``run_in_executor`` does not propagate contextvars into the
synchronous callable), the parallel sweep path runs in worker *processes*,
and concurrent batches must not see each other's attempts.  The capture
therefore activates exactly where the evaluation happens: ``repro solve
--profile`` wraps its in-process solve, and :func:`repro.solvers.solve_many`
accepts a ``profile`` mapping it fills from inside its serial execution path.

Attempt records are plain frozen dataclasses, JSON-friendly via
:meth:`AttemptRecord.to_dict`, so they slot into solution metadata, trace
spans and CLI tables alike.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class AttemptRecord:
    """One backend attempt in a fallback chain: who, how long, how it ended."""

    solver: str
    seconds: float
    ok: bool
    error: str | None = None

    def to_dict(self) -> dict[str, object]:
        return {
            "solver": self.solver,
            "seconds": round(self.seconds, 6),
            "ok": self.ok,
            "error": self.error,
        }


class _CaptureState(threading.local):
    """Per-thread stack of active capture sinks."""

    def __init__(self) -> None:
        self.stack: list[list[AttemptRecord]] = []


_state = _CaptureState()


@contextmanager
def capture_attempts() -> Iterator[list[AttemptRecord]]:
    """Collect every fallback-chain attempt made on this thread in the block.

    Nests: an inner capture shadows the outer one, so a profiled solve inside
    a profiled sweep attributes attempts to the innermost interested caller.
    """
    records: list[AttemptRecord] = []
    _state.stack.append(records)
    try:
        yield records
    finally:
        _state.stack.pop()


def record_attempt(
    solver: str,
    seconds: float,
    *,
    ok: bool,
    error: str | None = None,
) -> None:
    """Report one backend attempt; free when no capture is active."""
    stack = _state.stack
    if not stack:
        return
    stack[-1].append(AttemptRecord(solver=solver, seconds=seconds, ok=ok, error=error))


def capturing() -> bool:
    """Whether an attempt capture is active on this thread."""
    return bool(_state.stack)
