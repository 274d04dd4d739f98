"""Worker-process side of the execution fabric.

Everything the pool runner ships across the process boundary lives
here as plain module-level functions and picklable dataclasses, so the
fabric works under both ``fork`` and ``spawn`` start methods (spawn
re-imports this module in the child instead of inheriting the parent's
memory image).

A worker runs one task per :func:`run_chunk` call and returns a
:class:`ChunkResult` carrying the return value (or the formatted error)
plus, when the parent runs with telemetry enabled, a serialized metrics
state and span buffer recorded by the worker's *own* registry/tracer.
The parent folds those into its registry in task order, so
``--telemetry --jobs N`` run manifests carry the same counts a serial
run would.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..telemetry import (
    MetricsRegistry,
    RingBufferSink,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    reset_for_worker,
)

#: Span/event records a worker buffers per task for the parent.
SPAN_BUFFER_SIZE = 4096

__all__ = [
    "ChunkResult",
    "TaskError",
    "init_worker",
    "run_chunk",
]


@dataclass(frozen=True)
class TaskError:
    """Picklable record of one task's failure."""

    exc_type: str
    message: str
    traceback: str

    @classmethod
    def from_exception(cls, exc: BaseException) -> "TaskError":
        """Record ``exc`` with its formatted traceback (causes included)."""
        return cls(
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )

    def __str__(self) -> str:
        return f"{self.exc_type}: {self.message}"


@dataclass
class ChunkResult:
    """What one worker sends back for one task."""

    value: Any = None
    error: Optional[TaskError] = None
    #: Worker PID (diagnostics; stamped onto absorbed spans).
    pid: int = 0
    #: ``MetricsRegistry.dump_state()`` of the worker's task-local
    #: registry, or None when telemetry capture was off.
    metrics_state: Optional[Dict[str, Any]] = None
    #: Buffered span/event records from the worker's task-local tracer.
    spans: List[Dict[str, Any]] = field(default_factory=list)


def init_worker() -> None:
    """Worker-process initializer: start from clean telemetry backends.

    Under ``fork`` the child begins life holding the parent's live
    registry and tracer; anything it recorded there would be counted
    twice once the parent merges the task's explicit snapshot.  Under
    ``spawn`` this is a no-op (fresh interpreter, no-op backends), which
    is exactly why task functions must not rely on inherited state.
    """
    reset_for_worker()


def call_task(
    fn: Any, args: tuple, kwargs: Dict[str, Any], seed: Optional[int]
) -> Any:
    """Invoke one declarative task record.

    A non-None ``seed`` is passed as the keyword argument ``seed`` — the
    fabric's seeding contract: task functions take their entire random
    state from that one explicit value.
    """
    if seed is not None:
        kwargs = dict(kwargs)
        kwargs["seed"] = seed
    return fn(*args, **kwargs)


def run_chunk(
    fn: Any,
    args: tuple,
    kwargs: Dict[str, Any],
    seed: Optional[int],
    capture_telemetry: bool = False,
) -> ChunkResult:
    """Execute one task inside a worker process.

    With ``capture_telemetry`` the task runs against a fresh, private
    registry and a ring-buffer tracer; both are torn down before
    returning so pool workers (which are reused across tasks) never
    leak observations from one task into the next.
    """
    result = ChunkResult(pid=os.getpid())
    if capture_telemetry:
        registry = enable_metrics(MetricsRegistry())
        ring = RingBufferSink(capacity=SPAN_BUFFER_SIZE)
        enable_tracing(ring)
    try:
        try:
            result.value = call_task(fn, args, kwargs, seed)
        except Exception as exc:  # ship the failure, keep the worker
            result.error = TaskError.from_exception(exc)
        if capture_telemetry:
            result.metrics_state = registry.dump_state()
            result.spans = ring.events()
    finally:
        if capture_telemetry:
            disable_metrics()
            disable_tracing()
    return result
