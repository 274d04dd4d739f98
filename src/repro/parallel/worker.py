"""Worker-process side of the execution fabric.

Everything the fabric runner ships across the process boundary lives
here as plain module-level functions and picklable dataclasses, so the
fabric works under both ``fork`` and ``spawn`` start methods (spawn
re-imports this module in the child instead of inheriting the parent's
memory image).

A worker receives a :class:`ChunkPayload` — a slice of the submitted
task list — and returns a :class:`ChunkResult` carrying, per task, the
return value (or the formatted error) plus, when the parent runs with
telemetry enabled, a serialized metrics state and span buffer recorded
by the worker's *own* registry/tracer.  The parent folds those into its
registry in task order, so ``--telemetry --jobs N`` run manifests carry
the same counts a serial run would.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..telemetry import (
    MetricsRegistry,
    RingBufferSink,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    reset_for_worker,
)

__all__ = [
    "ChunkPayload",
    "ChunkResult",
    "TaskError",
    "init_worker",
    "run_chunk",
    "steal_worker_main",
]


@dataclass(frozen=True)
class TaskError:
    """Picklable record of one task's failure."""

    exc_type: str
    message: str
    traceback: str

    def __str__(self) -> str:
        return f"{self.exc_type}: {self.message}"


@dataclass(frozen=True)
class ChunkPayload:
    """One worker-bound slice of the task list.

    ``tasks`` entries are ``(index, fn, args, kwargs, seed)`` where
    ``index`` is the task's position in the original submission order —
    the parent reassembles results by it regardless of which worker
    finished first.
    """

    tasks: Tuple[Tuple[int, Any, tuple, Dict[str, Any], Optional[int]], ...]
    capture_telemetry: bool = False
    span_buffer_size: int = 4096


@dataclass
class ChunkResult:
    """What one worker sends back for one chunk."""

    #: ``(index, value, error)`` per task, in chunk order.
    outcomes: List[Tuple[int, Any, Optional[TaskError]]]
    #: Worker PID (diagnostics; stamped onto absorbed spans).
    pid: int = 0
    #: Wall-clock seconds the chunk took inside the worker.
    elapsed_seconds: float = 0.0
    #: ``MetricsRegistry.dump_state()`` of the worker's chunk-local
    #: registry, or None when telemetry capture was off.
    metrics_state: Optional[Dict[str, Any]] = None
    #: Buffered span/event records from the worker's chunk-local tracer.
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-task wall-clock seconds, aligned with ``outcomes``.  Feeds
    #: the work-stealing scheduler's task-cost model; empty on results
    #: produced by pre-timing workers (the field is additive).
    task_seconds: Tuple[float, ...] = ()


def init_worker() -> None:
    """Worker-process initializer: start from clean telemetry backends.

    Under ``fork`` the child begins life holding the parent's live
    registry and tracer; anything it recorded there would be counted
    twice once the parent merges the chunk's explicit snapshot.  Under
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


def run_chunk(payload: ChunkPayload) -> ChunkResult:
    """Execute one chunk inside a worker process.

    With ``capture_telemetry`` the chunk runs against a fresh, private
    registry and a ring-buffer tracer; both are torn down before
    returning so pool workers (which are reused across chunks) never
    leak observations from one chunk into the next.
    """
    started = time.perf_counter()
    registry: Optional[MetricsRegistry] = None
    ring: Optional[RingBufferSink] = None
    if payload.capture_telemetry:
        registry = enable_metrics(MetricsRegistry())
        ring = RingBufferSink(capacity=payload.span_buffer_size)
        enable_tracing(ring)
    try:
        outcomes: List[Tuple[int, Any, Optional[TaskError]]] = []
        task_seconds: List[float] = []
        for index, fn, args, kwargs, seed in payload.tasks:
            task_started = time.perf_counter()
            try:
                value = call_task(fn, args, kwargs, seed)
                outcomes.append((index, value, None))
            except Exception as exc:  # ship the failure, keep the chunk
                outcomes.append(
                    (
                        index,
                        None,
                        TaskError(
                            exc_type=type(exc).__name__,
                            message=str(exc),
                            traceback=traceback.format_exc(),
                        ),
                    )
                )
            task_seconds.append(time.perf_counter() - task_started)
        metrics_state = registry.dump_state() if registry is not None else None
        spans = ring.events() if ring is not None else []
    finally:
        if payload.capture_telemetry:
            disable_metrics()
            disable_tracing()
    return ChunkResult(
        outcomes=outcomes,
        pid=os.getpid(),
        elapsed_seconds=time.perf_counter() - started,
        metrics_state=metrics_state,
        spans=spans,
        task_seconds=tuple(task_seconds),
    )


def steal_worker_main(conn) -> None:
    """Long-lived loop for one local fabric worker.

    The worker stays attached to its pipe across batches: the scheduler
    sends ``(chunk_id, ChunkPayload)`` messages and the worker answers
    each with ``(chunk_id, ChunkResult)``.  ``None`` (or
    a closed pipe) is the shutdown signal.  A crash inside the protocol
    machinery itself — not a task failure, which :func:`run_chunk`
    already ships as a :class:`TaskError` — is reported as a failed
    chunk so the scheduler can requeue rather than hang.
    """
    init_worker()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        chunk_id, payload = message
        try:
            result = run_chunk(payload)
        except BaseException:  # noqa: BLE001 - must answer or the batch hangs
            result = ChunkResult(
                outcomes=[
                    (
                        index,
                        None,
                        TaskError(
                            exc_type="WorkerProtocolError",
                            message="worker crashed outside task code",
                            traceback=traceback.format_exc(),
                        ),
                    )
                    for index, *_rest in payload.tasks
                ],
                pid=os.getpid(),
            )
        try:
            conn.send((chunk_id, result))
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass
