"""Work-stealing scheduler for heterogeneous task costs.

Cutting the submission list into contiguous chunks up front assumes
tasks cost roughly the same.  The workloads the fabric carries —
chaos-matrix cells, DQN training runs, streaming lanes — are wildly
heterogeneous, and one expensive task buried in a fat chunk serializes
behind an idle pool.  This module schedules those workloads honestly:

* :class:`TaskCostModel` — per-task cost estimates seeded from prior
  observed timings (optionally persisted in a ``fabric-cost:``
  namespace of the content-addressed result store), so known-expensive
  cells are scheduled first;
* LPT (longest-processing-time-first) initial assignment over
  per-worker local queues, built by :func:`plan_queues`;
* adaptive chunk splitting (:func:`next_chunk_size`) — early dispatches
  move big chunks to amortize IPC, the tail degrades to single tasks so
  no worker sits on a fat remainder;
* **stealing**: a worker that drains its local queue takes the
  expensive front half of the most-loaded victim's remaining queue
  (steal-half, brokered by the scheduler, counted in
  ``fabric.steals``);
* worker churn tolerance: a dead endpoint's outstanding and queued
  tasks are requeued and no task outcome is recorded twice, so store
  writes stay single-winner.

The determinism contract is untouched: results are reassembled by
submission index, every task owns its seed, and which worker ran what
is never observable in the output — only in telemetry
(``fabric.steals``, ``fabric.idle_ms``, per-worker utilization).
:class:`WorkStealingScheduler` is backend-agnostic; it drives any
:class:`WorkerEndpoint` (local pipe-connected processes in
:mod:`.fabric`, socket-connected remote workers in :mod:`.remote`).
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ParallelError, ReproError
from ..telemetry import get_metrics, get_tracer
from .worker import ChunkPayload, ChunkResult, TaskError

__all__ = [
    "COST_NAMESPACE",
    "EndpointDied",
    "TaskCostModel",
    "WorkerEndpoint",
    "WorkStealingScheduler",
    "cost_group",
    "next_chunk_size",
    "plan_queues",
]

#: Result-store namespace holding observed task costs (seconds).
COST_NAMESPACE = "fabric-cost"

_DIGIT_RUN = re.compile(r"\d+")


class EndpointDied(ReproError):
    """A worker endpoint stopped responding (crash, disconnect, timeout)."""


def cost_group(fn: Any, label: str = "") -> Optional[str]:
    """The cost-model bucket a task belongs to.

    Costs generalize across *kinds* of tasks, not exact argument
    tuples (an exact repeat would be served by the result store, never
    scheduled at all).  The bucket is the function's qualified name
    plus the task label with digit runs collapsed, so ``fig6[...]#3``
    and ``fig6[...]#17`` share a bucket while chaos scenarios with
    different names stay distinct.  Unnameable callables get no bucket
    (→ default cost).
    """
    qualname = getattr(fn, "__qualname__", None)
    module = getattr(fn, "__module__", None)
    if not qualname or not module:
        return None
    if "<lambda>" in qualname or "<locals>" in qualname:
        return None
    bucket = f"{module}:{qualname}"
    if label:
        bucket += "|" + _DIGIT_RUN.sub("#", label)
    return bucket


class TaskCostModel:
    """EWMA of observed per-task wall-clock seconds, by cost group.

    With a ``store`` the model persists across runs (namespace
    ``fabric-cost:``): the first sweep observes, later sweeps schedule
    known-expensive groups first (LPT order).  Without one it still
    learns *within* a batch — stealing keeps mid-batch estimates
    honest.  Estimates only shape the schedule; they can never change
    results, so a cold/stale/wrong model costs time, not correctness.
    """

    def __init__(
        self,
        store: Optional[Any] = None,
        default_cost: float = 1.0,
        alpha: float = 0.4,
    ) -> None:
        self._store = store.namespaced(COST_NAMESPACE) if store is not None else None
        self.default_cost = float(default_cost)
        self.alpha = float(alpha)
        self._ewma: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}
        self._loaded: Dict[str, bool] = {}
        self._dirty: set = set()

    def _load(self, group: str) -> None:
        if self._loaded.get(group) or self._store is None:
            return
        self._loaded[group] = True
        value, found = self._store.fetch_object("cost:" + group)
        if found and isinstance(value, dict) and "ewma" in value:
            self._ewma.setdefault(group, float(value["ewma"]))
            self._counts.setdefault(group, int(value.get("count", 1)))

    def estimate(self, fn: Any, label: str = "") -> float:
        """Expected seconds for one task of this kind."""
        group = cost_group(fn, label)
        if group is None:
            return self.default_cost
        self._load(group)
        return self._ewma.get(group, self.default_cost)

    def observe(self, fn: Any, label: str, seconds: float) -> None:
        """Fold one observed task duration into the model."""
        group = cost_group(fn, label)
        if group is None or seconds < 0:
            return
        self._load(group)
        previous = self._ewma.get(group)
        if previous is None:
            self._ewma[group] = float(seconds)
        else:
            self._ewma[group] = (
                self.alpha * float(seconds) + (1.0 - self.alpha) * previous
            )
        self._counts[group] = self._counts.get(group, 0) + 1
        self._dirty.add(group)

    def flush(self) -> int:
        """Persist updated groups to the store; returns how many."""
        if self._store is None:
            self._dirty.clear()
            return 0
        written = 0
        for group in sorted(self._dirty):
            self._store.put_object(
                "cost:" + group,
                {"ewma": self._ewma[group], "count": self._counts[group]},
            )
            written += 1
        self._dirty.clear()
        return written


def next_chunk_size(
    queue_length: int, chunk_factor: int = 4, min_chunk: int = 1
) -> int:
    """Adaptive dispatch granularity (guided self-scheduling).

    Each dispatch takes ``ceil(queue/chunk_factor)`` of the worker's
    remaining local queue: early chunks are large (amortizing IPC and
    pickling), the tail degrades to ``min_chunk`` so the last expensive
    task never drags a fat chunk behind it and leftovers stay stealable.
    """
    if queue_length <= 0:
        return 0
    size = -(-queue_length // max(1, chunk_factor))
    return max(min(min_chunk, queue_length), min(size, queue_length))


def plan_queues(
    estimates: Sequence[float], workers: int
) -> List[List[int]]:
    """LPT assignment of task indices onto ``workers`` local queues.

    Tasks are taken in descending estimated cost (stable on ties, so a
    cold model degrades to submission order) and each goes to the
    currently least-loaded queue — the classic longest-processing-time
    heuristic, ≤ 4/3·OPT makespan.  Each queue comes back in
    expensive-first order: dispatch pops from the *front* so long tasks
    start immediately and the cheap tail back-fills, and a thief steals
    the expensive *front* half of whatever remains.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    order = sorted(
        range(len(estimates)), key=lambda i: (-estimates[i], i)
    )
    loads = [0.0] * workers
    queues: List[List[int]] = [[] for _ in range(workers)]
    for index in order:
        target = min(range(workers), key=lambda w: (loads[w], w))
        # Appending in descending-cost order keeps every queue
        # expensive-first.
        queues[target].append(index)
        loads[target] += estimates[index]
    return queues


class WorkerEndpoint:
    """One schedulable execution resource (local process, remote host).

    The scheduler talks to every backend through this interface:
    ``send_chunk`` ships ``(chunk_id, entries)``, ``recv_outcome``
    returns one completed :class:`~.worker.ChunkResult` (or ``None``
    for non-result traffic such as heartbeat replies), ``maintain`` is
    the liveness hook called on scheduler ticks.  ``slots`` is how many
    chunks may be in flight at once (a remote host serving with
    ``--jobs 4`` advertises 4).
    """

    ident: str = "worker"
    slots: int = 1

    @property
    def connected(self) -> bool:
        """False once the endpoint is closed and needs :meth:`respawn`."""
        return True

    def waitable(self) -> Any:
        """Object accepted by ``multiprocessing.connection.wait``."""
        raise NotImplementedError

    def send_chunk(
        self,
        chunk_id: int,
        entries: Sequence[Tuple[int, Any, tuple, Dict[str, Any], Optional[int]]],
        capture_telemetry: bool,
        span_buffer_size: int,
    ) -> None:
        raise NotImplementedError

    def recv_outcome(self) -> Optional[Tuple[int, ChunkResult]]:
        """One ``(chunk_id, result)``; ``None`` if the frame was not a
        result.  Raises :class:`EndpointDied` on a dead peer."""
        raise NotImplementedError

    def maintain(self, now: float) -> None:
        """Periodic liveness check; raise :class:`EndpointDied` to kill."""

    def respawn(self) -> bool:
        """Try to bring a dead endpoint back; True on success."""
        return False

    def close(self) -> None:
        """Release the underlying resource."""


@dataclass
class _EndpointState:
    endpoint: WorkerEndpoint
    queue: List[int] = field(default_factory=list)
    #: chunk_id -> list of task indices in flight.
    inflight: Dict[int, List[int]] = field(default_factory=dict)
    busy_seconds: float = 0.0
    tasks_run: int = 0
    alive: bool = True

    @property
    def backlog(self) -> int:
        return len(self.queue)


class WorkStealingScheduler:
    """Drives a batch of tasks over a set of :class:`WorkerEndpoint`.

    One instance per ``_run_batch`` call.  The loop: fill every
    endpoint's slots from its local queue (adaptive chunk size), wait
    for results, persist/record them in submission-index terms, refill
    — stealing half of the most-loaded victim's queue when a worker
    runs dry, requeueing everything a dead endpoint held.  Completion
    order never reaches the caller: results are reassembled by index.
    """

    def __init__(
        self,
        endpoints: Sequence[WorkerEndpoint],
        cost_model: Optional[TaskCostModel] = None,
        chunk_factor: int = 4,
        min_chunk: int = 1,
        tick_seconds: float = 1.0,
        on_telemetry: Optional[Callable[[ChunkResult], None]] = None,
    ) -> None:
        if not endpoints:
            raise ValueError("at least one endpoint required")
        self.cost_model = cost_model or TaskCostModel()
        self.chunk_factor = max(1, chunk_factor)
        self.min_chunk = max(1, min_chunk)
        self.tick_seconds = tick_seconds
        self.on_telemetry = on_telemetry
        self.steals = 0
        self.chunks_dispatched = 0
        self._states = [_EndpointState(endpoint=ep) for ep in endpoints]
        self._next_chunk_id = 0

    # -- dispatch ----------------------------------------------------

    def _dispatch(self, state: _EndpointState, tasks, capture, span_buffer):
        """Send one chunk to ``state`` if it has (or can steal) work."""
        if not state.queue and not self._steal_into(state):
            return False
        size = next_chunk_size(
            len(state.queue), self.chunk_factor * state.endpoint.slots,
            self.min_chunk,
        )
        indices, state.queue = state.queue[:size], state.queue[size:]
        # A chunk runs in index order, as a serial loop would: with the
        # runner folding chunk telemetry by last index, a gauge every
        # task sets ends at the last task's value.
        entries = [
            (i, tasks[i].fn, tuple(tasks[i].args), dict(tasks[i].kwargs),
             tasks[i].seed)
            for i in sorted(indices)
        ]
        chunk_id = self._next_chunk_id
        self._next_chunk_id += 1
        try:
            state.endpoint.send_chunk(chunk_id, entries, capture, span_buffer)
        except EndpointDied:
            # Put the popped slice back so _bury requeues it with the
            # rest of the dead endpoint's work — a death detected on
            # *send* must lose exactly as little as one detected on
            # receive.
            state.queue = indices + state.queue
            raise
        state.inflight[chunk_id] = indices
        self.chunks_dispatched += 1
        return True

    def _steal_into(self, thief: _EndpointState) -> bool:
        victim = max(
            (s for s in self._states if s.alive and s is not thief),
            key=lambda s: s.backlog,
            default=None,
        )
        if victim is None or victim.backlog == 0:
            return False
        # Steal-half from the front: queues are expensive-first, so the
        # thief takes the high-cost half — the costliest remaining work
        # starts immediately on the idle worker while the victim keeps
        # the cheap back-fill it can finish quickly.
        count = -(-victim.backlog // 2)
        stolen, victim.queue = (
            victim.queue[:count],
            victim.queue[count:],
        )
        thief.queue.extend(stolen)
        self.steals += 1
        get_metrics().counter("fabric.steals").inc()
        get_tracer().event(
            "fabric.steal",
            thief=thief.endpoint.ident,
            victim=victim.endpoint.ident,
            tasks=count,
        )
        return True

    def _fill(self, state: _EndpointState, tasks, capture, span_buffer):
        while state.alive and len(state.inflight) < state.endpoint.slots:
            if not self._dispatch(state, tasks, capture, span_buffer):
                break

    # -- failure handling --------------------------------------------

    def _bury(self, state: _EndpointState, done: Dict[int, Any]) -> None:
        """Requeue everything a dead endpoint held, exactly once."""
        state.alive = False
        orphans = [
            i
            for indices in state.inflight.values()
            for i in indices
            if i not in done
        ]
        orphans.extend(i for i in state.queue if i not in done)
        state.inflight.clear()
        state.queue = []
        get_metrics().counter("fabric.worker_deaths").inc()
        get_tracer().event(
            "fabric.worker_died",
            worker=state.endpoint.ident,
            requeued=len(orphans),
        )
        if state.endpoint.respawn():
            state.alive = True
            state.queue = orphans
            return
        survivors = [s for s in self._states if s.alive]
        if not survivors:
            if orphans:
                raise ParallelError(
                    f"all fabric workers died with {len(orphans)} task(s) "
                    f"unfinished (last casualty: {state.endpoint.ident})"
                )
            return
        # Hand the orphans to the least-loaded survivor; stealing will
        # re-balance from there.
        target = min(survivors, key=lambda s: s.backlog)
        target.queue = orphans + target.queue

    # -- main loop ---------------------------------------------------

    def execute(
        self,
        tasks: Sequence[Any],
        persist: Optional[Callable[[int, Any], None]] = None,
        capture_telemetry: bool = False,
        span_buffer_size: int = 4096,
        make_result: Optional[Callable[[int, Any, Optional[TaskError]], Any]] = None,
    ) -> List[Any]:
        """Run every task; returns per-index results in submission order.

        ``make_result(index, value, error)`` builds the caller's result
        record (defaults to the raw triple); ``persist`` is invoked
        exactly once per index, as outcomes arrive.
        """
        from multiprocessing.connection import wait as connection_wait

        if make_result is None:
            make_result = lambda i, v, e: (i, v, e)  # noqa: E731
        total = len(tasks)
        done: Dict[int, Any] = {}
        if total == 0:
            return []
        estimates = [
            self.cost_model.estimate(task.fn, task.label) for task in tasks
        ]
        alive = [s for s in self._states if s.alive]
        queues = plan_queues(estimates, len(alive))
        for state, queue in zip(alive, queues):
            state.queue = queue
        started = time.perf_counter()
        metrics = get_metrics()
        while len(done) < total:
            for state in self._states:
                if state.alive:
                    try:
                        self._fill(
                            state, tasks, capture_telemetry, span_buffer_size
                        )
                    except EndpointDied:
                        # A worker can die between a receive and the
                        # next dispatch (remote disconnect, the
                        # max_chunks_per_connection churn hook); the
                        # failed send is handled exactly like a failed
                        # receive.
                        self._bury(state, done)
            waiting = {
                s.endpoint.waitable(): s
                for s in self._states
                if s.alive and s.inflight
            }
            if not waiting:
                # Work remains but nothing is in flight: every live
                # endpoint refused to dispatch (all dead or all queues
                # empty while tasks are lost) — a scheduler bug surfaced
                # loudly rather than a hang.
                raise ParallelError(
                    f"fabric stalled with {total - len(done)} task(s) "
                    "unassigned and no chunks in flight"
                )
            ready = connection_wait(
                list(waiting), timeout=self.tick_seconds
            )
            now = time.perf_counter()
            if not ready:
                for state in list(self._states):
                    if not state.alive or not state.inflight:
                        continue
                    try:
                        state.endpoint.maintain(now)
                    except EndpointDied:
                        self._bury(state, done)
                continue
            for waitable in ready:
                state = waiting[waitable]
                try:
                    received = state.endpoint.recv_outcome()
                except EndpointDied:
                    self._bury(state, done)
                    continue
                if received is None:
                    continue
                chunk_id, result = received
                indices = state.inflight.pop(chunk_id, None)
                if indices is None:
                    # Late duplicate from a churned worker; everything
                    # in it was already requeued/recorded.
                    continue
                self._absorb(state, result, tasks, done, persist, make_result)
        elapsed = time.perf_counter() - started
        self._publish_utilization(metrics, elapsed)
        self.cost_model.flush()
        return [done[index] for index in range(total)]

    def _absorb(
        self, state, result: ChunkResult, tasks, done, persist, make_result
    ):
        if self.on_telemetry is not None:
            self.on_telemetry(result)
        state.busy_seconds += sum(result.task_seconds) or result.elapsed_seconds
        seconds = list(result.task_seconds) or [None] * len(result.outcomes)
        for (index, value, error), task_secs in zip(result.outcomes, seconds):
            if index not in done:
                # Single-winner: churn can re-run a task, never re-record
                # (or re-persist) its outcome.
                record = make_result(index, value, error)
                done[index] = record
                state.tasks_run += 1
                if persist is not None:
                    persist(index, record)
            # Feed the cost model so the *rest of this batch* (and, with
            # a store, the next run) schedules with observed costs.
            if task_secs is not None:
                task = tasks[index]
                self.cost_model.observe(task.fn, task.label, task_secs)

    def _publish_utilization(self, metrics, elapsed: float) -> None:
        for state in self._states:
            ident = state.endpoint.ident
            budget = max(elapsed, 1e-9) * state.endpoint.slots
            idle = max(0.0, budget - state.busy_seconds)
            metrics.counter("fabric.worker_tasks", worker=ident).inc(
                state.tasks_run
            )
            metrics.counter("fabric.idle_ms", worker=ident).inc(
                round(idle * 1000.0, 3)
            )
            metrics.gauge("fabric.utilization", worker=ident).set(
                min(1.0, state.busy_seconds / budget)
            )
        metrics.gauge("fabric.steals_last_batch").set(self.steals)

    def utilization_report(self) -> List[Dict[str, Any]]:
        """Per-endpoint accounting for benches and debugging."""
        return [
            {
                "worker": state.endpoint.ident,
                "tasks": state.tasks_run,
                "busy_seconds": state.busy_seconds,
                "alive": state.alive,
            }
            for state in self._states
        ]
