"""Deterministic parallel execution fabric for embarrassingly parallel sweeps.

Every PAROLE evaluation is a sweep over independent points — Fig. 6/7
trials, one DQN training run per Fig. 8 epsilon, Fig. 9/11 solver
trials, the chaos matrix.  This module gives them one orchestration
shape:

* a declarative :class:`Task` record — ``(fn, args, kwargs, seed)`` with
  the seed passed explicitly so the task owns its entire random state;
* a :class:`TaskRunner` abstraction with two backends:
  :class:`SerialRunner` (the reference implementation) and
  :class:`StealingRunner`, the fabric runner: the work-stealing
  scheduler of :mod:`.scheduler` driving worker endpoints, which are
  long-lived local pipe workers here and remote sockets in its
  :class:`~.remote.RemoteRunner` subclass;
* :func:`spawn_task_seeds` — per-task seeds derived from the sweep seed
  via ``np.random.SeedSequence.spawn``, the recommended derivation for
  new sweeps (statistically independent streams, stable across numpy
  versions and platforms).

**Determinism contract.**  Results are reassembled in submission order
and every task's randomness comes from its explicit seed, so a sweep
produces identical results on every backend, for every worker count,
regardless of completion order.  ``tests/parallel`` asserts byte-equal
JSON payloads for the Fig. 6/7/9 harnesses across ``--jobs 1/2/4``.

**Telemetry.**  When the parent process has a live metrics registry,
workers record into their own chunk-local registry/tracer and ship a
serialized state + span buffer back; once the batch ends the parent
folds them in (``MetricsRegistry.merge`` / ``Tracer.absorb``) in task
order, so ``--telemetry --jobs N`` manifests carry the same counts as a
serial run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ParallelError
from ..store import CodecError, ResultStore, UnkeyableError, task_key
from ..telemetry import get_metrics, get_tracer
from .scheduler import (
    EndpointDied,
    TaskCostModel,
    WorkerEndpoint,
    WorkStealingScheduler,
)
from .worker import ChunkPayload, ChunkResult, TaskError, steal_worker_main

__all__ = [
    "Task",
    "TaskResult",
    "TaskRunner",
    "SerialRunner",
    "StealingRunner",
    "get_runner",
    "parse_worker_addresses",
    "resolve_cache_key",
    "spawn_task_seeds",
]


def spawn_task_seeds(sweep_seed: int, count: int) -> Tuple[int, ...]:
    """Derive ``count`` independent task seeds from one sweep seed.

    Uses ``np.random.SeedSequence(sweep_seed).spawn(count)`` — children
    are statistically independent streams whose values are documented as
    reproducible across numpy versions and platforms — and collapses
    each child to one ``uint32`` so the result can feed any config that
    takes a plain integer seed.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    sequence = np.random.SeedSequence(sweep_seed)
    return tuple(
        int(child.generate_state(1, dtype=np.uint32)[0])
        for child in sequence.spawn(count)
    )


@dataclass(frozen=True)
class Task:
    """One declarative unit of sweep work.

    ``fn`` must be picklable for the process backend — a module-level
    function, not a lambda or closure.  A non-None ``seed`` is passed to
    ``fn`` as the keyword argument ``seed``; tasks whose functions need
    several seed streams carry them in ``args``/``kwargs`` instead.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    label: str = ""
    #: Result-store key for this task.  ``None`` (the default) derives a
    #: content-addressed key from ``(fn, args, kwargs, seed)`` whenever
    #: the runner carries a store; set explicitly to pin a key.
    cache_key: Optional[str] = None


def resolve_cache_key(task: Task) -> Optional[str]:
    """The store key a task caches under, or None when uncacheable.

    Explicit ``task.cache_key`` wins; otherwise the key is derived from
    the code fingerprint plus a canonical encoding of the task record
    (see :func:`repro.store.task_key`).  Tasks whose arguments cannot be
    canonically encoded simply run uncached.
    """
    if task.cache_key is not None:
        return task.cache_key
    try:
        return task_key(task.fn, task.args, task.kwargs, task.seed)
    except UnkeyableError:
        return None


@dataclass
class TaskResult:
    """Outcome of one task, tagged with its submission index."""

    index: int
    value: Any = None
    error: Optional[TaskError] = None
    label: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None


class TaskRunner:
    """Executes a batch of tasks; results come back in submission order.

    When :attr:`store` is set (see ``--cache DIR`` / ``get_runner``),
    every cacheable task is looked up in the store *before* dispatch and
    persisted *as its result arrives* — so a killed sweep resumes from
    completed tasks on the next run, and a fully warm batch never
    touches the backend at all.  Cached values round-trip through the
    store codec exactly, keeping warm results byte-identical to cold
    ones (asserted by ``tests/parallel/test_determinism.py``).
    """

    name = "base"

    #: Optional :class:`~repro.store.ResultStore`; assign (or pass to
    #: ``get_runner``) to memoize task results.
    store: Optional[ResultStore] = None

    def run(self, tasks: Sequence[Task]) -> List[TaskResult]:
        """Execute every task; per-task failures land in ``.error``."""
        store = self.store
        if store is None or not tasks:
            return self._run_batch(list(tasks), None)
        metrics = get_metrics()
        m_hits = metrics.counter("store.task_hits")
        m_misses = metrics.counter("store.task_misses")
        m_uncacheable = metrics.counter("store.task_uncacheable")
        results: Dict[int, TaskResult] = {}
        pending: List[Task] = []
        pending_meta: List[Tuple[int, Optional[str]]] = []
        for index, task in enumerate(tasks):
            key = resolve_cache_key(task)
            if key is not None:
                value, found = store.fetch_object(key)
                if found:
                    m_hits.inc()
                    results[index] = TaskResult(
                        index=index, value=value, label=task.label
                    )
                    continue
                m_misses.inc()
            else:
                m_uncacheable.inc()
            pending.append(task)
            pending_meta.append((index, key))

        def persist(local_index: int, result: TaskResult) -> None:
            _, key = pending_meta[local_index]
            if key is None or result.error is not None:
                return
            try:
                store.put_object(key, result.value)
            except CodecError:
                metrics.counter("store.task_unstorable").inc()

        if pending:
            for local_index, result in enumerate(
                self._run_batch(pending, persist)
            ):
                global_index, _ = pending_meta[local_index]
                results[global_index] = TaskResult(
                    index=global_index,
                    value=result.value,
                    error=result.error,
                    label=result.label,
                )
        return [results[index] for index in range(len(tasks))]

    def _run_batch(
        self,
        tasks: List[Task],
        persist: Optional[Callable[[int, TaskResult], None]],
    ) -> List[TaskResult]:
        """Backend hook: execute ``tasks``, calling ``persist`` with each
        ``(batch index, result)`` as results become available (so an
        interrupted batch keeps what already finished)."""
        raise NotImplementedError

    def map(self, tasks: Sequence[Task]) -> List[Any]:
        """Execute every task and return the values in submission order.

        Raises :class:`~repro.errors.ParallelError` on the first failed
        task (carrying the worker-side traceback), mirroring what the
        equivalent serial loop would have raised.
        """
        results = self.run(tasks)
        for result in results:
            if result.error is not None:
                detail = result.label or f"task #{result.index}"
                raise ParallelError(
                    f"{detail} failed with {result.error}\n"
                    f"{result.error.traceback}"
                )
        return [result.value for result in results]

    def close(self) -> None:
        """Release pooled resources (no-op for stateless backends)."""

    def __enter__(self) -> "TaskRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class SerialRunner(TaskRunner):
    """Reference backend: run in-process, in submission order.

    The default everywhere (``--jobs 1``): zero overhead, identical call
    graph to the pre-fabric code, and the behaviour every other backend
    must reproduce byte-for-byte.
    """

    name = "serial"

    def __init__(self, store: Optional[ResultStore] = None) -> None:
        self.store = store

    def _run_batch(
        self,
        tasks: List[Task],
        persist: Optional[Callable[[int, TaskResult], None]],
    ) -> List[TaskResult]:
        from .worker import call_task

        results: List[TaskResult] = []
        for index, task in enumerate(tasks):
            try:
                value = call_task(task.fn, task.args, task.kwargs, task.seed)
                result = TaskResult(index=index, value=value, label=task.label)
            except Exception as exc:
                import traceback as tb_module

                result = TaskResult(
                    index=index,
                    error=TaskError(
                        exc_type=type(exc).__name__,
                        message=str(exc),
                        traceback=tb_module.format_exc(),
                    ),
                    label=task.label,
                )
            # Persist before the failure propagates out of ``map``:
            # everything that completed stays completed.
            if persist is not None:
                persist(index, result)
            results.append(result)
        return results


def _default_start_method() -> str:
    """``fork`` where available (cheap startup), else ``spawn``.

    Workers are spawn-safe either way: the task protocol only ships
    picklable module-level functions, and ``init_worker`` resets any
    telemetry state a fork might have inherited.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class _ProcessEndpoint(WorkerEndpoint):
    """One pipe-connected local worker process for the fabric runner."""

    slots = 1

    def __init__(self, ident: str, start_method: str) -> None:
        self.ident = ident
        self.start_method = start_method
        self._conn = None
        self._proc = None
        self._start()

    def _start(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context(self.start_method)
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=steal_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        self._conn, self._proc = parent_conn, proc

    @property
    def connected(self) -> bool:
        return self._conn is not None

    def waitable(self):
        return self._conn

    def send_chunk(self, chunk_id, entries, capture_telemetry, span_buffer_size):
        if self._conn is None:
            raise EndpointDied(f"{self.ident}: worker pipe is closed")
        payload = ChunkPayload(
            tasks=tuple(entries),
            capture_telemetry=capture_telemetry,
            span_buffer_size=span_buffer_size,
        )
        try:
            self._conn.send((chunk_id, payload))
        except (BrokenPipeError, OSError) as exc:
            raise EndpointDied(f"{self.ident}: {exc}") from exc

    def recv_outcome(self):
        if self._conn is None:
            raise EndpointDied(f"{self.ident}: worker pipe is closed")
        try:
            return self._conn.recv()
        except (EOFError, OSError) as exc:
            raise EndpointDied(f"{self.ident}: worker pipe closed") from exc

    def respawn(self) -> bool:
        self.close(graceful=False)
        try:
            self._start()
            return True
        except OSError:
            return False

    def close(self, graceful: bool = True) -> None:
        if self._conn is not None:
            try:
                if graceful:
                    self._conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None
        if self._proc is not None:
            self._proc.join(timeout=5.0 if graceful else 0.5)
            if self._proc.is_alive():
                self._proc.terminate()
                self._proc.join(timeout=1.0)
            self._proc = None


class StealingRunner(TaskRunner):
    """The fabric runner: the work-stealing scheduler over worker endpoints.

    Batches run on the scheduler in :mod:`.scheduler`: per-worker local
    queues built in LPT order from a :class:`~.scheduler.TaskCostModel`
    (fed by prior observed timings when a store is attached), adaptive
    chunk splitting, and steal-half rebalancing when a worker runs dry.
    Endpoints open on the first non-empty batch and are reused across
    ``run`` calls.  One that dies mid-batch is respawned with its tasks
    requeued exactly once; one that stays dead is excluded, gets a fresh
    restart attempt at the start of every later batch, and the batch
    runs on the live subset.

    This class opens ``max_workers`` pipe-connected local worker
    processes; :class:`~.remote.RemoteRunner` overrides
    :meth:`_open_endpoints` to connect to ``parole worker serve`` hosts.

    The determinism contract is identical to :class:`SerialRunner`:
    submission-order reassembly plus explicit per-task seeds make the
    results byte-identical regardless of cost skew, steal pattern, or
    worker churn (``tests/parallel/test_determinism_chaos.py``).
    """

    name = "stealing"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        span_buffer_size: int = 4096,
        store: Optional[ResultStore] = None,
        cost_model: Optional[TaskCostModel] = None,
        chunk_factor: int = 4,
        min_chunk: int = 1,
        tick_seconds: float = 1.0,
    ) -> None:
        cpu = os.cpu_count() or 1
        self.max_workers = max(1, max_workers if max_workers is not None else cpu)
        self.start_method = start_method or _default_start_method()
        self.span_buffer_size = span_buffer_size
        self.store = store
        self.cost_model = (
            cost_model if cost_model is not None else TaskCostModel(store=store)
        )
        self.chunk_factor = chunk_factor
        self.min_chunk = min_chunk
        self.tick_seconds = tick_seconds
        self.last_scheduler: Optional[WorkStealingScheduler] = None
        self._endpoints: Optional[List[WorkerEndpoint]] = None

    def _open_endpoints(self) -> List[WorkerEndpoint]:
        """Open this runner's endpoints; called once, on the first batch."""
        return [
            _ProcessEndpoint(f"local-{index}", self.start_method)
            for index in range(self.max_workers)
        ]

    def _ensure_endpoints(self) -> List[WorkerEndpoint]:
        if self._endpoints is None:
            self._endpoints = self._open_endpoints()
            return self._endpoints
        # A respawn that failed in a prior batch leaves a closed endpoint
        # behind.  Give each one a fresh restart attempt and run this
        # batch on the live subset; a still-dead endpoint stays in the
        # list so later batches retry it.
        live = [
            endpoint
            for endpoint in self._endpoints
            if endpoint.connected or endpoint.respawn()
        ]
        dead = len(self._endpoints) - len(live)
        if dead:
            get_metrics().counter("fabric.worker_unreachable").inc(dead)
            get_tracer().event("fabric.workers_degraded", unreachable=dead)
        if not live:
            raise ParallelError(
                "no fabric workers left: every endpoint died in an earlier "
                "batch and failed to restart"
            )
        return live

    def _run_batch(
        self,
        tasks: List[Task],
        persist: Optional[Callable[[int, TaskResult], None]],
    ) -> List[TaskResult]:
        if not tasks:
            return []
        endpoints = self._ensure_endpoints()
        chunks: List[ChunkResult] = []
        scheduler = WorkStealingScheduler(
            endpoints,
            cost_model=self.cost_model,
            chunk_factor=self.chunk_factor,
            min_chunk=self.min_chunk,
            tick_seconds=self.tick_seconds,
            on_telemetry=chunks.append,
        )
        with get_tracer().span(
            "fabric.dispatch",
            tasks=len(tasks),
            workers=len(endpoints),
            backend=self.name,
        ):
            try:
                results = scheduler.execute(
                    tasks,
                    persist=persist,
                    capture_telemetry=bool(get_metrics().enabled),
                    span_buffer_size=self.span_buffer_size,
                    make_result=lambda index, value, error: TaskResult(
                        index=index,
                        value=value,
                        error=error,
                        label=tasks[index].label,
                    ),
                )
            finally:
                # Fold worker telemetry in task order, not arrival order:
                # gauges merge last-write-wins, so this keeps them
                # independent of which worker finished first.
                for chunk in sorted(
                    chunks, key=lambda chunk: max(i for i, _, _ in chunk.outcomes)
                ):
                    if chunk.metrics_state is not None:
                        get_metrics().merge(chunk.metrics_state)
                    if chunk.spans:
                        get_tracer().absorb(chunk.spans, worker=chunk.pid)
        self.last_scheduler = scheduler
        return results

    def close(self) -> None:
        if self._endpoints is not None:
            for endpoint in self._endpoints:
                endpoint.close()
            self._endpoints = None


def parse_worker_addresses(
    workers: Sequence[Union[str, Tuple[str, int]]],
) -> List[Tuple[str, int]]:
    """Parse ``host:port`` worker specs (commas and repeats both work).

    ``(host, port)`` pairs are accepted too and get the same checks.
    """
    addresses: List[Tuple[str, int]] = []
    for spec in workers:
        if not isinstance(spec, str):
            spec = f"{spec[0]}:{spec[1]}"
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            host, separator, port_text = part.rpartition(":")
            if not separator or not host:
                raise ValueError(
                    f"worker address {part!r} is not of the form host:port"
                )
            try:
                port = int(port_text)
            except ValueError as exc:
                raise ValueError(
                    f"worker address {part!r} has a non-integer port"
                ) from exc
            addresses.append((host, port))
    if not addresses:
        raise ValueError("no worker addresses given")
    return addresses


def get_runner(
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    workers: Optional[Sequence[str]] = None,
) -> TaskRunner:
    """Map the CLI's ``--jobs``/``--workers`` onto a backend.

    ``workers`` (a list of ``host:port`` specs) selects the remote
    fabric: a :class:`~repro.parallel.remote.RemoteRunner` driving
    ``parole worker serve`` processes over the length-prefixed JSON
    socket protocol.  Otherwise ``jobs`` sizes the local fabric:
    ``None``/``0``/``1`` — :class:`SerialRunner` (the default keeps
    current behaviour); ``N > 1`` — :class:`StealingRunner` with ``N``
    worker processes; any negative value — one worker per core
    (``os.cpu_count()``), which is :class:`SerialRunner` on a one-core
    machine.  ``store`` attaches a result store (``--cache DIR``):
    every backend then consults it before dispatch and persists task
    results as they complete — with remote workers it doubles as the
    shared dedupe cache.
    """
    if workers:
        from .remote import RemoteRunner

        return RemoteRunner(workers, store=store)
    if jobs is not None and jobs < 0:
        jobs = os.cpu_count() or 1
    if jobs is None or jobs <= 1:
        return SerialRunner(store=store)
    return StealingRunner(max_workers=jobs, store=store)
