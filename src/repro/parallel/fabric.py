"""Deterministic parallel execution fabric for embarrassingly parallel sweeps.

Every PAROLE evaluation is a sweep over independent points — Fig. 6/7
trials, one DQN training run per Fig. 8 epsilon, Fig. 9/11 solver
trials, the chaos matrix.  This module gives them one orchestration
shape:

* a declarative :class:`Task` record — ``(fn, args, kwargs, seed)`` with
  the seed passed explicitly so the task owns its entire random state;
* a :class:`TaskRunner` abstraction with two backends:
  :class:`SerialRunner` (the reference implementation) and
  :class:`PoolRunner`, a standard-library process pool;
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
workers record into their own task-local registry/tracer and ship a
serialized state + span buffer back; once the batch ends the parent
folds them in (``MetricsRegistry.merge`` / ``Tracer.absorb``) in task
order, so ``--telemetry --jobs N`` manifests carry the same counts as a
serial run.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ParallelError
from ..store import CodecError, ResultStore, UnkeyableError, task_key
from ..telemetry import get_metrics, get_tracer
from .worker import ChunkResult, TaskError, call_task, init_worker, run_chunk

__all__ = [
    "Task",
    "TaskResult",
    "TaskRunner",
    "SerialRunner",
    "PoolRunner",
    "get_runner",
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
        equivalent serial loop would have raised; the message also
        names every other task of the batch that failed.
        """
        results = self.run(tasks)
        failed = [result for result in results if result.error is not None]
        if failed:
            names = [result.label or f"task #{result.index}" for result in failed]
            first = failed[0].error
            also = f"also failed: {', '.join(names[1:])}\n" if names[1:] else ""
            raise ParallelError(
                f"{names[0]} failed with {first}\n{also}{first.traceback}"
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
        results: List[TaskResult] = []
        for index, task in enumerate(tasks):
            try:
                value = call_task(task.fn, task.args, task.kwargs, task.seed)
                result = TaskResult(index=index, value=value, label=task.label)
            except Exception as exc:
                result = TaskResult(
                    index=index,
                    error=TaskError.from_exception(exc),
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
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class PoolRunner(TaskRunner):
    """The process backend: a standard-library process pool.

    Each task goes to a :class:`~concurrent.futures.ProcessPoolExecutor`
    as its own :func:`run_chunk` call; results are persisted as they
    arrive and reassembled in submission order.  The pool starts on the
    first non-empty batch and is reused across batches; :meth:`close`
    joins every worker.

    A task that cannot be pickled, returns a value that cannot be, or
    kills its worker fails as a :class:`TaskError` — a dead worker fails
    every task the pool had not finished.  Nothing is retried: the pool
    is dropped, the next batch starts a fresh one, and a re-run with a
    result store resumes from the tasks that completed.
    """

    name = "pool"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        store: Optional[ResultStore] = None,
    ) -> None:
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        self.store = store
        self._pool: Optional[ProcessPoolExecutor] = None

    def _run_batch(
        self,
        tasks: List[Task],
        persist: Optional[Callable[[int, TaskResult], None]],
    ) -> List[TaskResult]:
        if not tasks:
            return []
        if self._pool is not None and self._pool._broken:
            # A worker died while the pool sat idle (a signal, the OOM
            # killer): the executor refuses new work, so start afresh.
            self.close()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                self.max_workers,
                mp_context=multiprocessing.get_context(_default_start_method()),
                initializer=init_worker,
            )
        capture = bool(get_metrics().enabled)
        futures: Dict[Future, int] = {
            self._pool.submit(
                run_chunk, task.fn, task.args, task.kwargs, task.seed, capture
            ): index
            for index, task in enumerate(tasks)
        }
        results: List[Optional[TaskResult]] = [None] * len(tasks)
        chunks: List[Optional[ChunkResult]] = [None] * len(tasks)
        lost = False
        with get_tracer().span(
            "fabric.dispatch",
            tasks=len(tasks),
            workers=self.max_workers,
            backend=self.name,
        ):
            try:
                for future in as_completed(futures):
                    index = futures[future]
                    try:
                        chunks[index] = future.result()
                        value, error = chunks[index].value, chunks[index].error
                    except Exception as exc:  # never ran, or never came back
                        value, error, lost = None, TaskError.from_exception(exc), True
                    results[index] = TaskResult(
                        index=index, value=value, error=error, label=tasks[index].label
                    )
                    if persist is not None:
                        persist(index, results[index])
            finally:
                # Fold worker telemetry in task order, not arrival order:
                # gauges merge last-write-wins, so this keeps them
                # independent of which worker finished first.
                for chunk in filter(None, chunks):
                    if chunk.metrics_state is not None:
                        get_metrics().merge(chunk.metrics_state)
                    if chunk.spans:
                        get_tracer().absorb(chunk.spans, worker=chunk.pid)
        if lost:
            self.close()
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


def get_runner(
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> TaskRunner:
    """Map the CLI's ``--jobs`` onto a backend.

    ``None``/``0``/``1`` — :class:`SerialRunner` (the default keeps
    current behaviour); ``N > 1`` — :class:`PoolRunner` with ``N``
    worker processes; any negative value — one worker per core
    (``os.cpu_count()``), which is :class:`SerialRunner` on a one-core
    machine.  ``store`` attaches a result store (``--cache DIR``):
    every backend then consults it before dispatch and persists task
    results as they complete.
    """
    if jobs is not None and jobs < 0:
        jobs = os.cpu_count() or 1
    if jobs is None or jobs <= 1:
        return SerialRunner(store=store)
    return PoolRunner(max_workers=jobs, store=store)
