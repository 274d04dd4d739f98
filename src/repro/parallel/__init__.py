"""Deterministic parallel execution fabric (see :mod:`.fabric`).

Typical sweep::

    from repro.parallel import Task, get_runner, spawn_task_seeds

    seeds = spawn_task_seeds(sweep_seed, len(points))
    tasks = [
        Task(fn=run_point, args=(point,), seed=seed, label=str(point))
        for point, seed in zip(points, seeds)
    ]
    with get_runner(jobs) as runner:
        values = runner.map(tasks)   # submission order, any backend

Backends produce identical results for identical task lists — the
experiment harnesses (`fig6`/`fig7`/`fig8`/`fig9`/`fig11`/`defense`),
``run_all --jobs N``, the chaos matrix and the sweep benches all ride
on this package.  There are two runners: :class:`SerialRunner`, the
reference, and the fabric runner :class:`StealingRunner`, which drives
the work-stealing scheduler over worker endpoints of two kinds — local
pipe workers (``--jobs N``) and, as :class:`~.remote.RemoteRunner`,
sockets to ``parole worker serve`` hosts sharing one result store
(``--workers``); see :mod:`.protocol` for the wire format.
"""

from .fabric import (
    SerialRunner,
    StealingRunner,
    Task,
    TaskResult,
    TaskRunner,
    get_runner,
    parse_worker_addresses,
    resolve_cache_key,
    spawn_task_seeds,
)
from .scheduler import (
    COST_NAMESPACE,
    EndpointDied,
    TaskCostModel,
    WorkerEndpoint,
    WorkStealingScheduler,
    cost_group,
    next_chunk_size,
    plan_queues,
)
from .worker import ChunkPayload, ChunkResult, TaskError, init_worker, run_chunk

__all__ = [
    "SerialRunner",
    "StealingRunner",
    "Task",
    "TaskResult",
    "TaskRunner",
    "get_runner",
    "parse_worker_addresses",
    "resolve_cache_key",
    "spawn_task_seeds",
    "COST_NAMESPACE",
    "EndpointDied",
    "TaskCostModel",
    "WorkerEndpoint",
    "WorkStealingScheduler",
    "cost_group",
    "next_chunk_size",
    "plan_queues",
    "ChunkPayload",
    "ChunkResult",
    "TaskError",
    "init_worker",
    "run_chunk",
]
