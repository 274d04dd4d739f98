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
reference, and :class:`PoolRunner`, which runs each task on a
standard-library process pool (``--jobs N``).
"""

from .fabric import (
    PoolRunner,
    SerialRunner,
    Task,
    TaskResult,
    TaskRunner,
    get_runner,
    resolve_cache_key,
    spawn_task_seeds,
)
from .worker import ChunkResult, TaskError, init_worker, run_chunk

__all__ = [
    "PoolRunner",
    "SerialRunner",
    "Task",
    "TaskResult",
    "TaskRunner",
    "get_runner",
    "resolve_cache_key",
    "spawn_task_seeds",
    "ChunkResult",
    "TaskError",
    "init_worker",
    "run_chunk",
]
