"""Module-level task functions shared by the fabric test suites.

The process pool pickles functions by qualified name, so the tasks the
tests run must live at module level in an importable module.  Every
task here is deterministic given its arguments and ``seed``; the last
three fail outside task code on purpose.  The ``*_probe`` functions
drive those failures and are meant to run in a subprocess, so a runner
that hangs on them fails its test instead of the whole suite.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

import numpy as np

from repro.errors import ParallelError
from repro.parallel import (
    SerialRunner,
    Task,
    get_runner,
    resolve_cache_key,
    spawn_task_seeds,
)
from repro.store import ResultStore


def cube(x: int, seed: Optional[int] = None) -> int:
    """Cheap pure arithmetic; seed folds in so seeding is observable."""
    return x**3 + (seed or 0) % 7


def slow_mul(a: int, b: int, seed: Optional[int] = None) -> int:
    """Multiply after a small sleep — forces real overlap in pools."""
    time.sleep(0.01)
    return a * b


def skewed_sleep(value: int, duration: float, seed: Optional[int] = None) -> int:
    """Sleep ``duration`` seconds, return a seed-dependent function of
    ``value`` — the adversarial-cost-skew workload: the *output* is
    duration-independent, so any scheduling of the sleeps must produce
    identical results."""
    time.sleep(duration)
    return value * 2 + (seed or 0) % 5


def seeded_draw(n: int, seed: Optional[int] = None) -> list:
    """``n`` float64 draws from a seed-owned Generator (exact floats)."""
    rng = np.random.default_rng(seed)
    return rng.random(n).tolist()


def flaky(x: int, seed: Optional[int] = None) -> int:
    """Raises on multiples of 5 — error-propagation fixture."""
    if x % 5 == 0:
        raise ValueError(f"flaky task rejected x={x}")
    return x + 1


def kill_worker(x: int, seed: Optional[int] = None) -> int:
    """End the worker process at once, as a segfault or OOM kill would."""
    os._exit(3)


def return_lock(x: int, seed: Optional[int] = None) -> threading.Lock:
    """Return a value no pickler can ship back to the parent."""
    return threading.Lock()


def crash_once(x: int, marker: str, seed: Optional[int] = None) -> int:
    """Kill the worker on the first call (``marker`` absent), then act as
    :func:`cube`: the crash-then-resume fixture."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(3)
    return cube(x, seed)


def failure_probe(case: str) -> dict:
    """One 2-worker batch whose middle task fails outside task code.

    ``case`` picks the failure: ``kill`` (the task ends its worker),
    ``unpicklable`` (its value cannot be shipped back) or ``closure``
    (its function cannot be shipped out).  The same runner then runs a
    second batch.
    """

    def closure(x: int, seed: Optional[int] = None) -> int:
        return x

    bad = {"kill": kill_worker, "unpicklable": return_lock, "closure": closure}
    tasks = [Task(fn=cube, args=(i,), label=f"cube#{i}") for i in range(5)]
    tasks[2] = Task(fn=bad[case], args=(2,), label=f"{case}#2")
    runner = get_runner(2)
    started = time.perf_counter()
    try:
        runner.map(tasks)
        error = None
    except ParallelError as exc:
        error = str(exc)
    seconds = time.perf_counter() - started
    pool_dropped = runner._pool is None
    after = runner.map([Task(fn=cube, args=(i,)) for i in range(6)])
    runner.close()
    return {
        "error": error,
        "seconds": seconds,
        "pool_dropped": pool_dropped,
        "after": after,
    }


def resume_probe(directory: str) -> dict:
    """Crash a stored 8-task batch at its 6th task, then re-run it.

    Returns which tasks the store held after the crash, the re-run's
    store hits and misses, and whether its values equal serial.
    """
    marker = os.path.join(directory, "crashed")
    tasks = [
        Task(
            fn=crash_once if i == 5 else cube,
            args=(i, marker) if i == 5 else (i,),
            seed=seed,
            label=f"resume#{i}",
        )
        for i, seed in enumerate(spawn_task_seeds(5, 8))
    ]
    cache = os.path.join(directory, "cache")
    error = None
    with get_runner(2, store=ResultStore(cache)) as runner:
        try:
            runner.map(tasks)
        except ParallelError as exc:
            error = str(exc)
    peek = ResultStore(cache)
    stored = [peek.fetch_object(resolve_cache_key(task))[1] for task in tasks]
    warm = ResultStore(cache)
    with get_runner(2, store=warm) as runner:
        values = runner.map(tasks)
    return {
        "error": error,
        "stored": stored,
        "hits": warm.stats.hits,
        "misses": warm.stats.misses,
        "matches_serial": values == SerialRunner().map(tasks),
    }
