"""Unit tests for the deterministic parallel execution fabric."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import ParallelError
from repro.parallel import (
    SerialRunner,
    StealingRunner,
    Task,
    get_runner,
    spawn_task_seeds,
)


def _square(x):
    return x * x


def _seeded_draw(scale, *, seed):
    rng = np.random.default_rng(seed)
    return float(rng.normal() * scale)


def _fail_on_three(x):
    if x == 3:
        raise ValueError(f"boom at {x}")
    return x


def _pid_of(_):
    return os.getpid()


class TestSpawnTaskSeeds:
    #: ``SeedSequence`` child values are documented as stable across
    #: numpy versions and platforms; pin them so a derivation change
    #: (which would silently reseed every sweep) fails loudly.
    PINNED_SEED0_COUNT6 = (
        3757552657, 673228719, 3241444873, 3685993406, 1216546553, 2078861726,
    )

    def test_pinned_values(self):
        assert spawn_task_seeds(0, 6) == self.PINNED_SEED0_COUNT6

    def test_deterministic(self):
        assert spawn_task_seeds(42, 8) == spawn_task_seeds(42, 8)

    def test_prefix_stable(self):
        """Growing a sweep keeps the seeds of the existing points."""
        assert spawn_task_seeds(7, 10)[:4] == spawn_task_seeds(7, 4)

    def test_distinct_across_sweep_seeds(self):
        assert spawn_task_seeds(0, 4) != spawn_task_seeds(1, 4)

    def test_children_distinct(self):
        seeds = spawn_task_seeds(123, 64)
        assert len(set(seeds)) == len(seeds)

    def test_empty(self):
        assert spawn_task_seeds(0, 0) == ()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_task_seeds(0, -1)

    def test_plain_ints(self):
        assert all(isinstance(s, int) for s in spawn_task_seeds(0, 4))


class TestSerialRunner:
    def test_map_preserves_submission_order(self):
        tasks = [Task(fn=_square, args=(i,)) for i in range(10)]
        assert SerialRunner().map(tasks) == [i * i for i in range(10)]

    def test_seed_passed_as_keyword(self):
        tasks = [Task(fn=_seeded_draw, args=(2.0,), seed=s) for s in (1, 2)]
        values = SerialRunner().map(tasks)
        assert values[0] == _seeded_draw(2.0, seed=1)
        assert values[1] == _seeded_draw(2.0, seed=2)

    def test_error_carries_label_and_traceback(self):
        tasks = [
            Task(fn=_fail_on_three, args=(i,), label=f"item#{i}")
            for i in range(5)
        ]
        with pytest.raises(ParallelError) as excinfo:
            SerialRunner().map(tasks)
        assert "item#3" in str(excinfo.value)
        assert "boom at 3" in str(excinfo.value)
        assert "ValueError" in str(excinfo.value)

    def test_run_records_per_task_outcomes(self):
        tasks = [Task(fn=_fail_on_three, args=(i,)) for i in range(5)]
        results = SerialRunner().run(tasks)
        assert [r.ok for r in results] == [True, True, True, False, True]
        assert results[3].error.exc_type == "ValueError"

    def test_empty_batch(self):
        assert SerialRunner().map([]) == []


class TestFabricRunner:
    def test_matches_serial(self):
        tasks = [Task(fn=_square, args=(i,)) for i in range(23)]
        with get_runner(2) as runner:
            assert runner.map(tasks) == SerialRunner().map(tasks)

    def test_seeded_tasks_match_serial(self):
        seeds = spawn_task_seeds(0, 12)
        tasks = [Task(fn=_seeded_draw, args=(1.5,), seed=s) for s in seeds]
        with get_runner(3) as runner:
            assert runner.map(tasks) == SerialRunner().map(tasks)

    def test_worker_failure_raises_parallel_error(self):
        tasks = [
            Task(fn=_fail_on_three, args=(i,), label=f"item#{i}")
            for i in range(6)
        ]
        with get_runner(2) as runner:
            with pytest.raises(ParallelError) as excinfo:
                runner.map(tasks)
        # The worker-side traceback crosses the process boundary intact.
        assert "item#3" in str(excinfo.value)
        assert "boom at 3" in str(excinfo.value)

    def test_runs_in_other_processes_when_possible(self):
        tasks = [Task(fn=_pid_of, args=(i,)) for i in range(8)]
        with get_runner(2) as runner:
            pids = set(runner.map(tasks))
        assert os.getpid() not in pids

    def test_empty_batch_skips_pool_creation(self):
        runner = get_runner(2)
        assert runner.map([]) == []
        assert runner._endpoints is None


class TestGetRunner:
    @pytest.mark.parametrize("jobs", [None, 0, 1])
    def test_serial_values(self, jobs):
        assert isinstance(get_runner(jobs), SerialRunner)

    def test_positive_jobs_size_the_pool(self):
        runner = get_runner(3)
        assert isinstance(runner, StealingRunner)
        assert runner.max_workers == 3

    def test_negative_jobs_auto(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert isinstance(get_runner(-1), SerialRunner)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        runner = get_runner(-1)
        assert isinstance(runner, StealingRunner)
        assert runner.max_workers == 2
