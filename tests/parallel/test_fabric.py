"""Unit tests for the deterministic parallel execution fabric."""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.errors import ParallelError
from repro.parallel import (
    PoolRunner,
    SerialRunner,
    Task,
    get_runner,
    spawn_task_seeds,
)
from repro.store import ResultStore
from tests.parallel.fabric_tasks import cube, flaky, seeded_draw

REPO = pathlib.Path(__file__).resolve().parents[2]


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


def _in_subprocess(probe, *args, timeout=60.0):
    """``fabric_tasks.<probe>(*args)`` in a fresh interpreter.

    On timeout the probe's whole process group (its pool workers too)
    is killed and the test fails, so a runner that hangs cannot stall
    the suite.
    """
    code = (
        "import json, sys\n"
        "from tests.parallel import fabric_tasks\n"
        f"print(json.dumps(fabric_tasks.{probe}(*sys.argv[1:])))\n"
    )
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]),
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *args],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{probe}{args} still running after {timeout:.0f} s")
    assert proc.returncode == 0, err
    return json.loads(out.splitlines()[-1])


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

    def test_error_names_every_failed_task(self):
        tasks = [Task(fn=flaky, args=(i,), label=f"f#{i}") for i in range(12)]
        with pytest.raises(ParallelError) as excinfo:
            SerialRunner().map(tasks)
        first, also = str(excinfo.value).splitlines()[:2]
        assert first.startswith("f#0 failed with ValueError")
        assert also == "also failed: f#5, f#10"

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

    def test_matches_serial_on_numpy_draws(self):
        tasks = [
            Task(fn=seeded_draw, args=(5,), seed=seed, label=f"d{i}")
            for i, seed in enumerate(spawn_task_seeds(3, 8))
        ]
        with PoolRunner(max_workers=3) as runner:
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

    def test_errors_land_on_the_right_indices(self):
        tasks = [Task(fn=flaky, args=(i,), label=f"f{i}") for i in range(12)]
        with get_runner(2) as runner:
            results = runner.run(tasks)
        assert [result.index for result in results] == list(range(12))
        for i, result in enumerate(results):
            if i % 5 == 0:
                assert result.error.exc_type == "ValueError"
            else:
                assert result.value == i + 1

    def test_empty_batch_skips_pool_creation(self):
        runner = get_runner(2)
        assert runner.map([]) == []
        assert runner._pool is None

    def test_warm_batch_skips_pool_creation(self, tmp_path):
        tasks = [
            Task(fn=cube, args=(i,), seed=seed, label=f"cube#{i}")
            for i, seed in enumerate(spawn_task_seeds(42, 12))
        ]
        with get_runner(2, store=ResultStore(tmp_path)) as runner:
            cold = runner.map(tasks)
        warm_store = ResultStore(tmp_path)
        runner = get_runner(2, store=warm_store)
        assert runner.map(tasks) == cold
        assert runner._pool is None
        assert warm_store.stats.hits == len(tasks)

    def test_close_joins_every_worker(self):
        runner = get_runner(2)
        pids = set(runner.map([Task(fn=_pid_of, args=(i,)) for i in range(8)]))
        processes = dict(runner._pool._processes)
        runner.close()
        assert runner._pool is None
        assert pids <= set(processes)
        assert all(process.exitcode is not None for process in processes.values())


class TestFailuresOutsideTaskCode:
    """A task whose worker dies, whose value cannot be shipped back or
    whose function cannot be shipped out fails as a ``ParallelError``
    naming it; nothing is retried, and the runner starts a fresh pool
    for its next batch.  Each case runs in a subprocess with a timeout.
    """

    @pytest.mark.parametrize(
        "case, exc_type",
        [
            ("kill", "BrokenProcessPool"),
            ("unpicklable", "TypeError"),
            ("closure", "AttributeError"),
        ],
    )
    def test_named_error_then_a_fresh_pool(self, case, exc_type):
        report = _in_subprocess("failure_probe", case)
        lines = report["error"].splitlines()
        assert lines[0].startswith(f"{case}#2 failed with {exc_type}")
        if lines[1].startswith("also failed: "):
            # Only tasks the dead worker's pool had not finished.
            assert case == "kill"
            assert set(lines[1][len("also failed: "):].split(", ")) <= {
                "cube#3", "cube#4",
            }
        assert report["seconds"] < 10.0
        assert report["pool_dropped"]
        assert report["after"] == [cube(i) for i in range(6)]

    def test_worker_killed_between_batches_gets_a_fresh_pool(self):
        with get_runner(2) as runner:
            pids = runner.map([Task(fn=_pid_of, args=(i,)) for i in range(4)])
            pool = runner._pool
            os.kill(pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool._broken
            values = runner.map([Task(fn=cube, args=(i,)) for i in range(4)])
            assert values == [cube(i) for i in range(4)]
            assert runner._pool is not pool

    def test_serial_runs_what_the_pool_cannot_ship(self):
        def closure(x):
            return x + 1

        assert SerialRunner().map([Task(fn=closure, args=(1,))]) == [2]

    def test_rerun_on_the_store_resumes_after_a_worker_death(self, tmp_path):
        report = _in_subprocess("resume_probe", str(tmp_path))
        assert report["error"].startswith("resume#5 failed with BrokenProcessPool")
        stored = report["stored"]
        assert not stored[5]
        assert 0 < sum(stored) < len(stored)
        # One store hit per task that finished before the crash; only
        # the rest are computed.
        assert report["hits"] == sum(stored)
        assert report["misses"] == len(stored) - sum(stored)
        assert report["matches_serial"]


class TestGetRunner:
    @pytest.mark.parametrize("jobs", [None, 0, 1])
    def test_serial_values(self, jobs):
        assert isinstance(get_runner(jobs), SerialRunner)

    def test_positive_jobs_size_the_pool(self):
        runner = get_runner(3)
        assert isinstance(runner, PoolRunner)
        assert runner.max_workers == 3

    def test_negative_jobs_auto(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert isinstance(get_runner(-1), SerialRunner)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        runner = get_runner(-1)
        assert isinstance(runner, PoolRunner)
        assert runner.max_workers == 2
