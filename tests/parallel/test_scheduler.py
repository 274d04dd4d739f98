"""Work-stealing scheduler: cost model, planning, and the StealingRunner."""

import socket

import pytest

from repro.errors import ParallelError
from repro.parallel import (
    ChunkResult,
    EndpointDied,
    SerialRunner,
    StealingRunner,
    Task,
    TaskCostModel,
    WorkerEndpoint,
    WorkStealingScheduler,
    cost_group,
    next_chunk_size,
    plan_queues,
    spawn_task_seeds,
)
from repro.parallel.worker import call_task
from repro.store import ResultStore
from tests.parallel.fabric_tasks import cube, flaky, seeded_draw, skewed_sleep


def _cube_tasks(count=12, sweep_seed=42):
    return [
        Task(fn=cube, args=(i,), seed=seed, label=f"cube#{i}")
        for i, seed in enumerate(spawn_task_seeds(sweep_seed, count))
    ]


class TestCostGroup:
    def test_buckets_by_function_and_digitless_label(self):
        assert cost_group(cube, "fig6[ifus=3]#17") == cost_group(
            cube, "fig6[ifus=8]#2"
        )
        assert cost_group(cube, "chaos-burst#1") != cost_group(
            cube, "stream-lane#1"
        )
        assert cost_group(cube) == f"{cube.__module__}:{cube.__qualname__}"

    def test_unnameable_callables_get_no_bucket(self):
        assert cost_group(lambda x: x) is None

        def local(x):
            return x

        assert cost_group(local) is None


class TestCostModel:
    def test_first_observation_replaces_default(self):
        model = TaskCostModel(default_cost=1.0, alpha=0.5)
        assert model.estimate(cube) == 1.0
        model.observe(cube, "", 4.0)
        assert model.estimate(cube) == 4.0
        model.observe(cube, "", 2.0)
        assert model.estimate(cube) == pytest.approx(3.0)  # 0.5*2 + 0.5*4

    def test_persists_across_models_via_store(self, tmp_path):
        store = ResultStore(tmp_path)
        model = TaskCostModel(store=store)
        model.observe(cube, "x1", 7.5)
        assert model.flush() == 1
        warm = TaskCostModel(store=ResultStore(tmp_path))
        assert warm.estimate(cube, "x99") == pytest.approx(7.5)

    def test_estimates_never_touch_results(self):
        # A wildly wrong model must only change the schedule: same
        # values either way.
        wrong = TaskCostModel(default_cost=1e6)
        tasks = _cube_tasks()
        with StealingRunner(max_workers=2, cost_model=wrong) as runner:
            assert runner.map(tasks) == SerialRunner().map(tasks)


class TestPlanning:
    def test_next_chunk_size_is_guided(self):
        assert next_chunk_size(16, chunk_factor=4) == 4
        assert next_chunk_size(3, chunk_factor=4) == 1  # tail: singles
        assert next_chunk_size(0) == 0
        assert next_chunk_size(5, chunk_factor=4, min_chunk=3) == 3

    def test_plan_queues_covers_every_index_once(self):
        queues = plan_queues([1.0] * 10, 3)
        flat = sorted(i for queue in queues for i in queue)
        assert flat == list(range(10))

    def test_plan_queues_spreads_heavies(self):
        # Four heavy tasks, four workers: LPT puts one heavy per queue.
        estimates = [10.0, 10.0, 10.0, 10.0, 1.0, 1.0, 1.0, 1.0]
        queues = plan_queues(estimates, 4)
        for queue in queues:
            assert sum(1 for i in queue if estimates[i] == 10.0) == 1

    def test_plan_queues_dispatches_expensive_first(self):
        queues = plan_queues([1.0, 9.0, 1.0, 1.0], 1)
        assert queues[0][0] == 1  # the expensive task leads


class _InlineEndpoint(WorkerEndpoint):
    """Runs chunks synchronously in-process; a socketpair makes it
    compatible with ``multiprocessing.connection.wait``."""

    def __init__(self, ident, fail_sends=0):
        self.ident = ident
        self.fail_sends = fail_sends
        self.executed = []
        self._sent = 0
        self._results = []
        self._rx, self._tx = socket.socketpair()

    def waitable(self):
        return self._rx

    def send_chunk(self, chunk_id, entries, capture_telemetry, span_buffer_size):
        self._sent += 1
        if self._sent <= self.fail_sends:
            raise EndpointDied(f"{self.ident}: injected send failure")
        outcomes = []
        for index, fn, args, kwargs, seed in entries:
            outcomes.append((index, call_task(fn, args, kwargs, seed), None))
            self.executed.append(index)
        self._results.append(
            (chunk_id, ChunkResult(outcomes=outcomes))
        )
        self._tx.sendall(b"\x01")

    def recv_outcome(self):
        self._rx.recv(1)
        return self._results.pop(0)

    def respawn(self):
        return False

    def close(self):
        self._rx.close()
        self._tx.close()


class TestEndpointDeath:
    def test_send_failure_buries_endpoint_and_requeues(self):
        # Regression: a worker dying between a receive and the next
        # dispatch raises EndpointDied from send_chunk; the batch must
        # requeue its tasks (including the slice popped for the failed
        # send) instead of crashing.
        dies = _InlineEndpoint("dies-on-send", fail_sends=1)
        healthy = _InlineEndpoint("healthy")
        scheduler = WorkStealingScheduler([dies, healthy])
        tasks = _cube_tasks(8)
        try:
            results = scheduler.execute(tasks)
        finally:
            dies.close()
            healthy.close()
        assert [value for _, value, _ in results] == SerialRunner().map(tasks)
        assert dies.executed == []  # died on its first send, respawn refused
        assert sorted(healthy.executed) == list(range(8))

    def test_send_failure_with_no_survivors_raises(self):
        only = _InlineEndpoint("doomed", fail_sends=1)
        scheduler = WorkStealingScheduler([only])
        try:
            with pytest.raises(ParallelError, match="all fabric workers died"):
                scheduler.execute(_cube_tasks(4))
        finally:
            only.close()

    def test_steal_takes_the_expensive_front_half(self):
        a = _InlineEndpoint("victim")
        b = _InlineEndpoint("thief")
        scheduler = WorkStealingScheduler([a, b])
        victim, thief = scheduler._states
        victim.queue = [3, 0, 1, 2]  # expensive-first, as plan_queues builds
        try:
            assert scheduler._steal_into(thief)
        finally:
            a.close()
            b.close()
        assert thief.queue == [3, 0]  # the high-cost front half
        assert victim.queue == [1, 2]
        assert scheduler.steals == 1


class TestStealingRunner:
    def test_matches_serial(self):
        tasks = _cube_tasks()
        with StealingRunner(max_workers=2) as runner:
            assert runner.map(tasks) == SerialRunner().map(tasks)

    def test_matches_serial_on_numpy_draws(self):
        tasks = [
            Task(fn=seeded_draw, args=(5,), seed=seed, label=f"d{i}")
            for i, seed in enumerate(spawn_task_seeds(3, 8))
        ]
        with StealingRunner(max_workers=3) as runner:
            assert runner.map(tasks) == SerialRunner().map(tasks)

    def test_errors_land_on_the_right_indices(self):
        tasks = [
            Task(fn=flaky, args=(i,), label=f"f{i}") for i in range(12)
        ]
        with StealingRunner(max_workers=2) as runner:
            results = runner.run(tasks)
        for i, result in enumerate(results):
            assert result.index == i
            if i % 5 == 0:
                assert result.error is not None
                assert result.error.exc_type == "ValueError"
            else:
                assert result.value == i + 1
        with StealingRunner(max_workers=2) as runner:
            with pytest.raises(ParallelError, match="flaky task rejected"):
                runner.map(tasks)

    def test_steals_happen_under_cost_skew(self):
        # Equal estimates put half the tasks on each worker; making one
        # worker's share slow forces the other to steal its tail.
        slow, fast = 0.12, 0.001
        tasks = [
            Task(
                fn=skewed_sleep,
                args=(i, slow if i % 2 == 0 else fast),
                seed=7,
                label="steal-probe",  # one bucket: estimates stay equal
            )
            for i in range(16)
        ]
        with StealingRunner(max_workers=2, tick_seconds=0.1) as runner:
            values = runner.map(tasks)
            scheduler = runner.last_scheduler
        assert values == SerialRunner().map(tasks)
        assert scheduler.steals >= 1
        report = {r["worker"]: r for r in scheduler.utilization_report()}
        assert sum(r["tasks"] for r in report.values()) == len(tasks)
        # The fast worker must have executed some of the slow worker's
        # original share — that's what stealing is.
        assert all(r["tasks"] > 0 for r in report.values())

    def test_warm_store_short_circuits_dispatch(self, tmp_path):
        tasks = _cube_tasks()
        with StealingRunner(max_workers=2, store=ResultStore(tmp_path)) as r:
            cold = r.map(tasks)
        warm_store = ResultStore(tmp_path)
        with StealingRunner(max_workers=2, store=warm_store) as r:
            warm = r.map(tasks)
        assert warm == cold
        assert warm_store.stats.hits == len(tasks)

    def test_cost_observations_persist_for_the_next_run(self, tmp_path):
        store = ResultStore(tmp_path)
        tasks = [
            Task(fn=skewed_sleep, args=(i, 0.01), label="persisted#1")
            for i in range(4)
        ]
        with StealingRunner(max_workers=2, store=store) as runner:
            runner.map(tasks)
        fresh = TaskCostModel(store=ResultStore(tmp_path))
        estimate = fresh.estimate(skewed_sleep, "persisted#9")
        assert estimate != fresh.default_cost
        assert estimate > 0.0
