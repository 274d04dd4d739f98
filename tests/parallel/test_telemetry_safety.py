"""Process-safety of the telemetry layer under the parallel fabric.

The regression these tests pin down: a forked worker inherits the
parent's live :class:`MetricsRegistry`; if it recorded into that object
*and* shipped its own snapshot back, the parent's merge would count
every observation twice.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.parallel import SerialRunner, Task, get_runner
from repro.telemetry import (
    MetricsRegistry,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    get_metrics,
)


@pytest.fixture(autouse=True)
def _clean_backends():
    disable_metrics()
    disable_tracing()
    yield
    disable_metrics()
    disable_tracing()


def _task_series(series):
    """Drop the fabric runner's own scheduling series (``fabric.*``)."""
    return {
        key: value for key, value in series.items()
        if not key.startswith("fabric.")
    }


def _observe_once(amount):
    """Task body: one counter bump, one histogram sample, one gauge set."""
    metrics = get_metrics()
    metrics.counter("fabric_test.calls").inc()
    metrics.histogram("fabric_test.amount").observe(amount)
    metrics.gauge("fabric_test.last_amount").set(amount)
    return amount


def _child_probe(conn):
    """Forked child: report what the inherited backend looks like."""
    backend = get_metrics()
    backend.counter("fabric_test.calls").inc(100)
    conn.send(
        {
            "enabled": backend.enabled,
            "pid": os.getpid(),
        }
    )
    conn.close()


class TestForkInheritance:
    def test_forked_child_demotes_inherited_registry(self):
        """get_metrics() in a fork must not hand back the parent's registry."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        registry = enable_metrics(MetricsRegistry())
        registry.counter("fabric_test.calls").inc()
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_child_probe, args=(child_conn,))
        proc.start()
        report = parent_conn.recv()
        proc.join()
        # The child saw a NullMetrics backend, so its inc(100) was a
        # no-op on the shared object: the parent's count is untouched.
        assert report["enabled"] is False
        assert report["pid"] != os.getpid()
        assert registry.counter("fabric_test.calls").value == 1.0

    def test_parent_registry_still_live_in_parent(self):
        registry = enable_metrics(MetricsRegistry())
        assert get_metrics() is registry


class TestNoDoubleCounting:
    def test_two_workers_never_double_count(self):
        """Merged parent counts equal the serial run's, exactly.

        Each task observes once; if workers recorded into an inherited
        parent registry *and* shipped chunk snapshots, counts would come
        back doubled.
        """
        amounts = [0.1 * (i + 1) for i in range(8)]
        tasks = [Task(fn=_observe_once, args=(a,)) for a in amounts]

        registry = enable_metrics(MetricsRegistry())
        serial_values = SerialRunner().map(tasks)
        serial_state = registry.dump_state()
        disable_metrics()

        registry = enable_metrics(MetricsRegistry())
        with get_runner(2) as runner:
            parallel_values = runner.map(tasks)
        parallel_state = registry.dump_state()

        assert parallel_values == serial_values
        assert _task_series(parallel_state["counters"]) == serial_state["counters"]
        hist_serial = serial_state["histograms"]["fabric_test.amount"]
        hist_parallel = parallel_state["histograms"]["fabric_test.amount"]
        assert hist_parallel["count"] == hist_serial["count"] == len(amounts)
        assert hist_parallel["counts"] == hist_serial["counts"]
        assert hist_parallel["min"] == hist_serial["min"]
        assert hist_parallel["max"] == hist_serial["max"]

    def test_gauges_merge_deterministically(self):
        """Chunks fold in task order: the last task's gauge wins."""
        amounts = [float(i) for i in range(10)]
        tasks = [Task(fn=_observe_once, args=(a,)) for a in amounts]
        states = []
        for _ in range(2):
            registry = enable_metrics(MetricsRegistry())
            with get_runner(2) as runner:
                runner.map(tasks)
            states.append(_task_series(registry.dump_state()["gauges"]))
            disable_metrics()
        assert states[0] == states[1]
        assert states[0]["fabric_test.last_amount"] == amounts[-1]

    def test_no_capture_when_telemetry_off(self):
        """With NullMetrics active, workers skip telemetry capture."""
        tasks = [Task(fn=_observe_once, args=(1.0,)) for _ in range(4)]
        with get_runner(2) as runner:
            values = runner.map(tasks)
        assert values == [1.0] * 4
        assert get_metrics().enabled is False

    def test_pool_reuse_does_not_leak_between_batches(self):
        """Reused pool workers must not carry counts across run() calls."""
        tasks = [Task(fn=_observe_once, args=(1.0,)) for _ in range(4)]
        registry = enable_metrics(MetricsRegistry())
        with get_runner(2) as runner:
            runner.map(tasks)
            first = registry.dump_state()["counters"]["fabric_test.calls"]
            runner.map(tasks)
            second = registry.dump_state()["counters"]["fabric_test.calls"]
        assert first == 4.0
        assert second == 8.0
