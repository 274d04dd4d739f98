"""Byte-identity across every backend × job count × adversarial skew.

The fabric's contract is that scheduling is never observable in the
output: serial, local work-stealing workers, and remote loopback must
produce byte-identical reports for any task-cost skew, any worker
count, and any worker churn.  Hypothesis drives the skew; the chaos
matrix supplies a real (fault-injected) workload on top of the
synthetic one.
"""

import dataclasses
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.parallel import (
    SerialRunner,
    StealingRunner,
    Task,
    spawn_task_seeds,
)
from repro.parallel.remote import RemoteRunner, WorkerServer
from tests.parallel.fabric_tasks import seeded_draw, skewed_sleep


def _skew_tasks(durations):
    seeds = spawn_task_seeds(1234, len(durations))
    return [
        Task(
            fn=skewed_sleep,
            args=(i, duration),
            seed=seed,
            label=f"skew#{i}",
        )
        for i, (duration, seed) in enumerate(zip(durations, seeds))
    ]


def _payload(values) -> bytes:
    return json.dumps(values, sort_keys=True).encode("utf-8")


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    durations=st.lists(
        st.sampled_from([0.0, 0.002, 0.05]), min_size=5, max_size=12
    )
)
def test_every_backend_and_job_count_is_byte_identical(durations):
    tasks = _skew_tasks(durations)
    reference = _payload(SerialRunner().map(tasks))

    for jobs in (2, 4):
        with StealingRunner(max_workers=jobs, tick_seconds=0.1) as runner:
            assert _payload(runner.map(tasks)) == reference, (
                f"stealing jobs={jobs} diverged"
            )

    with WorkerServer(jobs=2) as server:
        with RemoteRunner(
            [(server.host, server.port)], tick_seconds=0.1
        ) as runner:
            assert _payload(runner.map(tasks)) == reference, (
                "remote loopback diverged"
            )


def test_worker_churn_never_reaches_the_output():
    # A server that drops every connection after one chunk maximizes
    # reassignment; the payload must not care.
    tasks = _skew_tasks([0.03, 0.0, 0.0, 0.03, 0.0, 0.0, 0.03, 0.0])
    reference = _payload(SerialRunner().map(tasks))
    with WorkerServer(max_chunks_per_connection=1) as server:
        with RemoteRunner(
            [(server.host, server.port)], tick_seconds=0.2
        ) as runner:
            assert _payload(runner.map(tasks)) == reference
        assert server.connections_served > 1


def test_numpy_draws_are_bitwise_stable_across_backends():
    tasks = [
        Task(fn=seeded_draw, args=(8,), seed=seed, label=f"rng#{i}")
        for i, seed in enumerate(spawn_task_seeds(99, 10))
    ]
    reference = _payload(SerialRunner().map(tasks))
    with StealingRunner(max_workers=4, tick_seconds=0.1) as runner:
        assert _payload(runner.map(tasks)) == reference
    with WorkerServer(jobs=2) as server:
        with RemoteRunner([(server.host, server.port)]) as runner:
            assert _payload(runner.map(tasks)) == reference


def test_chaos_matrix_is_byte_identical_on_every_backend():
    from repro.faults import DEFAULT_MATRIX, run_matrix

    scenarios = [
        dataclasses.replace(scenario, rounds=3)
        for scenario in DEFAULT_MATRIX[:2]
    ]

    def render(runner):
        return b"\n".join(
            report.to_json().encode("utf-8")
            for report in run_matrix(scenarios, runner=runner)
        )

    reference = render(SerialRunner())
    with StealingRunner(max_workers=2, tick_seconds=0.1) as runner:
        assert render(runner) == reference
    with WorkerServer(jobs=2) as server:
        with RemoteRunner(
            [(server.host, server.port)], tick_seconds=0.2
        ) as runner:
            assert render(runner) == reference
