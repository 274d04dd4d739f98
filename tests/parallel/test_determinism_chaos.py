"""Byte-identity across every backend × worker count × adversarial skew.

The fabric's contract is that scheduling is never observable in the
output: the serial runner and the process pool at 1, 2 and 4 workers
must produce byte-identical reports for any task-cost skew.  Hypothesis
drives the skew; the chaos matrix supplies a real (fault-injected)
workload on top of the synthetic one.
"""

import dataclasses
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.parallel import PoolRunner, SerialRunner, Task, spawn_task_seeds
from tests.parallel.fabric_tasks import seeded_draw, skewed_sleep

WORKER_COUNTS = (1, 2, 4)


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
    for jobs in WORKER_COUNTS:
        with PoolRunner(max_workers=jobs) as runner:
            assert _payload(runner.map(tasks)) == reference, (
                f"pool jobs={jobs} diverged"
            )


def test_numpy_draws_are_bitwise_stable_across_backends():
    tasks = [
        Task(fn=seeded_draw, args=(8,), seed=seed, label=f"rng#{i}")
        for i, seed in enumerate(spawn_task_seeds(99, 10))
    ]
    reference = _payload(SerialRunner().map(tasks))
    for jobs in WORKER_COUNTS:
        with PoolRunner(max_workers=jobs) as runner:
            assert _payload(runner.map(tasks)) == reference, (
                f"pool jobs={jobs} diverged"
            )


def test_chaos_matrix_is_byte_identical_on_every_backend():
    from repro.faults import DEFAULT_MATRIX, run_chaos

    scenarios = [
        dataclasses.replace(scenario, rounds=3)
        for scenario in DEFAULT_MATRIX[:2]
    ]

    def render(runner):
        return b"\n".join(
            report.to_json().encode("utf-8")
            for report in run_chaos(scenarios, runner=runner)
        )

    reference = render(SerialRunner())
    for jobs in WORKER_COUNTS:
        with PoolRunner(max_workers=jobs) as runner:
            assert render(runner) == reference, f"pool jobs={jobs} diverged"
