"""Parallel fabric bench: serial vs fabric-runner sweep throughput.

Runs the same Fig. 6-style sweep — independent, explicitly seeded
``shared_pool_round`` trials — through the serial backend and the
fabric runner with 2 and 4 workers, and archives wall-clock times and
speedups (``BENCH_parallel.json``).  Determinism is asserted
unconditionally: every backend must return the identical value list.

Acceptance: with at least 4 CPU cores, 4 workers must clear a 2x
speedup over serial.  On smaller machines (CI runners are often 1-2
cores) the speedup is recorded but not asserted — worker processes
cannot beat serial without cores to run on — and the bench record
carries a machine-readable unarmed gate verdict (``armed: false`` with
the ``cpu_count`` reason) instead of a silently skipped check.
"""

from __future__ import annotations

import os
import time

from repro.experiments.common import QUICK
from repro.experiments.fig6_profit import _fig6_trial
from repro.parallel import SerialRunner, Task, get_runner, spawn_task_seeds

from conftest import BenchSeries, GateVerdict

BENCH_SCHEMA = "BENCH_parallel/v1"
TASK_COUNT = 16
WORKER_COUNTS = (2, 4)
MIN_CORES_FOR_GATE = 4
REQUIRED_SPEEDUP = 2.0


def _tasks():
    """A Fig. 6-style sweep: independent seeded shared-pool trials."""
    seeds = spawn_task_seeds(0, TASK_COUNT)
    return [
        Task(
            fn=_fig6_trial,
            args=(0.5, 10, 1 + index % 2, 4, QUICK),
            seed=seed,
            label=f"trial#{index}",
        )
        for index, seed in enumerate(seeds)
    ]


def _time_runner(runner, tasks):
    started = time.perf_counter()
    values = runner.map(tasks)
    return time.perf_counter() - started, values


def test_parallel_sweep_speedup(save_artifact, emit_bench):
    """Serial vs 2/4 workers; archives BENCH_parallel.json."""
    cpu_count = os.cpu_count() or 1
    tasks = _tasks()

    serial_seconds, serial_values = _time_runner(SerialRunner(), tasks)

    records = [
        {
            "jobs": 1,
            "backend": "serial",
            "seconds": serial_seconds,
            "speedup": 1.0,
            "identical_to_serial": True,
        }
    ]
    for workers in WORKER_COUNTS:
        with get_runner(workers) as runner:
            # Warm the workers outside the timed region: a long sweep
            # pays worker startup once, and the bench measures steady
            # state.
            runner.map(tasks[:1])
            seconds, values = _time_runner(runner, tasks)
        records.append(
            {
                "jobs": workers,
                "backend": "stealing",
                "seconds": seconds,
                "speedup": serial_seconds / seconds,
                "identical_to_serial": values == serial_values,
            }
        )

    gate_active = cpu_count >= MIN_CORES_FOR_GATE

    lines = [
        f"Parallel sweep: {TASK_COUNT} seeded Fig. 6-style trials "
        f"({cpu_count} CPU core(s))",
        "",
        f"{'jobs':>5}  {'backend':>8}  {'seconds':>8}  {'speedup':>8}  "
        f"{'identical':>9}",
    ]
    for rec in records:
        lines.append(
            f"{rec['jobs']:>5}  {rec['backend']:>8}  "
            f"{rec['seconds']:>8.2f}  {rec['speedup']:>7.2f}x  "
            f"{str(rec['identical_to_serial']):>9}"
        )
    if not gate_active:
        lines.append(
            f"(speedup gate skipped: {cpu_count} core(s) < "
            f"{MIN_CORES_FOR_GATE})"
        )
    save_artifact("bench_parallel_sweep", "\n".join(lines))

    at_4 = next(rec for rec in records if rec["jobs"] == 4)
    gate = GateVerdict(
        name="speedup_4workers",
        armed=gate_active,
        passed=(at_4["speedup"] >= REQUIRED_SPEEDUP) if gate_active else None,
        reason=(
            ""
            if gate_active
            else f"cpu_count={cpu_count} < {MIN_CORES_FOR_GATE}"
        ),
        threshold=REQUIRED_SPEEDUP,
        observed=at_4["speedup"],
    )
    emit_bench(
        "parallel",
        series=[
            BenchSeries(
                f"{rec['backend']}_{rec['jobs']}w_seconds",
                "s",
                (rec["seconds"],),
                direction="lower",
                meta={"jobs": rec["jobs"]},
            )
            for rec in records
        ]
        + [
            BenchSeries(
                "speedup_4workers", "x", (at_4["speedup"],), direction="higher"
            )
        ],
        gates=[gate],
        view={
            "schema": BENCH_SCHEMA,
            "task_count": TASK_COUNT,
            "cpu_count": cpu_count,
            "speedup_gate_active": gate_active,
            "required_speedup_at_4_workers": REQUIRED_SPEEDUP,
            "records": records,
        },
    )

    # Determinism is not machine-dependent: assert it everywhere.
    for rec in records:
        assert rec["identical_to_serial"], (
            f"--jobs {rec['jobs']} returned different values than serial"
        )

    if gate_active:
        assert at_4["speedup"] >= REQUIRED_SPEEDUP, (
            f"4 workers only {at_4['speedup']:.2f}x faster than serial "
            f"on {cpu_count} cores (acceptance requires >= "
            f"{REQUIRED_SPEEDUP:.0f}x)"
        )
