"""Fabric bench: the work-stealing runner on skewed costs.

The adversarial workload the work-stealing scheduler exists for: a
sweep whose first few tasks are ~25x more expensive than the rest
(chaos-matrix cells and DQN epsilons look exactly like this).  Cutting
it into contiguous chunks would put all the heavies on one worker;
LPT planning + adaptive chunks + stealing spread them, which is what
the >= 2.5x acceptance gate at 4 workers checks.  That gate arms only
with >= 4 CPU cores — this is a *compute-bound* workload, so on a 1-2
core runner the honest verdict is ``UNARMED`` with the cpu_count in
the reason, never a silently green check.

The ``fabric_overhead_1w`` gate arms on any machine: one fabric worker
must run the same tasks in at most 1.5x the serial wall time (best of
3 interleaved runs each), bounding what the pipe protocol and worker
process cost when there is no parallelism to win.

Determinism is asserted unconditionally (identical values from every
backend, including a remote loopback worker).
"""

from __future__ import annotations

import os
import time

from repro.parallel import SerialRunner, StealingRunner, Task, spawn_task_seeds
from repro.parallel.remote import RemoteRunner, WorkerServer

from conftest import BenchSeries, GateVerdict

BENCH_SCHEMA = "BENCH_fabric/v1"
TASK_COUNT = 64
HEAVY_COUNT = 4
HEAVY_UNITS = 25
LIGHT_UNITS = 1
#: Busy-loop iterations per cost unit (~2-4 ms on current hardware).
ITERATIONS_PER_UNIT = 120_000
WORKERS = 4
MIN_CORES_FOR_GATE = 4
REQUIRED_STEALING_SPEEDUP = 2.5
MAX_OVERHEAD_1W = 1.5
OVERHEAD_REPEATS = 3


def spin(units: int, seed=None) -> int:
    """Deterministic CPU-bound work: ``units`` blocks of xorshift."""
    state = (seed or 0) % (2**32) or 0x9E3779B9
    for _ in range(units * ITERATIONS_PER_UNIT):
        state ^= (state << 13) & 0xFFFFFFFF
        state ^= state >> 17
        state ^= (state << 5) & 0xFFFFFFFF
    return state


def _tasks():
    """Heavies first and contiguous — worst case for contiguous chunks.

    With 64 tasks and 4 workers, chunks of 4 would put tasks 0-3 (all
    the heavies) on one worker: makespan ~HEAVY_COUNT*HEAVY_UNITS of a
    ~(HEAVY+LIGHT)-unit total.
    """
    seeds = spawn_task_seeds(0, TASK_COUNT)
    return [
        Task(
            fn=spin,
            args=(HEAVY_UNITS if index < HEAVY_COUNT else LIGHT_UNITS,),
            seed=seed,
            label=f"{'heavy' if index < HEAVY_COUNT else 'light'}#{index}",
        )
        for index, seed in enumerate(seeds)
    ]


def _time_runner(runner, tasks):
    started = time.perf_counter()
    values = runner.map(tasks)
    return time.perf_counter() - started, values


def test_fabric_on_skewed_costs(save_artifact, emit_bench):
    cpu_count = os.cpu_count() or 1
    tasks = _tasks()

    # Serial and one-worker fabric runs alternate, so drift in machine
    # load hits both sides of the overhead ratio alike.
    serial_runs, overhead_runs = [], []
    with StealingRunner(max_workers=1) as one_worker:
        one_worker.map(tasks[:1])  # worker startup outside the timed region
        for _ in range(OVERHEAD_REPEATS):
            seconds, serial_values = _time_runner(SerialRunner(), tasks)
            serial_runs.append(seconds)
            seconds, one_worker_values = _time_runner(one_worker, tasks)
            overhead_runs.append(seconds)
    serial_seconds = min(serial_runs)
    one_worker_seconds = min(overhead_runs)

    with StealingRunner(max_workers=WORKERS, tick_seconds=0.2) as runner:
        runner.map(tasks[:1])
        stealing_seconds, stealing_values = _time_runner(runner, tasks)
        scheduler = runner.last_scheduler
    utilization = scheduler.utilization_report()
    steals = scheduler.steals

    with WorkerServer(jobs=WORKERS) as server:
        with RemoteRunner(
            [(server.host, server.port)], tick_seconds=0.2
        ) as runner:
            remote_seconds, remote_values = _time_runner(runner, tasks)

    stealing_speedup = serial_seconds / stealing_seconds
    overhead = one_worker_seconds / serial_seconds
    busy = [entry["busy_seconds"] for entry in utilization]
    idle_ms = [
        max(0.0, stealing_seconds - entry["busy_seconds"]) * 1000.0
        for entry in utilization
    ]

    gate_active = cpu_count >= MIN_CORES_FOR_GATE
    gates = [
        GateVerdict(
            name="stealing_speedup_4w",
            armed=gate_active,
            passed=(
                (stealing_speedup >= REQUIRED_STEALING_SPEEDUP)
                if gate_active
                else None
            ),
            reason=(
                ""
                if gate_active
                else f"cpu_count={cpu_count} < {MIN_CORES_FOR_GATE}"
            ),
            threshold=REQUIRED_STEALING_SPEEDUP,
            observed=stealing_speedup,
        ),
        GateVerdict(
            name="fabric_overhead_1w",
            armed=True,
            passed=overhead <= MAX_OVERHEAD_1W,
            threshold=MAX_OVERHEAD_1W,
            observed=overhead,
        ),
    ]

    records = {
        "serial_seconds": serial_seconds,
        "fabric_1w_seconds": one_worker_seconds,
        "stealing_seconds": stealing_seconds,
        "remote_loopback_seconds": remote_seconds,
        "fabric_overhead_1w": overhead,
        "stealing_speedup": stealing_speedup,
        "steals": steals,
        "per_worker": utilization,
    }

    lines = [
        f"Fabric bench: {TASK_COUNT} tasks, {HEAVY_COUNT} heavies "
        f"x{HEAVY_UNITS} cost, {WORKERS} workers ({cpu_count} CPU core(s))",
        "",
        f"{'backend':>16}  {'seconds':>8}  {'speedup':>8}",
        f"{'serial':>16}  {serial_seconds:>8.2f}  {'1.00x':>8}",
        f"{'fabric 1 worker':>16}  {one_worker_seconds:>8.2f}  "
        f"{1.0 / overhead:>7.2f}x",
        f"{'stealing':>16}  {stealing_seconds:>8.2f}  "
        f"{stealing_speedup:>7.2f}x",
        f"{'remote-loopback':>16}  {remote_seconds:>8.2f}  "
        f"{serial_seconds / remote_seconds:>7.2f}x",
        "",
        f"steals: {steals}",
    ]
    for entry, idle in zip(utilization, idle_ms):
        lines.append(
            f"  {entry['worker']}: {entry['tasks']} task(s), "
            f"busy {entry['busy_seconds']:.2f}s, idle {idle:.0f}ms"
        )
    for gate in gates:
        lines.append(gate.render())
    save_artifact("bench_fabric", "\n".join(lines))

    emit_bench(
        "fabric",
        series=[
            BenchSeries("serial_seconds", "s", (serial_seconds,),
                        direction="lower"),
            BenchSeries("fabric_1w_seconds", "s", (one_worker_seconds,),
                        direction="lower"),
            BenchSeries("stealing_4w_seconds", "s", (stealing_seconds,),
                        direction="lower"),
            BenchSeries("remote_loopback_seconds", "s", (remote_seconds,),
                        direction="lower"),
            BenchSeries("fabric_overhead_1w", "x", (overhead,),
                        direction="lower"),
            BenchSeries("stealing_speedup_4w", "x", (stealing_speedup,),
                        direction="higher"),
            BenchSeries("steals", "count", (float(steals),),
                        direction="lower"),
            BenchSeries("worker_busy_seconds", "s", tuple(busy),
                        direction="higher"),
            BenchSeries("worker_idle_ms", "ms", tuple(idle_ms),
                        direction="lower"),
        ],
        gates=gates,
        view={
            "schema": BENCH_SCHEMA,
            "task_count": TASK_COUNT,
            "heavy_count": HEAVY_COUNT,
            "heavy_units": HEAVY_UNITS,
            "workers": WORKERS,
            "cpu_count": cpu_count,
            "gate_active": gate_active,
            "overhead_repeats": OVERHEAD_REPEATS,
            "records": records,
        },
    )

    # Byte-identity is machine-independent: assert it everywhere.
    assert one_worker_values == serial_values, "one-worker fabric diverged"
    assert stealing_values == serial_values, "stealing backend diverged"
    assert remote_values == serial_values, "remote loopback diverged"

    assert overhead <= MAX_OVERHEAD_1W, (
        f"one fabric worker took {overhead:.2f}x the serial wall time "
        f"(limit {MAX_OVERHEAD_1W}x)"
    )
    if gate_active:
        assert stealing_speedup >= REQUIRED_STEALING_SPEEDUP, (
            f"stealing only {stealing_speedup:.2f}x on {cpu_count} cores "
            f"(acceptance requires >= {REQUIRED_STEALING_SPEEDUP}x)"
        )
