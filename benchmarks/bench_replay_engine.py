"""Replay-engine throughput: scratch vs incremental candidate scoring.

The hot path of every solver and DQN episode is "apply one swap, rescore
the order".  This bench measures that exact operation — replay the
candidate and derive the Eq. 8 scoring inputs (executed set, batch-end
consistency, IFU wealth) — four ways:

* ``scratch_seed``      — ``OVM.replay`` against a state with the seed's
  O(users)-per-read aggregate scans (the cost model this PR replaced);
* ``scratch``           — ``OVM.replay`` against the current state with
  O(1) counters (the optimised from-scratch path);
* ``incremental``       — ``IncrementalOVM.evaluate``, resuming from the
  shared prefix on the allocation-light columnar path;
* ``env_memoized``      — the full ``ReorderEnv.evaluate_order`` with the
  permutation LRU in front.

A second sweep measures the columnar batch kernel
(``BatchReplayEngine.evaluate_many``) at K ∈ {1, 8, 32, 128} candidates
per call against the K = 1 incremental path — the population-solver hot
path.  Where the C kernel cannot load (``kernel_backend() == "python"``)
only the K = 1 row runs: population scoring then *is* the incremental
path.

A JSON record (``BENCH_replay.json``) is archived — including the host
``cpu_count``, the numpy version, the compiled-kernel backend and the
swept batch sizes — so future PRs can track the perf trajectory.

Acceptance: incremental single-swap re-evaluation at N = 50 must be at
least 5x faster than from-scratch replay (measured against the stronger,
already-optimised scratch baseline; the seed-cost speedup is reported
alongside), and the batch kernel at K = 32 must deliver at least 5x the
aggregate throughput of the K = 1 incremental path (armed wherever the
kernel loads; recorded UNARMED with the reason where it does not).

A second bench (``BENCH_telemetry.json``) measures what the telemetry
instrumentation costs on the same hot path: the disabled no-op backends
must stay within 5% of a fully uninstrumented scoring loop, and the
enabled-path overhead is archived for the record.
"""

from __future__ import annotations

import os
import platform
import time

import numpy as np

from repro.config import GenTranSeqConfig, WorkloadConfig
from repro.core import ReorderEnv
from repro.rollup import BatchReplayEngine, IncrementalOVM, L2State, OVM
from repro.rollup.ckernel import kernel_backend
from repro.telemetry import (
    RingBufferSink,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
)
from repro.workloads import generate_workload

from conftest import BenchSeries, GateVerdict

SIZES = (10, 20, 50, 100)
SWAPS_PER_SIZE = 300

BATCH_N = 50
BATCH_SIZES = (1, 8, 32, 128)
BATCH_POOL = 512
BATCH_REPEATS = 3
BATCH_MIN_SPEEDUP_AT_32 = 5.0

BENCH_SCHEMA = "BENCH_replay/v2"
TELEMETRY_BENCH_SCHEMA = "BENCH_telemetry/v1"
TELEMETRY_SIZES = (20, 50)
TELEMETRY_REPEATS = 5
MAX_DISABLED_OVERHEAD = 0.05


class SeedCostState(L2State):
    """L2State with the seed's O(users) aggregate reads.

    Before this PR, every ``unit_price`` / ``remaining_supply`` /
    ``inventory_is_consistent`` read re-scanned the inventory dict.  This
    subclass restores those costs (bit-identical values) so the bench can
    report how much of the speedup comes from the O(1) counters vs the
    incremental engine.
    """

    @property
    def minted_count(self) -> int:
        return sum(self.inventory.values())

    @property
    def remaining_supply(self) -> int:
        return self.nft_config.max_supply - self.minted_count

    @property
    def unit_price(self) -> float:
        remaining = self.remaining_supply
        return (
            self.nft_config.max_supply
            / max(remaining, 1)
            * self.nft_config.initial_price_eth
        )

    def inventory_is_consistent(self) -> bool:
        return all(count >= 0 for count in self.inventory.values())


def _workload(size: int):
    return generate_workload(
        WorkloadConfig(
            mempool_size=size,
            num_users=max(8, size // 3),
            num_ifus=1,
            seed=42,
        )
    )


def _swap_orders(rng: np.random.Generator, size: int, count: int):
    """A random walk of single swaps from the identity order."""
    order = list(range(size))
    orders = []
    for _ in range(count):
        i, j = rng.choice(size, size=2, replace=False)
        order[i], order[j] = order[j], order[i]
        orders.append(tuple(order))
    return orders


def _time_scratch(pre_state, workload, orders) -> float:
    """From-scratch scoring: replay + executed set + consistency + wealth."""
    ovm = OVM()
    ifus = workload.ifus
    started = time.perf_counter()
    for order in orders:
        sequence = tuple(workload.transactions[i] for i in order)
        trace = ovm.replay(pre_state, sequence)
        frozenset(
            index
            for index, step in zip(order, trace.steps)
            if step.executed
        )
        trace.consistent()
        {user: trace.final_state.wealth(user) for user in ifus}
    return time.perf_counter() - started


def _bench_size(size: int) -> dict:
    workload = _workload(size)
    rng = np.random.default_rng(7)
    orders = _swap_orders(rng, size, SWAPS_PER_SIZE)
    pre = workload.pre_state

    seed_pre = SeedCostState(
        pre.nft_config,
        balances=pre.balances,
        inventory=pre.inventory,
        mode=pre.mode,
        charge_fees=pre.charge_fees,
    )
    scratch_seed_seconds = _time_scratch(seed_pre, workload, orders)
    scratch_seconds = _time_scratch(pre, workload, orders)

    # Incremental resume from the shared prefix (the solver hot path).
    engine = IncrementalOVM(
        pre, workload.transactions, wealth_users=workload.ifus
    )
    engine.evaluate(range(size))  # the one-time baseline
    started = time.perf_counter()
    for order in orders:
        engine.evaluate(order)
    incremental_seconds = time.perf_counter() - started
    engine_stats = engine.stats

    # Full environment scoring with permutation memoization: the second
    # pass over the same walk is answered entirely from the LRU.
    env = ReorderEnv(
        pre_state=pre,
        transactions=workload.transactions,
        ifus=workload.ifus,
        config=GenTranSeqConfig(steps_per_episode=SWAPS_PER_SIZE, seed=0),
    )
    started = time.perf_counter()
    for order in orders + orders:
        env.evaluate_order(order)
    env_seconds = time.perf_counter() - started
    stats = env.replay_stats()

    return {
        "size": size,
        "swaps": SWAPS_PER_SIZE,
        "scratch_seed_seconds": scratch_seed_seconds,
        "scratch_seconds": scratch_seconds,
        "incremental_seconds": incremental_seconds,
        "speedup": scratch_seconds / incremental_seconds,
        "speedup_vs_seed": scratch_seed_seconds / incremental_seconds,
        "scratch_evals_per_second": SWAPS_PER_SIZE / scratch_seconds,
        "incremental_evals_per_second": SWAPS_PER_SIZE / incremental_seconds,
        "env_memoized_seconds": env_seconds,
        "mean_resume_depth": engine_stats.mean_resume_depth,
        "step_reuse_fraction": engine_stats.step_reuse_fraction,
        "cache_hit_rate": stats["cache_hit_rate"],
    }


def _bench_batch_kernel(backend: str) -> dict:
    """Aggregate candidate throughput of evaluate_many across K.

    K = 1 is the incremental engine (the pre-batch scoring path); K > 1
    chunks the same 512-candidate pool into columnar kernel calls and
    runs only when ``backend`` is ``"c"``.  Best-of-``BATCH_REPEATS`` per
    configuration suppresses scheduler noise; throughput is candidates
    scored per second.
    """
    workload = _workload(BATCH_N)
    pre = workload.pre_state
    rng = np.random.default_rng(13)
    pool = [
        tuple(int(x) for x in rng.permutation(BATCH_N))
        for _ in range(BATCH_POOL)
    ]

    records = []
    incremental_rate = None
    for k in BATCH_SIZES if backend == "c" else (1,):
        best = float("inf")
        for _ in range(BATCH_REPEATS):
            if k == 1:
                engine = IncrementalOVM(
                    pre, workload.transactions, wealth_users=workload.ifus
                )
                engine.evaluate(range(BATCH_N))  # the one-time baseline
                started = time.perf_counter()
                for order in pool:
                    engine.evaluate(order)
                best = min(best, time.perf_counter() - started)
            else:
                engine = BatchReplayEngine(
                    pre, workload.transactions, wealth_users=workload.ifus
                )
                started = time.perf_counter()
                for lo in range(0, BATCH_POOL, k):
                    engine.evaluate_many(pool[lo : lo + k])
                best = min(best, time.perf_counter() - started)
        rate = BATCH_POOL / best
        if k == 1:
            incremental_rate = rate
        records.append(
            {
                "batch_size": k,
                "candidates": BATCH_POOL,
                "seconds": best,
                "evals_per_second": rate,
                "speedup_vs_incremental": rate / incremental_rate,
            }
        )
    return {
        "size": BATCH_N,
        "pool": BATCH_POOL,
        "repeats": BATCH_REPEATS,
        "kernel_backend": backend,
        "records": records,
    }


def test_replay_engine_throughput(save_artifact, emit_bench):
    """Scratch vs incremental replay across N; archives BENCH_replay.json."""
    records = [_bench_size(size) for size in SIZES]
    batch = _bench_batch_kernel(kernel_backend())

    lines = [
        "Replay engine: single-swap re-evaluation throughput",
        "",
        f"{'N':>4}  {'scratch ev/s':>13}  {'incremental ev/s':>17}  "
        f"{'speedup':>8}  {'vs seed':>8}  {'resume depth':>13}  "
        f"{'cache hit%':>10}",
    ]
    for rec in records:
        lines.append(
            f"{rec['size']:>4}  {rec['scratch_evals_per_second']:>13.0f}  "
            f"{rec['incremental_evals_per_second']:>17.0f}  "
            f"{rec['speedup']:>7.1f}x  {rec['speedup_vs_seed']:>7.1f}x  "
            f"{rec['mean_resume_depth']:>13.1f}  "
            f"{rec['cache_hit_rate'] * 100:>9.1f}%"
        )
    lines += [
        "",
        f"Batch kernel ({batch['kernel_backend']} backend): aggregate "
        f"candidate throughput at N = {BATCH_N}",
        "",
        f"{'K':>4}  {'evals/s':>10}  {'vs K=1':>8}",
    ]
    for rec in batch["records"]:
        lines.append(
            f"{rec['batch_size']:>4}  {rec['evals_per_second']:>10.0f}  "
            f"{rec['speedup_vs_incremental']:>7.2f}x"
        )
    save_artifact("bench_replay_engine", "\n".join(lines))

    at_50 = next(rec for rec in records if rec["size"] == 50)
    at_32 = next(
        (rec for rec in batch["records"] if rec["batch_size"] == 32), None
    )
    if at_32 is None:
        batch_gate = GateVerdict(
            name="batch_speedup_K32",
            armed=False,
            reason=(
                f"kernel_backend={batch['kernel_backend']}: the C kernel "
                "did not load, so no K>1 sweep ran"
            ),
            threshold=BATCH_MIN_SPEEDUP_AT_32,
        )
        batch_series = []
    else:
        batch_gate = GateVerdict(
            name="batch_speedup_K32",
            armed=True,
            passed=(
                at_32["speedup_vs_incremental"] >= BATCH_MIN_SPEEDUP_AT_32
            ),
            threshold=BATCH_MIN_SPEEDUP_AT_32,
            observed=at_32["speedup_vs_incremental"],
        )
        batch_series = [
            BenchSeries(
                "batch_evals_per_s_K32",
                "evals/s",
                (at_32["evals_per_second"],),
            ),
            BenchSeries(
                "batch_speedup_K32", "x", (at_32["speedup_vs_incremental"],)
            ),
        ]
    series = [
        BenchSeries(
            f"incremental_evals_per_s_N{rec['size']}",
            "evals/s",
            (rec["incremental_evals_per_second"],),
            meta={"N": rec["size"]},
        )
        for rec in records
    ] + [
        BenchSeries("incremental_speedup_N50", "x", (at_50["speedup"],)),
        *batch_series,
    ]
    emit_bench(
        "replay",
        series=series,
        gates=[
            GateVerdict(
                name="incremental_speedup_N50",
                armed=True,
                passed=at_50["speedup"] >= 5.0,
                threshold=5.0,
                observed=at_50["speedup"],
            ),
            batch_gate,
        ],
        view={
            "schema": BENCH_SCHEMA,
            "swaps_per_size": SWAPS_PER_SIZE,
            "environment": {
                "cpu_count": os.cpu_count(),
                "numpy_version": np.__version__,
                "python_version": platform.python_version(),
                "kernel_backend": batch["kernel_backend"],
            },
            "batch_sizes": list(BATCH_SIZES),
            "records": records,
            "batch": batch,
        },
        kernel_backend=batch["kernel_backend"],
    )

    assert at_50["speedup"] >= 5.0, (
        f"incremental replay only {at_50['speedup']:.1f}x faster at N=50 "
        "(acceptance requires >= 5x)"
    )
    assert not batch_gate.armed or batch_gate.passed, (
        f"batch kernel only {batch_gate.observed:.1f}x the "
        f"incremental path at K=32 (acceptance requires >= "
        f"{BATCH_MIN_SPEEDUP_AT_32:.0f}x)"
    )


def test_incremental_results_match_scratch():
    """The bench's paths must agree on what they compute."""
    workload = _workload(20)
    rng = np.random.default_rng(3)
    engine = IncrementalOVM(
        workload.pre_state, workload.transactions, wealth_users=workload.ifus
    )
    scratch = OVM()
    for order in _swap_orders(rng, 20, 25):
        sequence = tuple(workload.transactions[i] for i in order)
        mine = engine.replay_order(order)
        summary = engine.evaluate(order)
        theirs = scratch.replay(workload.pre_state, sequence)
        assert (
            mine.final_state.canonical_items()
            == theirs.final_state.canonical_items()
        )
        executed = [s.executed for s in theirs.steps]
        assert [s.executed for s in mine.steps] == executed
        assert summary.executed == executed
        assert summary.wealth == {
            user: theirs.final_state.wealth(user) for user in workload.ifus
        }


class UninstrumentedEnv(ReorderEnv):
    """The pre-telemetry scoring loop: no counter call at all.

    Serves as the bench's true baseline — the disabled no-op backends
    are compared against code with zero instrumentation, not against
    themselves.
    """

    def evaluate_order(self, order):
        key = tuple(order)
        cached = self._eval_cache.get(key)
        if cached is None:
            summary = self._engine.evaluate(key)
            cached = self._evaluation_from_summary(key, summary)
            self._eval_cache.put(key, cached)
        return dict(cached)


def _time_env_walk(env_cls, workload, orders, repeats: int) -> float:
    """Best-of-``repeats`` wall time of scoring the swap walk once.

    A fresh environment per repeat (identical cache state across
    configurations); best-of-N suppresses scheduler noise.
    """
    best = float("inf")
    for _ in range(repeats):
        env = env_cls(
            pre_state=workload.pre_state,
            transactions=workload.transactions,
            ifus=workload.ifus,
            config=GenTranSeqConfig(steps_per_episode=len(orders), seed=0),
        )
        started = time.perf_counter()
        for order in orders:
            env.evaluate_order(order)
        best = min(best, time.perf_counter() - started)
    return best


def _bench_telemetry_size(size: int) -> dict:
    workload = _workload(size)
    rng = np.random.default_rng(11)
    orders = _swap_orders(rng, size, SWAPS_PER_SIZE)

    disable_metrics()
    disable_tracing()
    uninstrumented = _time_env_walk(
        UninstrumentedEnv, workload, orders, TELEMETRY_REPEATS
    )
    disabled = _time_env_walk(ReorderEnv, workload, orders, TELEMETRY_REPEATS)

    enable_metrics()
    enable_tracing(RingBufferSink(capacity=4096))
    try:
        enabled = _time_env_walk(
            ReorderEnv, workload, orders, TELEMETRY_REPEATS
        )
    finally:
        disable_metrics()
        disable_tracing()

    return {
        "size": size,
        "swaps": SWAPS_PER_SIZE,
        "repeats": TELEMETRY_REPEATS,
        "uninstrumented_seconds": uninstrumented,
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "disabled_overhead": disabled / uninstrumented - 1.0,
        "enabled_overhead": enabled / uninstrumented - 1.0,
    }


def test_telemetry_overhead(save_artifact, emit_bench):
    """Disabled telemetry must cost <= 5% on single-swap re-evaluation."""
    records = [_bench_telemetry_size(size) for size in TELEMETRY_SIZES]

    lines = [
        "Telemetry overhead on ReorderEnv.evaluate_order (single-swap walk)",
        "",
        f"{'N':>4}  {'uninstr ms':>11}  {'disabled ms':>12}  "
        f"{'enabled ms':>11}  {'off ovh%':>9}  {'on ovh%':>8}",
    ]
    for rec in records:
        lines.append(
            f"{rec['size']:>4}  {rec['uninstrumented_seconds'] * 1e3:>11.2f}  "
            f"{rec['disabled_seconds'] * 1e3:>12.2f}  "
            f"{rec['enabled_seconds'] * 1e3:>11.2f}  "
            f"{rec['disabled_overhead'] * 100:>8.2f}%  "
            f"{rec['enabled_overhead'] * 100:>7.2f}%"
        )
    save_artifact("bench_telemetry_overhead", "\n".join(lines))

    emit_bench(
        "telemetry",
        series=[
            BenchSeries(
                f"disabled_overhead_N{rec['size']}",
                "fraction",
                (rec["disabled_overhead"],),
                direction="lower",
                meta={"N": rec["size"]},
            )
            for rec in records
        ]
        + [
            BenchSeries(
                f"enabled_overhead_N{rec['size']}",
                "fraction",
                (rec["enabled_overhead"],),
                direction="lower",
                meta={"N": rec["size"]},
            )
            for rec in records
        ],
        gates=[
            GateVerdict(
                name=f"disabled_overhead_N{rec['size']}",
                armed=True,
                passed=rec["disabled_overhead"] <= MAX_DISABLED_OVERHEAD,
                threshold=MAX_DISABLED_OVERHEAD,
                observed=rec["disabled_overhead"],
            )
            for rec in records
        ],
        view={
            "schema": TELEMETRY_BENCH_SCHEMA,
            "swaps_per_size": SWAPS_PER_SIZE,
            "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
            "records": records,
        },
    )

    for rec in records:
        assert rec["disabled_overhead"] <= MAX_DISABLED_OVERHEAD, (
            f"disabled telemetry costs {rec['disabled_overhead']:.1%} at "
            f"N={rec['size']} (acceptance requires <= "
            f"{MAX_DISABLED_OVERHEAD:.0%})"
        )


def test_seed_cost_state_is_bit_identical():
    """The seed-cost comparator changes cost, never values."""
    workload = _workload(12)
    pre = workload.pre_state
    seed_pre = SeedCostState(
        pre.nft_config,
        balances=pre.balances,
        inventory=pre.inventory,
        mode=pre.mode,
        charge_fees=pre.charge_fees,
    )
    sequence = workload.transactions
    fast = OVM().replay(pre, sequence)
    slow = OVM().replay(seed_pre, sequence)
    assert (
        fast.final_state.canonical_items()
        == slow.final_state.canonical_items()
    )
    assert [s.result.price_after for s in fast.steps] == [
        s.result.price_after for s in slow.steps
    ]
