"""Streaming pipeline: sustained throughput, batch latency, hit rate.

Two measurements back the always-on serving story:

* **Soak headline** — one lane of the full pipeline (zipf traffic ->
  sharded mempool -> batch scanner -> rollup + invariant sweep) served
  for a fixed number of block intervals.  Reports sustained transactions
  per second, the p50/p99 per-batch service latency and the scanner's
  opportunity hit rate, and requires zero invariant violations.
* **Mempool drain** — the heap-backed ``collect`` against the seed's
  full-sort-per-collect behaviour on a 20k-transaction backlog.  The
  O(k log N) lazy-deletion heap is what makes the backlog regime
  (submission rate above collection rate) serveable at all.

Gate thresholds are deliberately conservative (3-4x headroom below the
numbers measured on the development machine) so the armed gates catch
order-of-magnitude regressions, not scheduler noise.

Archived as ``BENCH_streaming.json`` via the shared perf-record writer.
"""

from __future__ import annotations

import time

import numpy as np

from repro.rollup.ckernel import kernel_backend
from repro.rollup.mempool import BedrockMempool
from repro.rollup.transaction import NFTTransaction, TxKind, sort_by_fee
from repro.streaming import StreamConfig, run_stream

from conftest import BenchSeries, GateVerdict

BENCH_SCHEMA = "BENCH_streaming/v1"

SOAK_BATCHES = 30
MIN_TX_PER_SECOND = 100.0
MAX_P99_BATCH_MS = 500.0

DRAIN_POOL = 20_000
DRAIN_BATCH = 16
MIN_DRAIN_SPEEDUP = 3.0


def _drain_pool_txs() -> list:
    rng = np.random.default_rng(0)
    return [
        NFTTransaction(
            kind=TxKind.MINT,
            sender=f"u{i % 97}",
            priority_fee=float(rng.uniform(0.0, 1.0)),
            nonce=i,
            label=f"t{i}",
        )
        for i in range(DRAIN_POOL)
    ]


def _bench_mempool_drain() -> dict:
    """Heap-backed collect vs the seed's full-sort-per-collect."""
    txs = _drain_pool_txs()

    # Baseline: re-sort the whole pending set for every 16-tx collection
    # (what `collect` cost before the lazy-deletion heap).  Run over the
    # same stamped transactions so the ordering work is identical.
    stamper = BedrockMempool()
    for tx in txs:
        stamper.submit(tx)
    remaining = list(stamper.pending())
    started = time.perf_counter()
    while remaining:
        ordered = sort_by_fee(remaining)
        remaining = list(ordered[DRAIN_BATCH:])
    sort_seconds = time.perf_counter() - started

    pool = BedrockMempool()
    for tx in txs:
        pool.submit(tx)
    started = time.perf_counter()
    while len(pool):
        pool.collect(DRAIN_BATCH)
    heap_seconds = time.perf_counter() - started

    return {
        "pool": DRAIN_POOL,
        "collect_size": DRAIN_BATCH,
        "full_sort_seconds": sort_seconds,
        "heap_seconds": heap_seconds,
        "full_sort_tx_per_second": DRAIN_POOL / sort_seconds,
        "heap_tx_per_second": DRAIN_POOL / heap_seconds,
        "speedup": sort_seconds / heap_seconds,
    }


def test_streaming_pipeline(save_artifact, emit_bench):
    """Soak one lane and gate the serving headline numbers."""
    # Load the replay kernel before the soak: its one-time compile would
    # otherwise land in the first interval, and the p99 of 30 intervals
    # would time that set-up instead of a block interval.
    kernel_backend()
    report = run_stream(StreamConfig(lanes=1, duration_batches=SOAK_BATCHES))
    drain = _bench_mempool_drain()

    lines = [
        "Streaming pipeline soak + mempool drain",
        "",
        report.render(),
        "",
        f"mempool drain ({DRAIN_POOL} txs, collect({DRAIN_BATCH})):",
        f"  full sort  {drain['full_sort_tx_per_second']:>10,.0f} tx/s",
        f"  heap       {drain['heap_tx_per_second']:>10,.0f} tx/s "
        f"({drain['speedup']:.1f}x)",
    ]
    save_artifact("bench_streaming", "\n".join(lines))

    emit_bench(
        "streaming",
        series=[
            BenchSeries(
                "sustained_tx_per_s", "tx/s",
                (report.sustained_tx_per_second,),
            ),
            BenchSeries(
                "p50_batch_ms", "ms", (report.p50_batch_ms,),
                direction="lower",
            ),
            BenchSeries(
                "p99_batch_ms", "ms", (report.p99_batch_ms,),
                direction="lower",
            ),
            BenchSeries("hit_rate", "fraction", (report.hit_rate,)),
            BenchSeries(
                "profit_total", "ETH", (report.profit_total,),
            ),
            BenchSeries(
                "mempool_drain_tx_per_s", "tx/s",
                (drain["heap_tx_per_second"],),
            ),
            BenchSeries(
                "mempool_drain_speedup", "x", (drain["speedup"],),
            ),
        ],
        gates=[
            GateVerdict(
                name="sustained_tx_per_s",
                armed=True,
                passed=report.sustained_tx_per_second >= MIN_TX_PER_SECOND,
                threshold=MIN_TX_PER_SECOND,
                observed=report.sustained_tx_per_second,
            ),
            GateVerdict(
                name="p99_batch_ms",
                armed=True,
                passed=report.p99_batch_ms <= MAX_P99_BATCH_MS,
                threshold=MAX_P99_BATCH_MS,
                observed=report.p99_batch_ms,
            ),
            GateVerdict(
                name="mempool_drain_speedup",
                armed=True,
                passed=drain["speedup"] >= MIN_DRAIN_SPEEDUP,
                threshold=MIN_DRAIN_SPEEDUP,
                observed=drain["speedup"],
            ),
            GateVerdict(
                name="zero_invariant_violations",
                armed=True,
                passed=report.ok,
                threshold=0.0,
                observed=float(len(report.total_violations)),
            ),
        ],
        view={
            "schema": BENCH_SCHEMA,
            "soak_batches": SOAK_BATCHES,
            "report": report.deterministic_payload(),
            "wall": {
                "elapsed_seconds": report.elapsed_seconds,
                "sustained_tx_per_second": report.sustained_tx_per_second,
                "p50_batch_ms": report.p50_batch_ms,
                "p99_batch_ms": report.p99_batch_ms,
            },
            "drain": drain,
        },
    )

    assert report.ok, f"invariant violations: {report.total_violations}"
    assert report.sustained_tx_per_second >= MIN_TX_PER_SECOND, (
        f"sustained {report.sustained_tx_per_second:.0f} tx/s below the "
        f"{MIN_TX_PER_SECOND:.0f} tx/s floor"
    )
    assert report.p99_batch_ms <= MAX_P99_BATCH_MS, (
        f"p99 batch latency {report.p99_batch_ms:.1f} ms above the "
        f"{MAX_P99_BATCH_MS:.0f} ms ceiling"
    )
    assert drain["speedup"] >= MIN_DRAIN_SPEEDUP, (
        f"heap drain only {drain['speedup']:.1f}x the full-sort baseline "
        f"(acceptance requires >= {MIN_DRAIN_SPEEDUP:.0f}x)"
    )
