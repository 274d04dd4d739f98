"""The always-on streaming pipeline: lanes of rollup + scanner + traffic.

One *lane* is a :class:`~repro.faults.deployment.Deployment` config —
its own :class:`~repro.streaming.traffic.TrafficGenerator` feeding a
:class:`~repro.streaming.mempool.ShardedMempool`, one adversarial
aggregator routed through a :class:`~repro.streaming.scanner.BatchScanner`
and an honest verifier — driven for a fixed number of batch intervals
with the deployment's invariant sweep after every batch.  Lanes fan out
over the process pool (``--jobs``), each from an independent seed
spawned off the stream seed.

Determinism contract: everything in a lane's
:meth:`LaneReport.deterministic_payload` — transaction streams, batch
orderings, scanner decisions, invariant sweeps, final state roots — is a
pure function of ``(config, seed)``.  Wall-clock readings (batch
latencies, sustained tx/s) live in separate report fields that are
excluded from :meth:`StreamReport.deterministic_json`, which is how the
soak test asserts byte-identical results for ``--jobs 1`` vs ``--jobs
2``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import _require
from ..crypto import hash_value
from ..faults.deployment import Deployment
from ..parallel import Task, TaskRunner, get_runner, spawn_task_seeds
from ..rollup.aggregator import AdversarialAggregator
from ..rollup.verifier import Verifier
from ..store import ResultStore
from .mempool import ShardedMempool
from .scanner import BatchScanner, ScannerConfig
from .traffic import StreamTrafficConfig, TrafficGenerator


@dataclass(frozen=True)
class StreamConfig:
    """One bounded soak run of the streaming pipeline."""

    lanes: int = 2
    #: Fixed block intervals to serve per lane.
    duration_batches: int = 50
    #: Transactions one aggregator collects per interval.
    batch_size: int = 16
    #: Transactions the generator submits per interval; above
    #: ``batch_size`` the mempool carries a growing backlog, which is
    #: exactly the regime the sharded pool exists for.
    submit_per_batch: int = 24
    shards: int = 4
    seed: int = 0
    traffic: StreamTrafficConfig = field(default_factory=StreamTrafficConfig)
    scanner: ScannerConfig = field(default_factory=ScannerConfig)
    #: Result-store root for scanner memoization (None = no cache).
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        _require(self.lanes >= 1, "need at least one lane")
        _require(self.duration_batches >= 1,
                 "duration_batches must be positive")
        _require(self.batch_size >= 1, "batch_size must be positive")
        _require(self.submit_per_batch >= 1,
                 "submit_per_batch must be positive")
        _require(self.shards >= 1, "shards must be at least 1")


@dataclass(frozen=True)
class LaneReport:
    """Everything one lane produced.

    ``batch_wall_ms`` is wall clock (non-deterministic); every other
    field is a pure function of ``(config, seed)``.
    """

    lane: int
    seed: int
    batches: int
    submitted: int
    included: int
    pending: int
    violations: Tuple[str, ...]
    actions: Dict[str, int]
    profit_total: float
    hit_rate: float
    state_root: str
    #: Digest of the committed transaction order of every batch — the
    #: strongest single check that two runs served identical streams.
    order_digest: str
    batch_wall_ms: Tuple[float, ...]

    def deterministic_payload(self) -> dict:
        """JSON-able view with wall-clock fields stripped."""
        return {
            "lane": self.lane,
            "seed": self.seed,
            "batches": self.batches,
            "submitted": self.submitted,
            "included": self.included,
            "pending": self.pending,
            "violations": list(self.violations),
            "actions": dict(sorted(self.actions.items())),
            "profit_total": round(self.profit_total, 9),
            "hit_rate": round(self.hit_rate, 9),
            "state_root": self.state_root,
            "order_digest": self.order_digest,
        }


def _run_lane(config: StreamConfig, lane: int,
              seed: Optional[int] = None) -> LaneReport:
    """Serve ``duration_batches`` intervals on one isolated deployment.

    Module-level so the process backend can pickle it.
    """
    lane_seed = config.seed if seed is None else int(seed)
    traffic = TrafficGenerator(config.traffic, seed=lane_seed)
    mempool = ShardedMempool(shards=config.shards)
    store = None
    if config.cache_dir is not None:
        store = ResultStore(config.cache_dir).namespaced("stream")
    scanner = BatchScanner(traffic.ifus, config=config.scanner, store=store)
    deployment = Deployment(
        traffic.pre_state,
        batch_size=config.batch_size,
        mempool=mempool,
        aggregators=[AdversarialAggregator(
            f"stream-agg-{lane}", strategy=scanner.as_strategy()
        )],
        verifiers=[Verifier(f"stream-ver-{lane}")],
        arrivals=lambda: traffic.next_batch(config.submit_per_batch),
    )

    violations: List[str] = []
    committed_orders: List[Tuple[str, ...]] = []
    wall_ms: List[float] = []
    for record in deployment.run(config.duration_batches):
        wall_ms.append(record.wall_ms)
        for result in record.report.results:
            committed_orders.append(
                tuple(tx.tx_hash for tx in result.batch.transactions)
            )
        for violation in record.sweep.violations:
            violations.append(f"batch {record.index}: {violation}")

    return LaneReport(
        lane=lane,
        seed=lane_seed,
        batches=config.duration_batches,
        submitted=traffic.generated,
        included=deployment.checker.included_surviving_count(),
        pending=len(mempool),
        violations=tuple(violations),
        actions=scanner.action_counts(),
        profit_total=scanner.profit_total,
        hit_rate=scanner.hit_rate,
        state_root=deployment.node.current_state_root(),
        order_digest=hash_value([list(order) for order in committed_orders]),
        batch_wall_ms=tuple(wall_ms),
    )


@dataclass(frozen=True)
class StreamReport:
    """Aggregate of every lane of one soak run."""

    config_seed: int
    lanes: Tuple[LaneReport, ...]
    #: Wall-clock aggregates (non-deterministic).
    elapsed_seconds: float
    sustained_tx_per_second: float
    p50_batch_ms: float
    p99_batch_ms: float

    # ------------------------------------------------------------------ #

    @property
    def ok(self) -> bool:
        """Zero invariant violations across every lane."""
        return not self.total_violations

    @property
    def total_violations(self) -> Tuple[str, ...]:
        return tuple(
            f"lane {lane.lane}: {violation}"
            for lane in self.lanes
            for violation in lane.violations
        )

    @property
    def total_submitted(self) -> int:
        return sum(lane.submitted for lane in self.lanes)

    @property
    def total_included(self) -> int:
        return sum(lane.included for lane in self.lanes)

    @property
    def profit_total(self) -> float:
        return sum(lane.profit_total for lane in self.lanes)

    @property
    def hit_rate(self) -> float:
        """Fraction of served batches the attack improved (deterministic)."""
        scanned = sum(
            sum(lane.actions.values()) for lane in self.lanes
        )
        if scanned == 0:
            return 0.0
        reordered = sum(
            lane.actions.get("reordered", 0) for lane in self.lanes
        )
        return reordered / scanned

    def action_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for lane in self.lanes:
            for action, count in lane.actions.items():
                totals[action] = totals.get(action, 0) + count
        return totals

    # ------------------------------------------------------------------ #

    def deterministic_payload(self) -> dict:
        """Everything reproducible for ``(config, seed)`` — no wall clock."""
        return {
            "seed": self.config_seed,
            "lanes": [lane.deterministic_payload() for lane in self.lanes],
            "total_submitted": self.total_submitted,
            "total_included": self.total_included,
            "profit_total": round(self.profit_total, 9),
            "hit_rate": round(self.hit_rate, 9),
            "actions": dict(sorted(self.action_totals().items())),
            "violations": list(self.total_violations),
        }

    def deterministic_json(self) -> str:
        """Canonical JSON of the deterministic payload.

        Byte-identical across ``--jobs`` values, machines and re-runs —
        the soak test's equality check.
        """
        return json.dumps(
            self.deterministic_payload(), sort_keys=True, indent=2
        )

    def render(self) -> str:
        """Human-readable soak summary."""
        actions = self.action_totals()
        lines = [
            f"stream soak: {len(self.lanes)} lane(s) x "
            f"{self.lanes[0].batches if self.lanes else 0} batches "
            f"[{'OK' if self.ok else 'VIOLATIONS'}]",
            f"  submitted {self.total_submitted} tx, "
            f"included {self.total_included}, "
            f"backlog {sum(l.pending for l in self.lanes)}",
            f"  sustained {self.sustained_tx_per_second:,.0f} tx/s, "
            f"batch p50 {self.p50_batch_ms:.2f} ms, "
            f"p99 {self.p99_batch_ms:.2f} ms",
            f"  scanner: {dict(sorted(actions.items()))}, "
            f"hit rate {self.hit_rate:.1%}, "
            f"profit {self.profit_total:+.4f} ETH",
        ]
        for violation in self.total_violations:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


def run_stream(
    config: Optional[StreamConfig] = None,
    runner: Optional[TaskRunner] = None,
) -> StreamReport:
    """Run a bounded soak: every lane to completion, then aggregate.

    ``runner`` is the parallel fabric backend (``get_runner(jobs)``);
    the default serves lanes serially.  Lane seeds are spawned from
    ``config.seed``, so the deterministic payload is identical for any
    runner.
    """
    config = config or StreamConfig()
    runner = runner or get_runner(None)
    seeds = spawn_task_seeds(config.seed, config.lanes)
    tasks = [
        Task(
            fn=_run_lane,
            args=(config, lane),
            seed=seeds[lane],
            label=f"stream-lane-{lane}",
        )
        for lane in range(config.lanes)
    ]
    started = time.perf_counter()
    lanes = tuple(runner.map(tasks))
    elapsed = time.perf_counter() - started

    all_ms = [ms for lane in lanes for ms in lane.batch_wall_ms]
    served = sum(lane.included for lane in lanes)
    return StreamReport(
        config_seed=config.seed,
        lanes=lanes,
        elapsed_seconds=elapsed,
        sustained_tx_per_second=(served / elapsed) if elapsed > 0 else 0.0,
        p50_batch_ms=float(np.percentile(all_ms, 50)) if all_ms else 0.0,
        p99_batch_ms=float(np.percentile(all_ms, 99)) if all_ms else 0.0,
    )
