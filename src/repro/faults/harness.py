"""End-to-end seeded chaos scenarios over a full rollup deployment.

:class:`ChaosHarness` is a :class:`~repro.faults.deployment.Deployment`
config: a generated workload whose user submissions travel over a
latency/drop-modelled :class:`~repro.sim.SimNetwork` on the deployment's
clock, rollup rounds on the Bedrock interval, and a seeded
:class:`~repro.faults.plan.FaultPlan` on the same clock.  After every
round the deployment's invariant sweep runs; the resulting
:class:`ChaosReport` is fully deterministic — two runs with the same
scenario produce byte-identical ``to_json()`` output.

Two misbehaving operator types give the recovery paths real work:

* :class:`CorruptAggregator` periodically commits a forged post-state
  root (caught by verifiers -> slash, revert, requeue);
* :class:`FlakyAggregator` periodically dies mid-execution (collection
  requeued, round degrades gracefully).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import WorkloadConfig, _require
from ..crypto import hash_value
from ..errors import InvariantViolationError
from ..rollup.aggregator import AggregationResult, Aggregator
from ..rollup.verifier import Verifier
from ..sim.events import EventQueue
from ..sim.network import LatencyModel, SimNetwork
from ..telemetry import get_metrics
from ..workloads.generator import generate_workload
from .deployment import Deployment, DeploymentRound
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel import TaskRunner


class CorruptAggregator(Aggregator):
    """Commits a forged post-state root every ``every``-th batch."""

    def __init__(self, address: str, every: int = 3) -> None:
        super().__init__(address)
        self.every = max(1, every)
        self._produced = 0

    def process(self, pre_state, collected) -> AggregationResult:
        result = super().process(pre_state, collected)
        self._produced += 1
        if self._produced % self.every == 0:
            forged = dataclasses.replace(
                result.batch,
                post_state_root=hash_value(["forged-root", self._produced]),
            )
            return AggregationResult(
                batch=forged,
                trace=result.trace,
                original_order=result.original_order,
                executed_order=result.executed_order,
            )
        return result


class FlakyAggregator(Aggregator):
    """Raises mid-execution every ``every``-th call (simulated crash)."""

    def __init__(self, address: str, every: int = 4) -> None:
        super().__init__(address)
        self.every = max(1, every)
        self._calls = 0

    def process(self, pre_state, collected) -> AggregationResult:
        self._calls += 1
        if self._calls % self.every == 0:
            raise RuntimeError(f"{self.address} died mid-execution")
        return super().process(pre_state, collected)


@dataclass(frozen=True)
class ChaosScenario:
    """One seeded chaos configuration."""

    name: str
    seed: int = 0
    #: Workload shape.
    tx_count: int = 24
    num_users: int = 10
    #: Round execution.
    rounds: int = 10
    block_interval: float = 2.0
    collect_size: int = 6
    aggregator_count: int = 3
    verifier_count: int = 2
    challenge_period_blocks: int = 2
    #: Misbehaving operators (0 disables).
    corrupt_every: int = 0
    flaky_every: int = 0
    #: Network model.
    base_drop_rate: float = 0.0
    submission_spacing: float = 0.15
    #: Fault-plan knobs (used when ``plan`` is None).
    crashes: int = 2
    partitions: int = 1
    commit_failures: int = 1
    drop_bursts: int = 1
    stalls: int = 0
    plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        _require(self.rounds >= 1, "rounds must be positive")
        _require(self.block_interval > 0, "block_interval must be positive")
        _require(self.collect_size >= 1, "collect_size must be positive")
        _require(self.aggregator_count >= 1, "aggregator_count must be positive")
        _require(self.verifier_count >= 0, "verifier_count must be non-negative")
        _require(0.0 <= self.base_drop_rate < 1.0,
                 "base_drop_rate must be in [0, 1)")
        _require(self.submission_spacing >= 0,
                 "submission_spacing must be non-negative")
        for name in ("crashes", "partitions", "commit_failures",
                     "drop_bursts", "stalls", "corrupt_every", "flaky_every"):
            _require(getattr(self, name) >= 0,
                     f"{name} must be non-negative")
        _require(
            self.flaky_every == 0 or self.aggregator_count >= 2,
            "flaky_every makes aggregator 1 flaky: needs two aggregators",
        )

    def resolve_plan(
        self, aggregators: Sequence[str], verifiers: Sequence[str]
    ) -> FaultPlan:
        """The explicit plan, or a seeded one drawn from the knobs."""
        if self.plan is not None:
            return self.plan
        return FaultPlan.random(
            seed=self.seed + 0x5EED,
            horizon=self.rounds * self.block_interval,
            aggregators=tuple(aggregators),
            verifiers=tuple(verifiers),
            links=(("users", "mempool"),),
            crashes=self.crashes,
            partitions=self.partitions,
            commit_failures=self.commit_failures,
            drop_bursts=self.drop_bursts,
            stalls=self.stalls,
        )


@dataclass(frozen=True)
class RoundRecord:
    """Deterministic summary of one chaos round."""

    index: int
    time: float
    committed_batch_ids: Tuple[int, ...]
    finalized_batch_ids: Tuple[int, ...]
    reverted_batch_ids: Tuple[int, ...]
    challenges: Tuple[Tuple[str, int, str], ...]
    failures: Tuple[Tuple[str, str, int], ...]  # (aggregator, stage, requeued)
    commit_retries: int
    skipped_aggregators: Tuple[str, ...]
    mempool_pending: int
    invariants_ok: bool
    violations: Tuple[str, ...]
    #: The round hit a stalled mempool and left its pending transactions
    #: in place (distinct from an empty pool producing no batches).
    stalled: bool = False


@dataclass
class ChaosReport:
    """Everything one chaos run produced."""

    scenario: str
    seed: int
    rounds: List[RoundRecord] = field(default_factory=list)
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: ``(kind, target, started_at, recovered_at)`` per closed outage.
    recoveries: List[Tuple[str, str, float, float]] = field(default_factory=list)
    accepted_txs: int = 0
    included_txs: int = 0
    pending_txs: int = 0
    dropped_messages: int = 0
    requeued_total: int = 0
    reverted_total: int = 0
    commit_retry_total: int = 0
    challenge_total: int = 0

    @property
    def ok(self) -> bool:
        """Whether every round's invariant sweep passed."""
        return all(record.invariants_ok for record in self.rounds)

    @property
    def violations(self) -> Tuple[str, ...]:
        """Every invariant violation across all rounds."""
        return tuple(
            violation
            for record in self.rounds
            for violation in record.violations
        )

    @property
    def recovery_latencies(self) -> Tuple[float, ...]:
        """Length of each closed degraded period, in sim-time units."""
        return tuple(end - start for _, _, start, end in self.recoveries)

    def to_json(self) -> str:
        """Canonical JSON — byte-identical for identical seeded runs."""
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    def render(self) -> str:
        """Human-readable summary for the CLI."""
        lines = [
            f"chaos scenario {self.scenario!r} (seed {self.seed}): "
            f"{'OK' if self.ok else 'INVARIANT VIOLATIONS'}",
            f"  rounds={len(self.rounds)}  faults="
            + (
                ", ".join(
                    f"{kind}={count}"
                    for kind, count in sorted(self.fault_counts.items())
                )
                or "none"
            ),
            f"  txs: accepted={self.accepted_txs} included={self.included_txs} "
            f"pending={self.pending_txs} dropped_msgs={self.dropped_messages}",
            f"  recovery: requeued={self.requeued_total} "
            f"reverted={self.reverted_total} "
            f"commit_retries={self.commit_retry_total} "
            f"challenges={self.challenge_total}",
        ]
        if self.recovery_latencies:
            lines.append(
                "  outage latencies: "
                + ", ".join(f"{lat:.2f}" for lat in self.recovery_latencies)
            )
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


class ChaosHarness:
    """Drives one seeded chaos scenario end to end."""

    def __init__(self, scenario: ChaosScenario) -> None:
        self.scenario = scenario
        workload = generate_workload(
            WorkloadConfig(
                mempool_size=scenario.tx_count,
                num_users=scenario.num_users,
                num_ifus=1,
                min_ifu_involvement=2,
                seed=scenario.seed,
            )
        )
        clock = EventQueue()
        self.network = SimNetwork(
            clock,
            latency=LatencyModel(base=0.02, jitter=0.01),
            rng=np.random.default_rng(scenario.seed + 1),
            drop_rate=scenario.base_drop_rate,
        )
        self.network.register("users", lambda message: None)
        self.network.register("mempool", self._on_mempool_message)
        for index, tx in enumerate(workload.transactions):
            clock.schedule(
                index * scenario.submission_spacing,
                lambda tx=tx: self.network.send("users", "mempool", "submit-tx", tx),
                label="user-submit",
            )

        aggregators: List[Aggregator] = []
        for index in range(scenario.aggregator_count):
            address = f"agg-{index}"
            if index == 0 and scenario.corrupt_every:
                aggregator: Aggregator = CorruptAggregator(
                    address, every=scenario.corrupt_every
                )
            elif index == 1 and scenario.flaky_every:
                aggregator = FlakyAggregator(address, every=scenario.flaky_every)
            else:
                aggregator = Aggregator(address)
            aggregators.append(aggregator)
        verifiers = [
            Verifier(f"ver-{index}") for index in range(scenario.verifier_count)
        ]
        self.deployment = Deployment(
            workload.pre_state,
            batch_size=scenario.collect_size,
            challenge_period_blocks=scenario.challenge_period_blocks,
            aggregators=aggregators,
            verifiers=verifiers,
            funding=[(user, 1.0) for user in workload.users],
            plan=scenario.resolve_plan(
                aggregators=[a.address for a in aggregators],
                verifiers=[v.address for v in verifiers],
            ),
            clock=clock,
            network=self.network,
            block_interval=scenario.block_interval,
        )
        self.node = self.deployment.node
        self.checker = self.deployment.checker

    # ------------------------------------------------------------------ #

    def _on_mempool_message(self, message) -> None:
        if message.kind == "submit-tx":
            self.deployment.submit(message.payload)

    def _record(self, outcome: DeploymentRound) -> RoundRecord:
        report = outcome.report
        return RoundRecord(
            index=outcome.index,
            time=outcome.time,
            committed_batch_ids=outcome.committed,
            finalized_batch_ids=tuple(report.finalized_batch_ids),
            reverted_batch_ids=tuple(report.reverted_batch_ids),
            challenges=tuple(report.challenges),
            failures=tuple(
                (f.aggregator, f.stage, f.requeued) for f in report.failures
            ),
            commit_retries=len(report.commit_retries),
            skipped_aggregators=tuple(report.skipped_aggregators),
            mempool_pending=len(self.node.mempool),
            invariants_ok=outcome.sweep.ok,
            violations=outcome.sweep.violations,
            stalled=report.stalled,
        )

    def run(self, strict: bool = False) -> ChaosReport:
        """Drive the scenario to quiescence and assemble the report.

        After the last round the clock drains: late deliveries and
        recoveries still land.  With ``strict`` the first invariant
        violation raises :class:`~repro.errors.InvariantViolationError`
        after the run.
        """
        records = [
            self._record(outcome)
            for outcome in self.deployment.run(self.scenario.rounds)
        ]
        self.deployment.clock.run()
        injector = self.deployment.injector
        report = ChaosReport(
            scenario=self.scenario.name,
            seed=self.scenario.seed,
            rounds=records,
            fault_counts=injector.counts_by_kind(),
            recoveries=[
                (r.kind, r.target, r.started_at, r.recovered_at)
                for r in injector.recoveries
            ],
            accepted_txs=self.checker.accepted_count,
            included_txs=self.checker.included_surviving_count(),
            pending_txs=len(self.node.mempool),
            dropped_messages=len(self.network.dropped),
            requeued_total=sum(
                requeued for record in records for _, _, requeued in record.failures
            ),
            reverted_total=sum(
                len(record.reverted_batch_ids) for record in records
            ),
            commit_retry_total=sum(record.commit_retries for record in records),
            challenge_total=sum(len(record.challenges) for record in records),
        )
        self._publish(report)
        if strict and not report.ok:
            raise InvariantViolationError(
                f"scenario {self.scenario.name!r}: " + "; ".join(report.violations)
            )
        return report

    def _publish(self, report: ChaosReport) -> None:
        metrics = get_metrics()
        metrics.gauge("chaos.rounds", scenario=report.scenario).set(
            len(report.rounds)
        )
        metrics.gauge("chaos.requeued", scenario=report.scenario).set(
            report.requeued_total
        )
        metrics.gauge("chaos.reverted", scenario=report.scenario).set(
            report.reverted_total
        )
        metrics.counter(
            "chaos.invariant_violations", scenario=report.scenario
        ).inc(len(report.violations))


#: The seeded scenario matrix the CI chaos job runs at QUICK effort.
DEFAULT_MATRIX: Tuple[ChaosScenario, ...] = (
    ChaosScenario(
        name="crash-restart",
        seed=11,
        crashes=3,
        partitions=0,
        commit_failures=0,
        drop_bursts=0,
    ),
    ChaosScenario(
        name="partitions-drops",
        seed=23,
        crashes=0,
        partitions=2,
        commit_failures=0,
        drop_bursts=2,
        base_drop_rate=0.05,
    ),
    ChaosScenario(
        name="commit-failures",
        seed=37,
        crashes=0,
        partitions=0,
        commit_failures=3,
        drop_bursts=0,
        corrupt_every=2,
    ),
    ChaosScenario(
        name="mixed",
        seed=53,
        crashes=2,
        partitions=1,
        commit_failures=2,
        drop_bursts=1,
        stalls=1,
        corrupt_every=3,
        flaky_every=3,
        rounds=12,
    ),
)


def _run_scenario(scenario: ChaosScenario, strict: bool) -> ChaosReport:
    """One chaos scenario as a fabric task (module-level, picklable)."""
    return ChaosHarness(scenario).run(strict=strict)


def run_chaos(
    scenarios: Sequence[ChaosScenario] = DEFAULT_MATRIX,
    strict: bool = False,
    runner: Optional["TaskRunner"] = None,
    store=None,
) -> List[ChaosReport]:
    """Run every scenario; returns the per-scenario reports.

    Scenarios are independent (each seeds its own simulation), so they
    fan out over ``runner`` — serial by default — and reports come back
    in scenario order regardless of backend.

    With a :class:`~repro.store.ResultStore` (passed explicitly or
    already attached to ``runner``), scenario reports are cached in the
    ``chaos:`` namespace — fault-injected runs can share a cache
    directory with clean experiment runs without ever sharing entries.
    """
    from ..parallel import SerialRunner, Task

    runner = runner if runner is not None else SerialRunner()
    store = store if store is not None else getattr(runner, "store", None)
    previous_store = getattr(runner, "store", None)
    if store is not None:
        runner.store = store.namespaced("chaos")
    tasks = [
        Task(
            fn=_run_scenario,
            args=(scenario, strict),
            label=f"chaos[{scenario.name}]",
        )
        for scenario in scenarios
    ]
    try:
        return runner.map(tasks)
    finally:
        runner.store = previous_store
