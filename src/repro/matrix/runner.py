"""The strategies × defenses × fault-plans matrix runner.

One *cell* is a complete, isolated rollup deployment — a seeded
:class:`~repro.streaming.traffic.TrafficGenerator`, a
:class:`~repro.streaming.mempool.ShardedMempool`, one
:class:`~repro.matrix.defenses.DefendedAggregator` hosting the cell's
strategy behind the cell's defense, an honest verifier — driven for a
fixed number of rounds with the chaos harness's
:class:`~repro.faults.InvariantChecker` sweeping after every round and
an optional :class:`~repro.faults.FaultPlan` applied through the
:class:`~repro.faults.FaultInjector` handlers.  Cells fan out over the
``--jobs`` fabric as ordinary tasks, so a
:class:`~repro.store.ResultStore` memoizes each cell individually and a
killed grid resumes from its last completed cell.

Determinism contract (same as :mod:`repro.streaming.pipeline`): every
field of :meth:`CellResult.deterministic_payload` is a pure function of
``(config, cell seed)``.  All cells consume the *identical* traffic
stream (seeded from ``config.seed``, not the cell seed) so leaderboard
rows are comparable: the only thing that varies across a row is the
adversary and the defense, never the victims.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import RollupConfig, _require
from ..crypto import hash_value
from ..errors import ReproError
from ..faults.injector import ChaosTargets, FaultInjector
from ..faults.invariants import InvariantChecker
from ..faults.plan import FaultEvent, FaultKind, FaultPlan
from ..parallel import Task, TaskRunner, get_runner, spawn_task_seeds
from ..rollup.node import RollupNode
from ..rollup.state import ExecutionMode
from ..rollup.verifier import Verifier
from ..sim.events import EventQueue
from ..store import ResultStore
from ..strategies.base import HonestStrategy
from ..strategies.registry import STRATEGIES, StrategyContext
from ..streaming.mempool import ShardedMempool
from ..streaming.traffic import StreamTrafficConfig, TrafficGenerator
from ..telemetry import get_metrics, span
from .defenses import DEFENSES, DefendedAggregator

#: Fault plans a matrix cell may run under ("none" = fault-free).
FAULT_PLAN_NAMES: Tuple[str, ...] = (
    "none",
    "commit-failure",
    "mempool-stall",
    "aggregator-crash",
)

_AGGREGATOR_ADDRESS = "matrix-agg"


def build_fault_plan(name: str, rounds: int) -> Optional[FaultPlan]:
    """The named seeded fault schedule, scaled to the cell's rounds.

    Every plan is recoverable within the cell: commit failures stay
    below the retry budget, stalls resume, crashes restart — the
    invariant checker must stay green through all of them.
    """
    if name == "none":
        return None
    mid = max(1, rounds // 2)
    later = min(mid + 1, max(rounds - 1, 1))
    if name == "commit-failure":
        return FaultPlan(events=(
            FaultEvent(
                time=float(mid), kind=FaultKind.COMMIT_FAILURE,
                target=_AGGREGATOR_ADDRESS, value=1,
            ),
        ))
    if name == "mempool-stall":
        return FaultPlan(events=(
            FaultEvent(time=float(mid), kind=FaultKind.MEMPOOL_STALL),
            FaultEvent(time=float(later), kind=FaultKind.MEMPOOL_RESUME),
        ))
    if name == "aggregator-crash":
        return FaultPlan(events=(
            FaultEvent(
                time=float(mid), kind=FaultKind.AGGREGATOR_CRASH,
                target=_AGGREGATOR_ADDRESS,
            ),
            FaultEvent(
                time=float(later), kind=FaultKind.AGGREGATOR_RESTART,
                target=_AGGREGATOR_ADDRESS,
            ),
        ))
    known = ", ".join(FAULT_PLAN_NAMES)
    raise ReproError(f"unknown fault plan {name!r} (known: {known})")


@dataclass(frozen=True)
class MatrixConfig:
    """One strategies × defenses × fault-plans grid."""

    strategies: Tuple[str, ...] = tuple(STRATEGIES.names())
    defenses: Tuple[str, ...] = tuple(DEFENSES.names())
    #: Fault plans crossed against ``fault_strategy`` under the "none"
    #: defense (beyond the implicit fault-free run of every cell).
    fault_plans: Tuple[str, ...] = (
        "commit-failure", "mempool-stall", "aggregator-crash",
    )
    fault_strategy: str = "revert-spam"
    rounds: int = 3
    batch_size: int = 8
    submit_per_batch: int = 10
    shards: int = 2
    num_users: int = 48
    num_ifus: int = 2
    max_supply: int = 256
    seed: int = 0
    #: Effort preset name handed to strategy factories ("quick"/"full").
    preset: str = "quick"

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(self, "defenses", tuple(self.defenses))
        object.__setattr__(self, "fault_plans", tuple(self.fault_plans))
        _require(len(self.strategies) >= 1, "need at least one strategy")
        _require(len(self.defenses) >= 1, "need at least one defense")
        _require(self.rounds >= 1, "rounds must be positive")
        _require(self.batch_size >= 1, "batch_size must be positive")
        _require(self.submit_per_batch >= 1,
                 "submit_per_batch must be positive")
        _require(self.shards >= 1, "shards must be at least 1")
        _require(self.num_users >= 2, "need at least two users")
        for name in self.strategies:
            _require(name in STRATEGIES, f"unknown strategy {name!r}")
        for name in self.defenses:
            _require(name in DEFENSES, f"unknown defense {name!r}")
        for plan in self.fault_plans:
            _require(plan in FAULT_PLAN_NAMES,
                     f"unknown fault plan {plan!r}")
        if self.fault_plans:
            _require(
                self.fault_strategy in self.strategies,
                "fault_strategy must be one of the grid's strategies",
            )

    def cells(self) -> Tuple[Tuple[str, str, str], ...]:
        """Every (strategy, defense, fault_plan) cell, in grid order."""
        grid = [
            (strategy, defense, "none")
            for strategy in self.strategies
            for defense in self.defenses
        ]
        grid.extend(
            (self.fault_strategy, "none", plan)
            for plan in self.fault_plans
            if plan != "none"
        )
        return tuple(grid)

    def traffic_config(self) -> StreamTrafficConfig:
        return StreamTrafficConfig(
            num_users=self.num_users,
            num_ifus=self.num_ifus,
            max_supply=self.max_supply,
            seed=self.seed,
        )


@dataclass(frozen=True)
class CellResult:
    """Everything one (strategy, defense, fault plan) cell produced."""

    strategy: str
    defense: str
    fault_plan: str
    seed: int
    rounds: int
    submitted: int
    included: int
    pending: int
    batches: int
    #: Wealth delta of the strategy's beneficiaries over the cell.
    wealth_delta_eth: float
    #: The same beneficiaries' wealth delta in an honest counterfactual
    #: of this cell (same traffic, same defense, honest ordering) — the
    #: organic drift an attack must be measured against.
    baseline_wealth_delta_eth: float
    #: ``wealth_delta - baseline``: what the attack itself moved.
    attack_lift_eth: float
    #: Total fees of every adversary-inserted tx included in a batch
    #: (the modeled L1 inclusion cost of the insertions).
    adversary_fees_eth: float
    #: Subset of the above: fees of revert-marked losers that were
    #: included but did not execute — the price of spamming priority.
    revert_fees_eth: float
    #: ``attack_lift - adversary_fees``: what the strategy kept.
    net_profit_eth: float
    inserted_attempted: int
    inserted_landed: int
    revert_marked_landed: int
    reverts: int
    detections: int
    rounds_proposed: int
    rounds_attacked: int
    actions_rejected: int
    commit_retries: int
    stalled_rounds: int
    faults_applied: Tuple[str, ...]
    violations: Tuple[str, ...]
    state_root: str
    order_digest: str

    @property
    def detection_rate(self) -> float:
        """Flagged fraction of the rounds the strategy proposed a change."""
        if self.rounds_proposed == 0:
            return 0.0
        return self.detections / self.rounds_proposed

    @property
    def revert_rate(self) -> float:
        """Reverted fraction of the revert-marked txs that landed."""
        if self.revert_marked_landed == 0:
            return 0.0
        return self.reverts / self.revert_marked_landed

    def deterministic_payload(self) -> dict:
        """JSON-able view; floats rounded, fully deterministic."""
        return {
            "strategy": self.strategy,
            "defense": self.defense,
            "fault_plan": self.fault_plan,
            "seed": self.seed,
            "rounds": self.rounds,
            "submitted": self.submitted,
            "included": self.included,
            "pending": self.pending,
            "batches": self.batches,
            "wealth_delta_eth": round(self.wealth_delta_eth, 9),
            "baseline_wealth_delta_eth": round(
                self.baseline_wealth_delta_eth, 9
            ),
            "attack_lift_eth": round(self.attack_lift_eth, 9),
            "adversary_fees_eth": round(self.adversary_fees_eth, 9),
            "revert_fees_eth": round(self.revert_fees_eth, 9),
            "net_profit_eth": round(self.net_profit_eth, 9),
            "inserted_attempted": self.inserted_attempted,
            "inserted_landed": self.inserted_landed,
            "revert_marked_landed": self.revert_marked_landed,
            "reverts": self.reverts,
            "detections": self.detections,
            "rounds_proposed": self.rounds_proposed,
            "rounds_attacked": self.rounds_attacked,
            "actions_rejected": self.actions_rejected,
            "detection_rate": round(self.detection_rate, 9),
            "revert_rate": round(self.revert_rate, 9),
            "commit_retries": self.commit_retries,
            "stalled_rounds": self.stalled_rounds,
            "faults_applied": list(self.faults_applied),
            "violations": list(self.violations),
            "state_root": self.state_root,
            "order_digest": self.order_digest,
        }


def _honest_baseline_delta(
    config: MatrixConfig,
    defense_name: str,
    addresses: Tuple[str, ...],
) -> float:
    """Wealth delta of ``addresses`` in an honest run of this cell.

    Same traffic stream, same defense, same round schedule — but the
    aggregator hosts :class:`HonestStrategy`, so the delta is the purely
    organic drift of those accounts (IFUs trade on their own; adversary
    accounts sit idle).  Subtracting it isolates the attack's own lift.
    """
    if not addresses:
        return 0.0
    traffic = TrafficGenerator(config.traffic_config(), seed=config.seed)
    mempool = ShardedMempool(shards=config.shards)
    cell_state = traffic.pre_state.copy()
    cell_state.mode = ExecutionMode.STRICT
    node = RollupNode(
        l2_state=cell_state,
        config=RollupConfig(
            aggregator_mempool_size=config.batch_size,
            challenge_period_blocks=2,
        ),
        mempool=mempool,
    )
    node.add_aggregator(
        DefendedAggregator(
            _AGGREGATOR_ADDRESS,
            HonestStrategy(),
            DEFENSES.create(defense_name),
            backlog=mempool.pending,
        )
    )
    node.add_verifier(Verifier("matrix-ver"))
    before = sum(node.l2_state.wealth(address) for address in addresses)
    for _ in range(config.rounds):
        for tx in traffic.next_batch(config.submit_per_batch):
            node.submit(tx)
        node.run_round(config.batch_size)
        node.finalize_ready_batches()
    after = sum(node.l2_state.wealth(address) for address in addresses)
    return after - before


def _run_cell(
    config: MatrixConfig,
    strategy_name: str,
    defense_name: str,
    fault_plan_name: str,
    seed: Optional[int] = None,
) -> CellResult:
    """Drive one isolated deployment for ``config.rounds`` rounds.

    Module-level (and canonically-encodable arguments) so the process
    backend can pickle it and the result store can memoize it per cell.
    """
    cell_seed = config.seed if seed is None else int(seed)
    with span(
        "matrix.cell",
        strategy=strategy_name,
        defense=defense_name,
        fault_plan=fault_plan_name,
    ):
        # All cells share one traffic stream: seeded from config.seed so
        # leaderboard rows face identical victims.  The cell seed only
        # parameterizes the strategy (e.g. its DQN training).
        traffic = TrafficGenerator(config.traffic_config(), seed=config.seed)
        mempool = ShardedMempool(shards=config.shards)
        # STRICT execution, exactly like the streaming lanes: fee-
        # priority collection can break generation order, and a strict
        # sequencer records infeasible transactions as skipped — which
        # is also what makes revert-spam losers *revert*.
        cell_state = traffic.pre_state.copy()
        cell_state.mode = ExecutionMode.STRICT
        node = RollupNode(
            l2_state=cell_state,
            config=RollupConfig(
                aggregator_mempool_size=config.batch_size,
                challenge_period_blocks=2,
            ),
            mempool=mempool,
        )
        strategy = STRATEGIES.create(
            strategy_name,
            StrategyContext(
                ifus=traffic.ifus,
                seed=cell_seed,
                preset=config.preset,
                initial_price=cell_state.unit_price,
            ),
        )
        defense = DEFENSES.create(defense_name)
        aggregator = DefendedAggregator(
            _AGGREGATOR_ADDRESS, strategy, defense, backlog=mempool.pending
        )
        node.add_aggregator(aggregator)
        node.add_verifier(Verifier("matrix-ver"))
        # Fund the strategy's accounts *before* the invariant checker
        # snapshots its conservation baselines.
        for account in strategy.accounts():
            if account.balance_eth > 0:
                node.fund_and_deposit(account.address, account.balance_eth)
        checker = InvariantChecker(node)
        injector = FaultInjector(
            EventQueue(),
            ChaosTargets(
                mempool=mempool,
                aggregators={aggregator.address: aggregator},
                inject_commit_failures=node.inject_commit_failures,
            ),
        )
        plan = build_fault_plan(fault_plan_name, config.rounds)
        events_by_round: Dict[int, List[FaultEvent]] = {}
        if plan is not None:
            for event in plan.events:
                events_by_round.setdefault(int(event.time), []).append(event)

        beneficiaries = strategy.beneficiaries()
        wealth_before = sum(
            node.l2_state.wealth(address) for address in beneficiaries
        )
        violations: List[str] = []
        committed_orders: List[Tuple[str, ...]] = []
        inserted_landed: set = set()
        marked_hashes: set = set()
        marked_fees: Dict[str, float] = {}
        adversary_fees = 0.0
        reverts = 0
        revert_fees = 0.0
        revert_marked_landed = 0
        stalled_rounds = 0
        commit_retries = 0

        for round_index in range(config.rounds):
            for event in events_by_round.get(round_index, ()):
                injector.apply(event)
            for tx in traffic.next_batch(config.submit_per_batch):
                checker.note_accepted(node.submit(tx))
            report = node.run_round(config.batch_size)
            if report.stalled:
                stalled_rounds += 1
            commit_retries += len(report.commit_retries)
            action = aggregator.last_action
            if action is not None:
                for mark in action.revert_marked:
                    marked_hashes.add(mark)
                for tx in action.inserted:
                    marked_fees[tx.tx_hash] = tx.total_fee
            for result in report.results:
                collected_hashes = {
                    tx.tx_hash for tx in result.original_order
                }
                for tx in result.batch.transactions:
                    if (
                        tx.tx_hash not in collected_hashes
                        and tx.tx_hash not in inserted_landed
                    ):
                        # Adversary-authored insertion landing on chain:
                        # legitimize it for the conjured-tx invariant and
                        # charge its inclusion fee to the adversary.
                        inserted_landed.add(tx.tx_hash)
                        checker.note_accepted(tx.tx_hash)
                        adversary_fees += tx.total_fee
                for step in result.trace.steps:
                    tx_hash = step.tx.tx_hash
                    if tx_hash in marked_hashes:
                        revert_marked_landed += 1
                        if not step.executed:
                            reverts += 1
                            revert_fees += marked_fees.get(
                                tx_hash, step.tx.total_fee
                            )
                committed_orders.append(
                    tuple(tx.tx_hash for tx in result.batch.transactions)
                )
            checker.on_report(report)
            node.finalize_ready_batches()
            sweep = checker.check(round_index)
            for violation in sweep.violations:
                violations.append(f"round {round_index}: {violation}")

        wealth_after = sum(
            node.l2_state.wealth(address) for address in beneficiaries
        )
        wealth_delta = wealth_after - wealth_before
        baseline_delta = _honest_baseline_delta(
            config, defense_name, beneficiaries
        )
        attack_lift = wealth_delta - baseline_delta
        get_metrics().counter(
            "matrix.cells_completed", strategy=strategy_name,
            defense=defense_name,
        ).inc()
        return CellResult(
            strategy=strategy_name,
            defense=defense_name,
            fault_plan=fault_plan_name,
            seed=cell_seed,
            rounds=config.rounds,
            submitted=traffic.generated,
            included=checker.included_surviving_count(),
            pending=len(mempool),
            batches=len(committed_orders),
            wealth_delta_eth=wealth_delta,
            baseline_wealth_delta_eth=baseline_delta,
            attack_lift_eth=attack_lift,
            adversary_fees_eth=adversary_fees,
            revert_fees_eth=revert_fees,
            net_profit_eth=attack_lift - adversary_fees,
            inserted_attempted=aggregator.inserted_total,
            inserted_landed=len(inserted_landed),
            revert_marked_landed=revert_marked_landed,
            reverts=reverts,
            detections=aggregator.detections,
            rounds_proposed=aggregator.rounds_proposed,
            rounds_attacked=aggregator.rounds_attacked,
            actions_rejected=aggregator.actions_rejected,
            commit_retries=commit_retries,
            stalled_rounds=stalled_rounds,
            faults_applied=tuple(
                description for _, description in injector.applied
            ),
            violations=tuple(violations),
            state_root=node.current_state_root(),
            order_digest=hash_value(
                [list(order) for order in committed_orders]
            ),
        )


@dataclass(frozen=True)
class MatrixReport:
    """Aggregate of every cell: the leaderboard."""

    config: MatrixConfig
    cells: Tuple[CellResult, ...]

    @property
    def ok(self) -> bool:
        """Zero invariant violations across every cell."""
        return not self.total_violations

    @property
    def total_violations(self) -> Tuple[str, ...]:
        return tuple(
            f"{cell.strategy}/{cell.defense}/{cell.fault_plan}: {violation}"
            for cell in self.cells
            for violation in cell.violations
        )

    def leaderboard(self) -> Tuple[CellResult, ...]:
        """Cells ranked by net profit (ties broken by grid names)."""
        return tuple(
            sorted(
                self.cells,
                key=lambda cell: (
                    -round(cell.net_profit_eth, 9),
                    cell.strategy,
                    cell.defense,
                    cell.fault_plan,
                ),
            )
        )

    def deterministic_payload(self) -> dict:
        """Everything reproducible for ``(config, seed)`` — no wall clock."""
        return {
            "config": dataclasses.asdict(self.config),
            "cells": [cell.deterministic_payload() for cell in self.cells],
            "leaderboard": [
                {
                    "strategy": cell.strategy,
                    "defense": cell.defense,
                    "fault_plan": cell.fault_plan,
                    "net_profit_eth": round(cell.net_profit_eth, 9),
                    "detection_rate": round(cell.detection_rate, 9),
                    "revert_rate": round(cell.revert_rate, 9),
                }
                for cell in self.leaderboard()
            ],
            "violations": list(self.total_violations),
        }

    def deterministic_json(self) -> str:
        """Canonical JSON — byte-identical across ``--jobs`` and reruns."""
        return json.dumps(
            self.deterministic_payload(), sort_keys=True, indent=2
        )

    def render(self) -> str:
        """The human-readable leaderboard table."""
        lines = [
            f"strategy x defense matrix: {len(self.cells)} cells, "
            f"{self.config.rounds} rounds each "
            f"[{'OK' if self.ok else 'VIOLATIONS'}]",
            f"  {'strategy':<20} {'defense':<12} {'faults':<17} "
            f"{'profit':>10} {'fees':>8} {'detect':>7} {'revert':>7}",
        ]
        for cell in self.leaderboard():
            lines.append(
                f"  {cell.strategy:<20} {cell.defense:<12} "
                f"{cell.fault_plan:<17} "
                f"{cell.net_profit_eth:>+10.4f} "
                f"{cell.adversary_fees_eth:>8.3f} "
                f"{cell.detection_rate:>6.0%} "
                f"{cell.revert_rate:>6.0%}"
            )
        for violation in self.total_violations:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


def run_matrix(
    config: Optional[MatrixConfig] = None,
    runner: Optional[TaskRunner] = None,
    store: Optional[ResultStore] = None,
) -> MatrixReport:
    """Run every cell of the grid and aggregate the leaderboard.

    ``runner`` is the parallel fabric backend (``get_runner(jobs)``);
    cells are independent tasks, so the report is byte-identical for
    any jobs value.  With a ``store`` (or a runner already carrying
    one) each cell is memoized individually.
    """
    config = config or MatrixConfig()
    runner = runner or get_runner(None)
    cells = config.cells()
    seeds = spawn_task_seeds(config.seed, len(cells))
    tasks = [
        Task(
            fn=_run_cell,
            args=(config, strategy, defense, plan),
            seed=seeds[index],
            label=f"matrix-{strategy}-{defense}-{plan}",
        )
        for index, (strategy, defense, plan) in enumerate(cells)
    ]
    previous_store = getattr(runner, "store", None)
    if store is not None:
        runner.store = store
    try:
        with span("matrix.run", cells=len(tasks)):
            results = tuple(runner.map(tasks))
    finally:
        runner.store = previous_store
    return MatrixReport(config=config, cells=results)


# --------------------------------------------------------------------- #
# Experiment-registry adapter (uniform (preset, seed, runner) interface)
# --------------------------------------------------------------------- #


def matrix_config_for(
    preset_name: str,
    seed: int = 0,
    strategies: Optional[Tuple[str, ...]] = None,
    defenses: Optional[Tuple[str, ...]] = None,
    fault_plans: Optional[Tuple[str, ...]] = None,
) -> MatrixConfig:
    """The grid a given effort preset runs (overridably)."""
    base: Dict[str, object] = dict(seed=seed, preset=preset_name)
    if preset_name == "full":
        base.update(rounds=5, batch_size=10, submit_per_batch=14)
    if strategies is not None:
        base["strategies"] = tuple(strategies)
    if defenses is not None:
        base["defenses"] = tuple(defenses)
    if fault_plans is not None:
        base["fault_plans"] = tuple(fault_plans)
    if "strategies" in base:
        chosen = base["strategies"]
        default_fault = MatrixConfig.__dataclass_fields__[
            "fault_strategy"
        ].default
        if default_fault not in chosen:
            base["fault_strategy"] = chosen[0]
    return MatrixConfig(**base)  # type: ignore[arg-type]


def run_matrix_experiment(preset, seed: int, runner) -> MatrixReport:
    """Registry entry point: ``preset`` is an EffortPreset."""
    return run_matrix(
        config=matrix_config_for(preset.name, seed=seed), runner=runner
    )


def render_matrix(report: MatrixReport) -> str:
    return report.render()


def matrix_to_json(report: MatrixReport) -> dict:
    return report.deterministic_payload()
