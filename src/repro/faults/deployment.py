"""One rollup deployment, driven round by round.

:class:`Deployment` is the one place a :class:`~repro.rollup.RollupNode`
is assembled and its rounds are driven.  Stream lanes, strategy-matrix
cells (and their honest baselines) and chaos scenarios are configs of
it: each supplies its mempool, aggregators, verifiers, funded accounts,
per-round arrivals and an optional :class:`~repro.faults.plan.FaultPlan`,
then reads the :class:`DeploymentRound` records :meth:`Deployment.run`
yields.

The node always executes ``STRICT``.  Fee-priority collection breaks
generation order across batch boundaries, so a transfer can surface
before the mint that funds its sender; ``BATCH`` netting would execute
it and leave negative net inventory past batch end.  A strict node
records it as skipped instead — the honest-deployment semantic the
invariant checker assumes, and what makes revert-spam losers revert.

Faults (and, in chaos scenarios, network deliveries) are events on one
:class:`~repro.sim.EventQueue` clock.  Round ``i`` runs at time
``(i + 1) * block_interval``, after every event due strictly before
that time.  The one tie rule: an event due at exactly a round's time
fires after that round.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Set, Tuple

from ..config import RollupConfig
from ..rollup.aggregator import Aggregator
from ..rollup.mempool import BedrockMempool
from ..rollup.node import RollupNode, RoundReport
from ..rollup.state import ExecutionMode, L2State
from ..rollup.transaction import NFTTransaction
from ..rollup.verifier import Verifier
from ..sim.events import EventQueue
from ..sim.network import SimNetwork
from .injector import ChaosTargets, FaultInjector
from .invariants import InvariantChecker, InvariantReport
from .plan import FaultPlan


@dataclass(frozen=True)
class DeploymentRound:
    """What one round of a :class:`Deployment` did."""

    index: int
    #: Clock time the round ran at.
    time: float
    report: RoundReport
    #: Batch ids the contract assigned to this round's commitments.
    committed: Tuple[int, ...]
    #: Adversary-inserted transactions that landed for the first time.
    inserted: Tuple[NFTTransaction, ...]
    sweep: InvariantReport
    #: Wall-clock milliseconds of ``RollupNode.run_round`` alone.
    wall_ms: float


class Deployment:
    """A strict rollup node, its invariant checker and its fault clock.

    The node is built once: the copied pre-state, then the aggregators
    and verifiers (bonds posted), then the ``funding`` deposits.  Only
    after funding is the :class:`InvariantChecker` built, so its
    conservation baselines include every deposit.
    """

    def __init__(
        self,
        pre_state: L2State,
        *,
        batch_size: int,
        aggregators: Sequence[Aggregator],
        verifiers: Sequence[Verifier],
        mempool: Optional[BedrockMempool] = None,
        funding: Iterable[Tuple[str, float]] = (),
        challenge_period_blocks: int = 2,
        arrivals: Optional[Callable[[], Iterable[NFTTransaction]]] = None,
        plan: Optional[FaultPlan] = None,
        clock: Optional[EventQueue] = None,
        network: Optional[SimNetwork] = None,
        block_interval: float = 1.0,
    ) -> None:
        state = pre_state.copy()
        state.mode = ExecutionMode.STRICT
        self.node = RollupNode(
            l2_state=state,
            config=RollupConfig(
                aggregator_mempool_size=batch_size,
                challenge_period_blocks=challenge_period_blocks,
            ),
            mempool=mempool,
        )
        for aggregator in aggregators:
            self.node.add_aggregator(aggregator)
        for verifier in verifiers:
            self.node.add_verifier(verifier)
        for address, amount_eth in funding:
            self.node.fund_and_deposit(address, amount_eth)
        self.checker = InvariantChecker(self.node)
        self.batch_size = batch_size
        self.block_interval = block_interval
        self.arrivals = arrivals
        self.clock = clock if clock is not None else EventQueue()
        self.injector = FaultInjector(
            self.clock,
            ChaosTargets(
                network=network,
                mempool=self.node.mempool,
                aggregators={a.address: a for a in self.node.aggregators},
                verifiers={v.address: v for v in self.node.verifiers},
                inject_commit_failures=self.node.inject_commit_failures,
            ),
        )
        if plan is not None:
            self.injector.install(plan)
        self._landed_insertions: Set[str] = set()

    def submit(self, tx: NFTTransaction) -> str:
        """Submit one arrival and note the mempool accepted it."""
        tx_hash = self.node.submit(tx)
        self.checker.note_accepted(tx_hash)
        return tx_hash

    def run(self, rounds: int) -> Iterator[DeploymentRound]:
        """Drive ``rounds`` rounds, yielding one record after each.

        A round fires the clock's due events, submits the arrivals, runs
        the node, notes landed insertions as accepted, then ingests the
        report, finalizes closed windows and sweeps the invariants.
        """
        node, checker = self.node, self.checker
        for index in range(rounds):
            self.clock.run_before((index + 1) * self.block_interval)
            if self.arrivals is not None:
                for tx in self.arrivals():
                    self.submit(tx)
            started = time.perf_counter()
            report = node.run_round(self.batch_size)
            wall_ms = (time.perf_counter() - started) * 1000.0
            inserted = self._note_insertions(report)
            committed = checker.on_report(report)
            report.finalized_batch_ids = node.finalize_ready_batches()
            yield DeploymentRound(
                index=index,
                time=self.clock.now,
                report=report,
                committed=committed,
                inserted=inserted,
                sweep=checker.check(index),
                wall_ms=wall_ms,
            )

    def _note_insertions(
        self, report: RoundReport
    ) -> Tuple[NFTTransaction, ...]:
        """Accept the batch transactions no collection supplied.

        An adversary-authored insertion that lands on chain never passed
        through the mempool; noting it keeps the conjured-transaction
        invariant about the mempool, not the strategy.
        """
        landed = []
        for result in report.results:
            collected = {tx.tx_hash for tx in result.original_order}
            for tx in result.batch.transactions:
                if (
                    tx.tx_hash not in collected
                    and tx.tx_hash not in self._landed_insertions
                ):
                    self._landed_insertions.add(tx.tx_hash)
                    self.checker.note_accepted(tx.tx_hash)
                    landed.append(tx)
        return tuple(landed)
