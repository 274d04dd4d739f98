"""The end-to-end rollup node: L1 + mempool + aggregators + verifiers.

:class:`RollupNode` wires every substrate together and drives the full
workflow of Figure 1 / Figure 3: users submit through the ORSC into
Bedrock's private mempool; aggregators (some adversarial) collect and
execute; batches are committed on L1 with fraud proofs; verifiers
re-execute and challenge; unchallenged batches finalize after the
challenge window.

The node also carries the recovery semantics a production deployment
needs (see ``docs/faults.md``):

* a round never silently loses transactions — when execution or
  commitment fails mid-round, the collected transactions are re-injected
  into the mempool and the failure is recorded in the round report;
* batch commitment gets bounded retry with exponential backoff expressed
  in simulation time units;
* a batch whose fraud-proof challenge is upheld is rolled back: the L2
  state reverts to the batch's pre-state and its transactions return to
  the mempool;
* crashed aggregators/verifiers are skipped, so rounds degrade
  gracefully while part of the operator set is down.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

logger = logging.getLogger(__name__)

from ..chain import L1Chain, OptimisticRollupContract
from ..chain.orsc import ChallengeOutcome
from ..config import RollupConfig, eth_to_wei
from ..errors import RollupError
from ..telemetry import get_metrics
from .aggregator import AggregationResult, Aggregator
from .batch import Batch
from .fraud_proof import state_root
from .mempool import BedrockMempool
from .state import L2State
from .transaction import NFTTransaction
from .verifier import Verifier


class CommitFailure(RollupError):
    """A batch commitment attempt failed (injected or real)."""


@dataclass(frozen=True)
class RoundFailure:
    """One recovered mid-round failure: what broke and what was requeued."""

    aggregator: str
    stage: str  # "execute" or "commit"
    error: str
    attempts: int
    requeued: int
    backoff: float = 0.0


@dataclass(frozen=True)
class CommitRetry:
    """A commitment that succeeded only after retrying."""

    aggregator: str
    batch_id: int
    attempts: int
    backoff: float


@dataclass
class RoundReport:
    """Everything that happened in one rollup round."""

    results: List[AggregationResult] = field(default_factory=list)
    challenges: List[Tuple[str, int, str]] = field(default_factory=list)
    finalized_batch_ids: List[int] = field(default_factory=list)
    failures: List[RoundFailure] = field(default_factory=list)
    commit_retries: List[CommitRetry] = field(default_factory=list)
    reverted_batch_ids: List[int] = field(default_factory=list)
    skipped_aggregators: List[str] = field(default_factory=list)
    #: The round ended early because the mempool was stalled — pending
    #: transactions were *not* drained, as opposed to an empty pool.
    stalled: bool = False

    @property
    def batches(self) -> List[Batch]:
        """Batches committed this round, in aggregator order."""
        return [result.batch for result in self.results]

    @property
    def attacked(self) -> bool:
        """Whether any aggregator reordered its collection."""
        return any(result.reordered for result in self.results)

    @property
    def requeued_count(self) -> int:
        """Transactions returned to the mempool by failure recovery."""
        return sum(failure.requeued for failure in self.failures)


class RollupNode:
    """A complete in-process optimistic rollup deployment."""

    #: What :meth:`run_round` returns; a subclass that records more per
    #: round extends :class:`RoundReport`.
    report_type = RoundReport

    def __init__(
        self,
        l2_state: L2State,
        config: Optional[RollupConfig] = None,
        mempool: Optional[BedrockMempool] = None,
    ) -> None:
        self.config = config or RollupConfig()
        self.chain = L1Chain()
        self.contract = OptimisticRollupContract(self.chain, self.config)
        #: Any object honouring the BedrockMempool interface works here —
        #: the streaming pipeline injects a ShardedMempool.
        self.mempool = mempool if mempool is not None else BedrockMempool()
        self.l2_state = l2_state
        self.aggregators: List[Aggregator] = []
        self.verifiers: List[Verifier] = []
        #: Injected commit-failure budget: key is an aggregator address or
        #: None for "any aggregator"; value is how many upcoming commit
        #: attempts should fail.
        self._commit_faults: Dict[Optional[str], int] = {}

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #

    def fund_and_deposit(self, user: str, amount_eth: float) -> None:
        """Give a user L1 ETH and bridge it to L2 (Figure 1's first step)."""
        wei = eth_to_wei(amount_eth)
        self.chain.accounts.get_or_create(user)
        self.chain.accounts.credit(user, wei)
        self.contract.deposit(user, wei)
        self.l2_state.balances[user] = self.l2_state.balance(user) + amount_eth

    def add_aggregator(self, aggregator: Aggregator) -> None:
        """Register an aggregator, funding and posting its bond."""
        self.chain.accounts.get_or_create(aggregator.address)
        self.chain.accounts.credit(
            aggregator.address, self.config.aggregator_bond_wei
        )
        self.contract.register_aggregator(aggregator.address)
        self.aggregators.append(aggregator)

    def add_verifier(self, verifier: Verifier) -> None:
        """Register a verifier, funding and posting its bond."""
        self.chain.accounts.get_or_create(verifier.address)
        self.chain.accounts.credit(verifier.address, self.config.verifier_bond_wei)
        self.contract.register_verifier(verifier.address)
        self.verifiers.append(verifier)

    def submit(self, tx: NFTTransaction) -> str:
        """User-facing transaction submission into Bedrock's mempool."""
        return self.mempool.submit(tx)

    def aggregator_by_address(self, address: str) -> Aggregator:
        """Look up a registered aggregator by account."""
        for aggregator in self.aggregators:
            if aggregator.address == address:
                return aggregator
        raise RollupError(f"unknown aggregator {address!r}")

    def verifier_by_address(self, address: str) -> Verifier:
        """Look up a registered verifier by account."""
        for verifier in self.verifiers:
            if verifier.address == address:
                return verifier
        raise RollupError(f"unknown verifier {address!r}")

    # ------------------------------------------------------------------ #
    # Fault injection hooks
    # ------------------------------------------------------------------ #

    def inject_commit_failures(
        self, count: int = 1, aggregator: Optional[str] = None
    ) -> None:
        """Make the next ``count`` commit attempts fail.

        With ``aggregator`` set only that operator's attempts fail;
        otherwise any aggregator's next attempts are hit.  Consumed one
        attempt at a time, so an injected count below the retry budget is
        recovered transparently by the commit retry loop.
        """
        if count <= 0:
            raise RollupError("injected failure count must be positive")
        self._commit_faults[aggregator] = (
            self._commit_faults.get(aggregator, 0) + count
        )

    def _consume_commit_fault(self, aggregator: str) -> bool:
        for key in (aggregator, None):
            remaining = self._commit_faults.get(key, 0)
            if remaining > 0:
                self._commit_faults[key] = remaining - 1
                return True
        return False

    # ------------------------------------------------------------------ #
    # Round execution
    # ------------------------------------------------------------------ #

    def run_round(self, collect_per_aggregator: Optional[int] = None) -> RoundReport:
        """One full rollup round across every registered aggregator.

        Each live aggregator collects its fee-priority share from the
        mempool, executes (adversarial ones reorder first), commits the
        batch on L1, and the verifiers inspect it.  The L2 state advances
        batch by batch in commitment order.  Crashed aggregators are
        skipped; mid-round failures requeue their transactions (see the
        module docstring).
        """
        if not self.aggregators:
            raise RollupError("no aggregators registered")
        count = collect_per_aggregator or self.config.aggregator_mempool_size
        report = self.report_type()
        for aggregator in self.aggregators:
            if not aggregator.alive:
                report.skipped_aggregators.append(aggregator.address)
                continue
            if len(self.mempool) == 0:
                break
            if self.mempool.stalled:
                report.stalled = True
                break
            collected = self.mempool.collect(min(count, len(self.mempool)))
            admitted = self._admit(collected, report)
            if admitted:
                self._process_and_commit(aggregator, admitted, report)
        self.chain.seal_block()
        return report

    def _admit(
        self, collected: Tuple[NFTTransaction, ...], report: RoundReport
    ) -> Tuple[NFTTransaction, ...]:
        """The part of one collection this round executes: all of it.

        The hook a guarded node overrides to sanitise a collection; what
        it holds back it must return to the mempool itself.
        """
        return collected

    def _process_and_commit(
        self,
        aggregator: Aggregator,
        collected: Tuple[NFTTransaction, ...],
        report: RoundReport,
    ) -> bool:
        """Execute + commit one collection with full failure recovery.

        Returns True when a batch landed on L1.  On failure the collected
        transactions go back to the mempool and the L2 state is left
        exactly where it was — no half-advanced rounds.
        """
        pre_state = self.l2_state.copy()
        try:
            result = aggregator.process(pre_state, collected)
        except Exception as exc:  # recovery path: nothing may be lost
            self.mempool.requeue(collected)
            failure = RoundFailure(
                aggregator=aggregator.address,
                stage="execute",
                error=f"{type(exc).__name__}: {exc}",
                attempts=1,
                requeued=len(collected),
            )
            report.failures.append(failure)
            get_metrics().counter("node.round_failures", stage="execute").inc()
            logger.warning(
                "aggregator %s failed during execution (%s); %d txs requeued",
                aggregator.address, exc, len(collected),
            )
            return False

        commitment = None
        attempts = 0
        backoff_total = 0.0
        next_backoff = self.config.commit_backoff_base
        last_error = ""
        while commitment is None and attempts < self.config.commit_max_retries:
            attempts += 1
            try:
                if self._consume_commit_fault(aggregator.address):
                    raise CommitFailure(
                        f"injected commit failure for {aggregator.address}"
                    )
                commitment = self.contract.commit_batch(
                    aggregator.address,
                    result.batch.tx_root,
                    result.batch.post_state_root,
                )
            except Exception as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                backoff_total += next_backoff
                next_backoff *= 2
        if commitment is None:
            self.mempool.requeue(collected)
            failure = RoundFailure(
                aggregator=aggregator.address,
                stage="commit",
                error=last_error,
                attempts=attempts,
                requeued=len(collected),
                backoff=backoff_total,
            )
            report.failures.append(failure)
            get_metrics().counter("node.round_failures", stage="commit").inc()
            logger.warning(
                "aggregator %s exhausted %d commit attempts (%s); "
                "%d txs requeued",
                aggregator.address, attempts, last_error, len(collected),
            )
            return False
        if attempts > 1:
            report.commit_retries.append(
                CommitRetry(
                    aggregator=aggregator.address,
                    batch_id=commitment.batch_id,
                    attempts=attempts,
                    backoff=backoff_total,
                )
            )
            get_metrics().counter("node.commit_retries").inc(attempts - 1)

        self.l2_state = result.trace.final_state
        report.results.append(result)
        logger.debug(
            "batch %d committed by %s: %d txs%s",
            commitment.batch_id, aggregator.address, len(result.batch),
            " (reordered)" if result.reordered else "",
        )
        self._inspect(commitment.batch_id, result.batch, pre_state, report)
        return True

    def _inspect(
        self,
        batch_id: int,
        batch: Batch,
        pre_state: L2State,
        report: RoundReport,
    ) -> None:
        for verifier in self.verifiers:
            if not verifier.alive:
                continue
            inspection = verifier.inspect(batch, pre_state)
            if inspection.should_challenge:
                outcome = self.contract.challenge(
                    verifier.address, batch_id, inspection.recomputed_post_root
                )
                logger.warning(
                    "verifier %s challenged batch %d: %s",
                    verifier.address, batch_id, outcome.value,
                )
                report.challenges.append(
                    (verifier.address, batch_id, outcome.value)
                )
                if outcome is ChallengeOutcome.UPHELD:
                    self._revert_batch(batch_id, batch, pre_state, report)
                    break

    def _revert_batch(
        self,
        batch_id: int,
        batch: Batch,
        pre_state: L2State,
        report: RoundReport,
    ) -> None:
        """Roll back a successfully-challenged batch.

        The L2 state returns to the batch's pre-state and its transactions
        re-enter the mempool, so a fraudulent commitment costs the
        aggregator its bond but never loses user transactions.
        """
        self.l2_state = pre_state.copy()
        self.mempool.requeue(batch.transactions)
        report.reverted_batch_ids.append(batch_id)
        get_metrics().counter("node.batches_reverted").inc()
        logger.warning(
            "batch %d reverted; state rolled back and %d txs requeued",
            batch_id, len(batch.transactions),
        )

    def finalize_ready_batches(self) -> List[int]:
        """Finalize every pending batch whose challenge window has closed."""
        finalized = []
        for commitment in self.contract.batches:
            if (
                commitment.status.value == "pending"
                and not self.contract.in_challenge_window(commitment.batch_id)
            ):
                self.contract.finalize(commitment.batch_id)
                finalized.append(commitment.batch_id)
        return finalized

    def advance_challenge_window(self) -> None:
        """Seal enough empty L1 blocks to close all open windows."""
        self.chain.seal_blocks(self.config.challenge_period_blocks)

    def current_state_root(self) -> str:
        """Canonical root of the current L2 state."""
        return state_root(self.l2_state)
