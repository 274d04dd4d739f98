"""Rollup aggregators: honest and adversarial.

Honest aggregators execute their collected transactions in the fee-
priority order the mempool handed them (Section IV-B: "the aggregators
collect the transactions and are supposed to execute them in order of
their base and priority fees").  The adversarial aggregator hosts a
*strategy* plug-in (see :mod:`repro.strategies`): it builds a
:class:`~repro.strategies.base.MempoolView` of its collection, asks the
strategy for a :class:`~repro.strategies.base.StrategyAction`, and
verifies the action against its declared capabilities before executing.
An invalid action degrades the round to the honest order.  A bare
permute-only *reorderer* callable plugs in through
:class:`~repro.strategies.base.ReordererStrategy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..errors import ReproError
from ..strategies.base import (
    BaseStrategy,
    MempoolView,
    StrategyAction,
    validate_action,
)
from ..telemetry import get_metrics, span
from .batch import Batch, build_batch
from .ovm import OVM, ReplayTrace
from .state import L2State
from .transaction import NFTTransaction

__all__ = [
    "AggregationResult",
    "Aggregator",
    "AdversarialAggregator",
]


@dataclass
class AggregationResult:
    """What one aggregator produced in a round."""

    batch: Batch
    trace: ReplayTrace
    original_order: Tuple[NFTTransaction, ...]
    executed_order: Tuple[NFTTransaction, ...]

    @property
    def reordered(self) -> bool:
        """Whether the executed order differs from the collected order."""
        return self.original_order != self.executed_order


class Aggregator:
    """An honest rollup operator."""

    def __init__(self, address: str, ovm: Optional[OVM] = None) -> None:
        self.address = address
        self.ovm = ovm or OVM()
        #: Liveness flag the fault-injection layer toggles; a crashed
        #: aggregator is skipped by the node until restarted.
        self.alive = True
        self.crash_count = 0

    def crash(self) -> None:
        """Mark the aggregator as down (crash fault)."""
        if self.alive:
            self.alive = False
            self.crash_count += 1
            get_metrics().counter(
                "aggregator.crashes", aggregator=self.address
            ).inc()

    def restart(self) -> None:
        """Bring a crashed aggregator back into rotation."""
        self.alive = True

    def process(
        self, pre_state: L2State, collected: Sequence[NFTTransaction]
    ) -> AggregationResult:
        """Execute the collected transactions and seal a batch."""
        with span(
            "aggregator.process", aggregator=self.address, n_txs=len(collected)
        ) as current:
            order = self.order_transactions(pre_state, collected)
            batch, trace = build_batch(self.address, pre_state, order, self.ovm)
            result = AggregationResult(
                batch=batch,
                trace=trace,
                original_order=tuple(collected),
                executed_order=tuple(order),
            )
            current.add(reordered=result.reordered)
        metrics = get_metrics()
        metrics.counter("aggregator.batches").inc()
        if result.reordered:
            metrics.counter("aggregator.reordered_batches").inc()
        return result

    def order_transactions(
        self, pre_state: L2State, collected: Sequence[NFTTransaction]
    ) -> Sequence[NFTTransaction]:
        """Honest policy: keep the mempool's fee-priority order."""
        return tuple(collected)


class AdversarialAggregator(Aggregator):
    """``A_P`` — an aggregator hosting an adversary strategy plug-in.

    Parameters
    ----------
    address:
        The aggregator's account.
    strategy:
        A :class:`~repro.strategies.base.BaseStrategy` (or anything
        structurally compatible).  The shipped plug-ins live in
        :mod:`repro.strategies`; the PAROLE reference is
        :meth:`repro.core.parole.ParoleAttack.as_strategy`.
    """

    def __init__(
        self,
        address: str,
        ovm: Optional[OVM] = None,
        *,
        strategy: Optional[BaseStrategy] = None,
    ) -> None:
        super().__init__(address, ovm)
        if strategy is None:
            raise ReproError("AdversarialAggregator requires a strategy")
        self.strategy = strategy
        #: Rounds whose executed order differed from the collected order.
        self.rounds_attacked = 0
        #: Rounds whose action was rejected by the safety check.
        self.actions_rejected = 0
        #: Rounds where the strategy proposed *any* change (pre-defense).
        self.rounds_proposed = 0
        #: Adversary-authored transactions proposed across all rounds.
        self.inserted_total = 0
        #: The validated action of the most recent round (None if the
        #: round was rejected) — the matrix runner's accounting hook.
        self.last_action: Optional[StrategyAction] = None
        self._round_index = 0

    # -- strategy/defense hooks (overridden by DefendedAggregator) ----- #

    def build_view(
        self, pre_state: L2State, collected: Tuple[NFTTransaction, ...]
    ) -> MempoolView:
        """The mempool view handed to the strategy this round."""
        return MempoolView(
            transactions=collected, round_index=self._round_index
        )

    def reveal_action(
        self, action: StrategyAction, view: MempoolView
    ) -> StrategyAction:
        """Map an action on a blinded view back to real transactions."""
        return action

    def apply_policy(
        self,
        pre_state: L2State,
        collected: Tuple[NFTTransaction, ...],
        action: StrategyAction,
    ) -> Tuple[NFTTransaction, ...]:
        """Sequencing-policy hook: defenses may re-order a valid action."""
        return action.sequence

    # ------------------------------------------------------------------ #

    def order_transactions(
        self, pre_state: L2State, collected: Sequence[NFTTransaction]
    ) -> Sequence[NFTTransaction]:
        """Route the collection through the hosted strategy."""
        collected = tuple(collected)
        with span(
            "aggregator.reorder", aggregator=self.address, n_txs=len(collected)
        ) as current:
            view = self.build_view(pre_state, collected)
            self._round_index += 1
            action = self.reveal_action(
                self.strategy.observe(pre_state, view), view
            )
            allowed = frozenset(
                account.address for account in self.strategy.accounts()
            )
            verdict = validate_action(collected, action, allowed)
            if not verdict.ok:
                # The strategy used a capability it did not declare (or
                # dropped victims).  Fall back to the honest order —
                # the generalization of the old permute-only rejection.
                get_metrics().counter("aggregator.reorderer_rejected").inc()
                current.add(rejected=True, reason=verdict.reason)
                self.actions_rejected += 1
                self.last_action = None
                return collected
            if action.inserted or action.sequence != collected:
                self.rounds_proposed += 1
            sequence = self.apply_policy(pre_state, collected, action)
            collected_hashes = {tx.tx_hash for tx in collected}
            victims = tuple(
                tx for tx in sequence if tx.tx_hash in collected_hashes
            )
            moved = sum(
                1 for before, after in zip(collected, victims)
                if before is not after and before != after
            )
            current.add(
                positions_moved=moved, inserted=len(action.inserted)
            )
            get_metrics().histogram(
                "aggregator.positions_moved", bounds=(0, 1, 2, 5, 10, 25, 50, 100)
            ).observe(moved)
            if sequence != collected:
                self.rounds_attacked += 1
            self.inserted_total += len(action.inserted)
            self.last_action = action
            return sequence
