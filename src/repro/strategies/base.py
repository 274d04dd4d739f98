"""The adversary strategy protocol: observe a mempool view, emit an action.

PAROLE's pairwise-swap reordering is one MEV strategy among several
(PAPERS.md): sandwich insertion in private L2 mempools, revert-based
claim spam on fast-finality rollups, speculative backruns on observed-
but-unconfirmed state.  This module defines the contract every strategy
plug-in implements so the adversarial aggregator can host any of them
behind one *generalized* safety check:

* :class:`MempoolView` — what the aggregator shows the strategy: the
  collected batch, the pending backlog it can observe, and whether the
  view is encrypted (sealed envelopes instead of plaintext txs);
* :class:`StrategyAction` — what the strategy proposes: a full execution
  ``sequence`` plus explicit declarations of every capability it used
  (``permute`` / ``insert`` / ``revert``), so the aggregator can verify
  the action against the declaration instead of silently rejecting
  anything that is not a permutation;
* :func:`validate_action` — the aggregator-side check: victim
  transactions are conserved as a multiset, insertions are authored by
  the strategy's declared accounts and declared as insertions, revert
  marks reference the strategy's own inserted transactions.

A strategy that fails validation degrades the round to the honest order
(and bumps the ``aggregator.reorderer_rejected`` counter), exactly like
the old permute-only check did.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, FrozenSet, Iterable, Sequence, Tuple

from ..errors import ReproError
from ..rollup.transaction import NFTTransaction

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..rollup.state import L2State

#: Legacy signature of a permute-only reordering callable
#: (pre-state, collected txs) -> new order.  Kept as the adapter input of
#: :class:`ReordererStrategy`; new code implements :class:`Strategy`.
Reorderer = Callable[
    ["L2State", Sequence[NFTTransaction]], Sequence[NFTTransaction]
]

#: The action taxonomy a strategy may declare.
ACTION_KINDS: FrozenSet[str] = frozenset({"permute", "insert", "revert"})


@dataclass(frozen=True)
class MempoolView:
    """What one strategy invocation is allowed to observe.

    ``transactions`` is the collected batch the aggregator must order;
    ``pending`` is the backlog still sitting in the mempool (observed
    but *unconfirmed* — the speculation surface of optimistic
    backrunning).  Under an encrypting defense both are sealed
    stand-ins: fee metadata survives, senders and kinds do not.
    """

    transactions: Tuple[NFTTransaction, ...]
    pending: Tuple[NFTTransaction, ...] = ()
    encrypted: bool = False
    round_index: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "transactions", tuple(self.transactions))
        object.__setattr__(self, "pending", tuple(self.pending))


@dataclass(frozen=True)
class StrategyAction:
    """One strategy's proposal for a collected batch.

    ``sequence`` is the complete execution order (victims plus any
    insertions).  ``inserted`` lists the adversary-authored transactions
    the sequence contains beyond the collected batch; ``revert_marked``
    lists tx hashes of *inserted* transactions the strategy expects to
    lose and revert (duplicate-claim spam).  ``kinds`` declares which
    capabilities the action uses — the aggregator verifies content
    against declaration in :func:`validate_action`.
    """

    sequence: Tuple[NFTTransaction, ...]
    inserted: Tuple[NFTTransaction, ...] = ()
    revert_marked: Tuple[str, ...] = ()
    kinds: Tuple[str, ...] = ("permute",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sequence", tuple(self.sequence))
        object.__setattr__(self, "inserted", tuple(self.inserted))
        object.__setattr__(self, "revert_marked", tuple(self.revert_marked))
        object.__setattr__(self, "kinds", tuple(self.kinds))
        unknown = set(self.kinds) - ACTION_KINDS
        if unknown:
            raise ReproError(
                f"unknown action kind(s) {sorted(unknown)}; "
                f"valid kinds: {sorted(ACTION_KINDS)}"
            )

    @classmethod
    def permutation(
        cls, sequence: Iterable[NFTTransaction]
    ) -> "StrategyAction":
        """A pure reordering (or the identity) of the collected batch."""
        return cls(sequence=tuple(sequence))


@dataclass(frozen=True)
class StrategyAccount:
    """One adversary-controlled account a strategy needs funded.

    The matrix runner funds these on the rollup *before* the invariant
    checker snapshots its conservation baselines, and measures profit as
    the wealth delta of the strategy's beneficiaries.
    """

    address: str
    balance_eth: float = 0.0

    def __post_init__(self) -> None:
        if not self.address:
            raise ReproError("strategy account needs an address")
        if self.balance_eth < 0:
            raise ReproError("strategy account funding cannot be negative")


@dataclass(frozen=True)
class ActionVerdict:
    """Outcome of validating one action against its declaration."""

    ok: bool
    reason: str = ""


def validate_action(
    collected: Sequence[NFTTransaction],
    action: StrategyAction,
    allowed_senders: FrozenSet[str] = frozenset(),
) -> ActionVerdict:
    """The aggregator's generalized safety check.

    Replaces the old "permutation or reject" rule: an action is valid
    iff every capability it *uses* it also *declares*, every collected
    (victim) transaction survives exactly once, every insertion is
    authored by one of the strategy's declared accounts, and every
    revert mark references one of its own insertions.
    """
    kinds = set(action.kinds)
    if action.inserted and "insert" not in kinds:
        return ActionVerdict(False, "undeclared insertion")
    if action.revert_marked and "revert" not in kinds:
        return ActionVerdict(False, "undeclared revert marks")
    for tx in action.inserted:
        if tx.sender not in allowed_senders:
            return ActionVerdict(
                False,
                f"inserted tx from undeclared account {tx.sender!r}",
            )
    # Split the proposed sequence into insertions and the victim
    # subsequence (multiset-aware: an "insertion" that merely duplicates
    # a victim hash is caught as a conservation failure).
    budget = Counter(tx.tx_hash for tx in action.inserted)
    victim_hashes = []
    for tx in action.sequence:
        if budget.get(tx.tx_hash, 0) > 0:
            budget[tx.tx_hash] -= 1
        else:
            victim_hashes.append(tx.tx_hash)
    if any(budget.values()):
        return ActionVerdict(
            False, "declared insertion missing from the sequence"
        )
    if sorted(victim_hashes) != sorted(tx.tx_hash for tx in collected):
        return ActionVerdict(
            False, "collected transactions not conserved by the sequence"
        )
    inserted_hashes = {tx.tx_hash for tx in action.inserted}
    for tx_hash in action.revert_marked:
        if tx_hash not in inserted_hashes:
            return ActionVerdict(
                False,
                "revert mark must reference one of the strategy's own "
                "insertions",
            )
    return ActionVerdict(True)


class BaseStrategy:
    """Convenience base class for strategy plug-ins.

    The protocol itself is structural: anything with ``name``,
    ``accounts()``, ``beneficiaries()`` and ``observe()`` is a strategy.
    Subclass this to get sensible defaults (no accounts, beneficiaries =
    account addresses) and the honest-action helper.
    """

    #: Registry name (kebab-case).
    name: str = "base"
    #: One-line description shown by ``list_strategies()``.
    description: str = ""

    def accounts(self) -> Tuple[StrategyAccount, ...]:
        """Adversary accounts the deployment must fund for this strategy."""
        return ()

    def beneficiaries(self) -> Tuple[str, ...]:
        """Addresses whose wealth delta measures this strategy's profit."""
        return tuple(account.address for account in self.accounts())

    def observe(
        self, pre_state: "L2State", view: MempoolView
    ) -> StrategyAction:
        """Produce an action for one collected batch."""
        raise NotImplementedError

    @staticmethod
    def honest(view: MempoolView) -> StrategyAction:
        """The identity action: execute the batch as collected."""
        return StrategyAction.permutation(view.transactions)


class HonestStrategy(BaseStrategy):
    """The no-op baseline: every batch executes in collected order."""

    name = "honest"
    description = "baseline: execute every batch in collected order"

    def observe(
        self, pre_state: "L2State", view: MempoolView
    ) -> StrategyAction:
        return self.honest(view)


class ReordererStrategy(BaseStrategy):
    """Adapter wrapping a permute-only :data:`Reorderer` callable.

    Pass it as ``AdversarialAggregator(strategy=ReordererStrategy(fn))``:
    the callable's output is declared as a pure permutation, so the
    generalized check enforces the permute-only contract (drops or
    injections fall back to honest).
    """

    description = "legacy permute-only reorderer callable"

    def __init__(
        self,
        reorderer: Reorderer,
        name: str = "reorderer",
        beneficiaries: Tuple[str, ...] = (),
    ) -> None:
        self.reorderer = reorderer
        self.name = name
        self._beneficiaries = tuple(beneficiaries)

    def beneficiaries(self) -> Tuple[str, ...]:
        return self._beneficiaries

    def observe(
        self, pre_state: "L2State", view: MempoolView
    ) -> StrategyAction:
        return StrategyAction.permutation(
            self.reorderer(pre_state, view.transactions)
        )
