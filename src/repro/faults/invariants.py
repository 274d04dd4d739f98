"""Safety invariants checked after every deployment round.

The checker is wired to one :class:`~repro.rollup.RollupNode` by its
:class:`~repro.faults.deployment.Deployment` and fed every round report
— in stream lanes, matrix cells and chaos scenarios alike.  It
maintains a shadow ledger of what *should* be true given the surviving
(non-reverted) batches, and verifies after each round that:

1. **ETH conservation (L2)** — the sum of L2 balances equals the initial
   sum minus the mint debits of surviving batches (transfers and fees
   only move value between accounts; Eq. 2 mints burn it into the curve).
2. **NFT conservation** — the live token count equals the initial count
   plus surviving mints minus surviving burns, never exceeds the max
   supply, and no user ends a round with negative net inventory.
3. **No transaction lost or duplicated** — every transaction accepted by
   the mempool is, at all times, either still pending or included in
   exactly one surviving batch.  (Messages dropped by the network before
   the mempool accepted them are observable in ``network.dropped`` — the
   invariant covers silent pipeline loss, not modelled packet loss.)
4. **Monotone batch ids** — on-chain commitments are numbered 0..n-1 in
   order with non-decreasing commitment heights.
5. **Pending-window accounting** — after the round's finalize pass every
   still-``PENDING`` batch is inside its challenge window, and the
   pending/finalized/reverted statuses partition the batch list.
6. **L1 wei conservation** — total L1 wei across all accounts equals the
   initial total minus bond slashes (the only burn in the system).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..rollup.node import RollupNode, RoundReport
from ..rollup.transaction import TxKind

_TOLERANCE = 1e-6


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of one post-round invariant sweep."""

    round_index: int
    ok: bool
    violations: Tuple[str, ...]
    l2_eth_total: float
    nft_total: int
    pending_txs: int
    included_txs: int


@dataclass(frozen=True)
class _BatchLedger:
    """Per-batch deltas needed to maintain the shadow ledger."""

    tx_hashes: Tuple[str, ...]
    mint_debit: float
    nft_delta: int


class InvariantChecker:
    """Shadow ledger + invariant sweep for one rollup node.

    Construct it *after* deployment setup (funding, bonds) and before
    any transactions flow; the constructor snapshots the conserved
    totals.
    """

    def __init__(self, node: RollupNode) -> None:
        self.node = node
        self._initial_l2_eth = sum(node.l2_state.balances.values())
        self._initial_nft_total = node.l2_state.inventory.total
        self._initial_l1_wei = sum(
            account.balance_wei for account in node.chain.accounts
        )
        self._initial_bonds: Dict[str, int] = {}
        for aggregator in node.aggregators:
            self._initial_bonds[aggregator.address] = (
                node.contract.aggregator_bond(aggregator.address)
            )
        for verifier in node.verifiers:
            self._initial_bonds[verifier.address] = node.contract.verifier_bond(
                verifier.address
            )
        #: Transactions the mempool has accepted (hash set).
        self._accepted: Set[str] = set()
        #: batch_id -> ledger entry, for every batch ever committed.
        self._batches: Dict[int, _BatchLedger] = {}
        self._next_batch_id = 0

    # ------------------------------------------------------------------ #
    # Feeding the shadow ledger
    # ------------------------------------------------------------------ #

    def note_accepted(self, tx_hash: str) -> None:
        """Record that the mempool accepted a transaction."""
        self._accepted.add(tx_hash)

    @property
    def accepted_count(self) -> int:
        """Transactions the mempool has accepted so far."""
        return len(self._accepted)

    def included_surviving_count(self) -> int:
        """Transactions sitting in exactly the surviving batches."""
        return sum(
            len(self._batches[batch_id].tx_hashes)
            for batch_id in self._surviving_ids()
            if batch_id in self._batches
        )

    def on_report(self, report: RoundReport) -> Tuple[int, ...]:
        """Ingest one round report; returns the batch ids it committed.

        Batch ids are assigned by the contract in commitment order, which
        is exactly the order results are appended across rounds.
        """
        committed: List[int] = []
        for result in report.results:
            batch_id = self._next_batch_id
            self._next_batch_id += 1
            mint_debit = 0.0
            nft_delta = 0
            for step in result.trace.steps:
                if not step.executed:
                    continue
                if step.tx.kind is TxKind.MINT:
                    mint_debit += step.result.price_before
                    nft_delta += 1
                elif step.tx.kind is TxKind.BURN:
                    nft_delta -= 1
            self._batches[batch_id] = _BatchLedger(
                tx_hashes=tuple(tx.tx_hash for tx in result.batch.transactions),
                mint_debit=mint_debit,
                nft_delta=nft_delta,
            )
            committed.append(batch_id)
        return tuple(committed)

    # ------------------------------------------------------------------ #
    # The sweep
    # ------------------------------------------------------------------ #

    def _surviving_ids(self) -> List[int]:
        return [
            commitment.batch_id
            for commitment in self.node.contract.batches
            if commitment.status.value != "reverted"
        ]

    def check(self, round_index: int) -> InvariantReport:
        """Run every invariant; returns a report (never raises)."""
        violations: List[str] = []
        node = self.node
        surviving = self._surviving_ids()
        for batch_id in surviving:
            if batch_id not in self._batches:
                violations.append(
                    f"batch {batch_id} committed on-chain but never reported"
                )
        surviving = [b for b in surviving if b in self._batches]

        # 1. ETH conservation on L2.
        expected_eth = self._initial_l2_eth - sum(
            self._batches[b].mint_debit for b in surviving
        )
        actual_eth = sum(node.l2_state.balances.values())
        if abs(actual_eth - expected_eth) > _TOLERANCE:
            violations.append(
                f"L2 ETH not conserved: have {actual_eth:.9f}, "
                f"expected {expected_eth:.9f}"
            )

        # 2. NFT conservation.
        expected_nfts = self._initial_nft_total + sum(
            self._batches[b].nft_delta for b in surviving
        )
        actual_nfts = node.l2_state.inventory.total
        if actual_nfts != expected_nfts:
            violations.append(
                f"NFTs not conserved: have {actual_nfts}, "
                f"expected {expected_nfts}"
            )
        if actual_nfts > node.l2_state.nft_config.max_supply:
            violations.append(
                f"minted total {actual_nfts} exceeds max supply"
            )
        if not node.l2_state.inventory_is_consistent():
            violations.append("negative net inventory at round end")

        # 3. No transaction lost or duplicated.
        included: Dict[str, int] = {}
        for batch_id in surviving:
            for tx_hash in self._batches[batch_id].tx_hashes:
                included[tx_hash] = included.get(tx_hash, 0) + 1
        duplicated = [h for h, n in included.items() if n > 1]
        if duplicated:
            violations.append(
                f"{len(duplicated)} tx(s) included in more than one "
                f"surviving batch (e.g. {duplicated[0][:12]}...)"
            )
        pending = self.node.mempool.pending_hashes()
        accounted = pending | set(included)
        lost = self._accepted - accounted
        if lost:
            violations.append(
                f"{len(lost)} accepted tx(s) neither pending nor included "
                f"(e.g. {sorted(lost)[0][:12]}...)"
            )
        conjured = set(included) - self._accepted
        if conjured:
            violations.append(
                f"{len(conjured)} included tx(s) were never accepted "
                f"by the mempool"
            )
        both = pending & set(included)
        if both:
            violations.append(
                f"{len(both)} tx(s) simultaneously pending and included"
            )

        # 4. Monotone batch ids.
        commitments = node.contract.batches
        ids = [c.batch_id for c in commitments]
        if ids != list(range(len(ids))):
            violations.append(f"batch ids not monotone: {ids}")
        heights = [c.committed_at_height for c in commitments]
        if any(b < a for a, b in zip(heights, heights[1:])):
            violations.append("batch commitment heights decreased")

        # 5. Pending-window accounting.
        status_counts = {"pending": 0, "finalized": 0, "reverted": 0}
        for commitment in commitments:
            status = commitment.status.value
            if status not in status_counts:
                violations.append(
                    f"batch {commitment.batch_id} has unknown status {status}"
                )
                continue
            status_counts[status] += 1
            if status == "pending" and not node.contract.in_challenge_window(
                commitment.batch_id
            ):
                violations.append(
                    f"batch {commitment.batch_id} pending outside its "
                    f"challenge window"
                )
        if sum(status_counts.values()) != len(commitments):
            violations.append("batch statuses do not partition the batch list")

        # 6. L1 wei conservation (slashes are the only burn).
        slashed = 0
        for aggregator in node.aggregators:
            slashed += self._initial_bonds[
                aggregator.address
            ] - node.contract.aggregator_bond(aggregator.address)
        for verifier in node.verifiers:
            slashed += self._initial_bonds[
                verifier.address
            ] - node.contract.verifier_bond(verifier.address)
        actual_wei = sum(account.balance_wei for account in node.chain.accounts)
        if actual_wei + slashed != self._initial_l1_wei:
            violations.append(
                f"L1 wei not conserved: have {actual_wei} + slashed {slashed} "
                f"!= initial {self._initial_l1_wei}"
            )

        return InvariantReport(
            round_index=round_index,
            ok=not violations,
            violations=tuple(violations),
            l2_eth_total=actual_eth,
            nft_total=actual_nfts,
            pending_txs=len(pending),
            included_txs=len(included),
        )
