"""Sharded fee-priority mempool for the streaming pipeline.

At traffic scale a single :class:`~repro.rollup.BedrockMempool` becomes
the serialisation point of the whole service: every submission and every
collection contends on one pending index.  :class:`ShardedMempool`
splits the pending set across independent ``BedrockMempool`` shards,
routed by the stamp-independent ``arrival_identity`` digest, while a
single *global* arrival counter stamps every admission before routing.

That last detail is the correctness argument.  Because stamps are issued
globally (and are therefore unique across shards), the fee-priority key
``(-total_fee, submitted_at, nonce)`` is already a total order over all
pending transactions — no cross-shard tiebreak is ever needed, and a
k-way merge over the shard heads drains transactions in *exactly* the
order one unsharded ``BedrockMempool`` would.  The shard count is a pure
throughput knob: it can never change results.

Identity-based routing also means both copies of a duplicate submission
land on the same shard, so the per-shard duplicate maps compose into a
global duplicate check for free.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Set, Tuple

from ..errors import MempoolError, MempoolStalledError
from ..rollup.mempool import BedrockMempool
from ..rollup.transaction import NFTTransaction


class ShardedMempool:
    """Drop-in ``BedrockMempool`` replacement with sharded internals.

    Drain order is provably identical to the unsharded pool for any
    shard count (see the module docstring); ``shards=1`` degenerates to
    a thin wrapper around one ``BedrockMempool``.
    """

    def __init__(self, shards: int = 4) -> None:
        if shards < 1:
            raise MempoolError("shard count must be at least 1")
        self._shards: List[BedrockMempool] = [
            BedrockMempool() for _ in range(shards)
        ]
        self._arrival = 0
        self._stalled = False

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, tx_hash: str) -> bool:
        return any(tx_hash in shard for shard in self._shards)

    @property
    def stalled(self) -> bool:
        """Whether collection is currently stalled (fault injection)."""
        return self._stalled

    def stall(self) -> None:
        """Stop serving collections; submissions are still accepted."""
        self._stalled = True

    def resume(self) -> None:
        """Resume serving collections after a stall."""
        self._stalled = False

    # ------------------------------------------------------------------ #

    def _shard_for(self, identity: str) -> BedrockMempool:
        # arrival_identity is a hex digest; its low bits are uniform.
        return self._shards[int(identity[-8:], 16) % len(self._shards)]

    @staticmethod
    def _key(tx: NFTTransaction) -> Tuple[float, int, int]:
        # Global stamps are unique, so this key is already a total
        # order — no admission-sequence tiebreak needed across shards.
        return (-tx.total_fee, tx.submitted_at, tx.nonce)

    # ------------------------------------------------------------------ #

    def submit(self, tx: NFTTransaction) -> str:
        """Stamp with the global arrival counter, route, admit."""
        self._arrival += 1
        stamped = tx.stamped(self._arrival)
        return self._shard_for(stamped.arrival_identity).admit_stamped(stamped)

    def submit_all(self, txs: Sequence[NFTTransaction]) -> List[str]:
        """Submit several transactions, preserving order."""
        return [self.submit(tx) for tx in txs]

    def admit_stamped(self, tx: NFTTransaction) -> str:
        """Admit a pre-stamped transaction (requeue path)."""
        return self._shard_for(tx.arrival_identity).admit_stamped(tx)

    def requeue(self, txs: Sequence[NFTTransaction]) -> None:
        """Return transactions to the pool, original stamps intact."""
        for tx in txs:
            self._shard_for(tx.arrival_identity).requeue([tx])

    def drop(self, tx_hash: str) -> NFTTransaction:
        """Remove one transaction by hash."""
        for shard in self._shards:
            if tx_hash in shard:
                return shard.drop(tx_hash)
        raise MempoolError(f"unknown transaction {tx_hash[:12]}...")

    # ------------------------------------------------------------------ #

    def collect(self, count: int) -> Tuple[NFTTransaction, ...]:
        """Drain the global top ``count`` via a k-way merge of shard heads.

        Each step peeks every shard's best transaction, pops the global
        winner from its shard, and refills that shard's head — O(count ·
        (S + log N/S)) total, with collection work spread across shard
        heaps.  Raises :class:`~repro.errors.MempoolStalledError` while
        stalled, exactly like the unsharded pool.
        """
        if count <= 0:
            raise MempoolError("collect count must be positive")
        if self._stalled:
            raise MempoolStalledError(
                "mempool is stalled: collection unavailable "
                f"({len(self)} transactions pending)"
            )
        heads: List[Tuple[Tuple[float, int, int], int]] = []
        for index, shard in enumerate(self._shards):
            head = shard.peek(1)
            if head:
                heads.append((self._key(head[0]), index))
        heapq.heapify(heads)
        selected: List[NFTTransaction] = []
        while heads and len(selected) < count:
            _, index = heapq.heappop(heads)
            collected = self._shards[index].collect(1)
            selected.extend(collected)
            refill = self._shards[index].peek(1)
            if refill:
                heapq.heappush(heads, (self._key(refill[0]), index))
        return tuple(selected)

    def peek(self, count: int) -> Tuple[NFTTransaction, ...]:
        """The next ``count`` transactions in global priority order."""
        merged: List[NFTTransaction] = []
        for shard in self._shards:
            merged.extend(shard.peek(count))
        merged.sort(key=self._key)
        return tuple(merged[:count])

    def pending(self) -> Tuple[NFTTransaction, ...]:
        """All pending transactions in global priority order."""
        merged: List[NFTTransaction] = []
        for shard in self._shards:
            merged.extend(shard.pending())
        merged.sort(key=self._key)
        return tuple(merged)

    def pending_hashes(self) -> Set[str]:
        """Hashes of all pending transactions, unsorted."""
        return set().union(*(shard.pending_hashes() for shard in self._shards))
