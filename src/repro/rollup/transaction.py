"""NFT transactions submitted to the rollup (paper Table I).

The three transaction kinds map to the paper's notation:

* ``MINT``     — :math:`M_k^{i,t}`: ``sender`` mints a fresh token;
* ``TRANSFER`` — :math:`T_{k,j}^{i,t}`: ``sender`` sells to ``recipient``;
* ``BURN``     — :math:`D_k^{i,t}`: ``sender`` destroys a token he owns.

Transactions carry EIP-1559-style ``base_fee`` and ``priority_fee``
because Bedrock's mempool orders by their sum (Section IV-B).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

from ..crypto import hash_value
from ..errors import RollupError


class TxKind(enum.Enum):
    """The three ERC-721 transaction types of Section V-B."""

    MINT = "mint"
    TRANSFER = "transfer"
    BURN = "burn"


@dataclass(frozen=True)
class NFTTransaction:
    """One submitted NFT transaction.

    ``token_id`` may be ``None`` for mints (assigned at execution).  For
    transfers and burns it is optional: the limited-edition model treats
    units as economically fungible (Eq. 10 prices the *collection*), so a
    missing id means "one of the sender's tokens".
    """

    kind: TxKind
    sender: str
    recipient: Optional[str] = None
    token_id: Optional[int] = None
    base_fee: float = 1.0
    priority_fee: float = 0.0
    nonce: int = 0
    submitted_at: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind is TxKind.TRANSFER and self.recipient is None:
            raise RollupError("transfer transactions require a recipient")
        if self.kind is not TxKind.TRANSFER and self.recipient is not None:
            raise RollupError(f"{self.kind.value} transactions have no recipient")
        if self.base_fee < 0 or self.priority_fee < 0:
            raise RollupError("fees cannot be negative")

    @property
    def total_fee(self) -> float:
        """Base plus priority fee — Bedrock's ordering key."""
        return self.base_fee + self.priority_fee

    @cached_property
    def tx_hash(self) -> str:
        """Stable digest identifying this transaction.

        Computed once per object: every field is frozen, so the digest
        cannot go stale.
        """
        return hash_value(
            [
                "tx",
                self.kind.value,
                self.sender,
                self.recipient,
                self.token_id,
                self.base_fee,
                self.priority_fee,
                self.nonce,
                self.submitted_at,
                self.label,
            ]
        )

    @cached_property
    def arrival_identity(self) -> str:
        """Digest of everything *but* the arrival stamp.

        Two submissions of the same logical transaction share this
        identity regardless of when (or whether) a mempool stamped them,
        so admission-time duplicate detection survives re-stamping.
        Computed once per object, like :attr:`tx_hash`.
        """
        return hash_value(
            [
                "tx-identity",
                self.kind.value,
                self.sender,
                self.recipient,
                self.token_id,
                self.base_fee,
                self.priority_fee,
                self.nonce,
                self.label,
            ]
        )

    def stamped(self, submitted_at: int) -> "NFTTransaction":
        """This transaction with the arrival stamp ``submitted_at``.

        :attr:`arrival_identity` leaves the stamp out, so the copy
        inherits that digest if this object has computed it;
        :attr:`tx_hash` covers the stamp and is computed afresh.
        """
        copy = NFTTransaction(
            kind=self.kind,
            sender=self.sender,
            recipient=self.recipient,
            token_id=self.token_id,
            base_fee=self.base_fee,
            priority_fee=self.priority_fee,
            nonce=self.nonce,
            submitted_at=submitted_at,
            label=self.label,
        )
        identity = self.__dict__.get("arrival_identity")
        if identity is not None:
            copy.__dict__["arrival_identity"] = identity
        return copy

    def involves(self, user: str) -> bool:
        """Whether ``user`` is the sender or the recipient."""
        return self.sender == user or self.recipient == user

    def parties(self) -> Tuple[str, ...]:
        """All user addresses this transaction touches."""
        if self.recipient is None:
            return (self.sender,)
        return (self.sender, self.recipient)

    def describe(self) -> str:
        """Human-readable one-liner (matches the case-study tables)."""
        if self.kind is TxKind.MINT:
            return f"Mint PT: {self.sender}"
        if self.kind is TxKind.BURN:
            return f"Burn PT: {self.sender}"
        return f"Transfer PT: {self.sender} -> {self.recipient}"


def sort_by_fee(transactions: Sequence[NFTTransaction]) -> Tuple[NFTTransaction, ...]:
    """Order transactions the way Bedrock's mempool hands them out:
    descending total fee, ties broken by submission time then nonce."""
    return tuple(
        sorted(
            transactions,
            key=lambda tx: (-tx.total_fee, tx.submitted_at, tx.nonce),
        )
    )


def involvement_counts(
    transactions: Sequence[NFTTransaction], users: Sequence[str]
) -> dict:
    """Per-user counts of transactions each user participates in."""
    counts = {user: 0 for user in users}
    for tx in transactions:
        for user in users:
            if tx.involves(user):
                counts[user] += 1
    return counts
