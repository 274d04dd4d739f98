"""Fraud proofs: canonical state roots and re-execution checks.

The "proof" of Section V-A is the Merkle state root of the L2 chain after
batch execution.  A verifier disputes a batch by re-executing its
transactions from the pre-state and comparing roots.  Crucially for the
paper's thesis: a PAROLE-reordered batch re-executes to exactly the root
the adversarial aggregator claimed, so the fraud proof *cannot* catch the
attack — ordering policy is outside what the proof commits to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence, Tuple

from ..crypto import MerkleTree, hash_value
from ..crypto.merkle import DigestMemo
from ..telemetry import get_metrics
from .ovm import OVM
from .state import L2State
from .transaction import NFTTransaction

#: Leaf digests of recent state roots, keyed by exact leaf content.
_LEAF_MEMO = DigestMemo()


def state_root(state: L2State) -> str:
    """Canonical Merkle root over the L2 state.

    Leaves are the sorted balance entries, the sorted inventory entries
    and the remaining supply, so two states with identical contents hash
    identically regardless of insertion order.  Leaf digests and interior
    nodes come from content-keyed memos, so a leaf or node already hashed
    for an earlier root is not hashed again; the root is the same as a
    from-scratch ``MerkleTree`` over the leaves.
    """
    balances, inventory, remaining = state.canonical_items()
    tree = MerkleTree(leaf_digests=_LEAF_MEMO.digests(
        _leaf_keys(balances, inventory, remaining), _hash_leaf
    ))
    _LEAF_MEMO.rotate(len(tree))
    return tree.root


def _leaf_keys(
    balances: Sequence[Tuple[Any, Any]],
    inventory: Sequence[Tuple[Any, Any]],
    remaining: Any,
) -> Iterator[Tuple]:
    """Memo key of every state leaf, in tree order: the leaf's content
    followed by one flag.

    ``==`` is coarser than :func:`hash_value`: ``5 == 5.0``,
    ``True == 1`` and ``0.0 == -0.0``, yet each pair canonicalises
    differently.  For a ``str`` user and an ``int`` or ``float`` value
    the flag says whether a nonzero value is a ``float``, and holds the
    ``repr`` of a zero; equal keys then mean equal leaves.  Any other
    leaf is flagged with a fresh ``object()``, which equals no other
    key, so it is hashed rather than served.  A generator, so the whole
    build runs inside ``MerkleTree.__init__``, the call the layer ledger
    (``bench/ledger.py``) bills to ``crypto.merkle``.
    """
    for tag, entries in (("balance", balances), ("inventory", inventory)):
        for user, value in entries:
            kind = type(value)
            if type(user) is str and (kind is float or kind is int):
                yield tag, user, value, kind is float if value else repr(value)
            else:
                yield tag, user, value, object()
    kind = type(remaining)
    if kind is float or kind is int:
        yield "supply", remaining, (
            kind is float if remaining else repr(remaining)
        )
    else:
        yield "supply", remaining, object()


def _hash_leaf(key: Tuple) -> str:
    return hash_value(key[:-1])


@dataclass(frozen=True)
class FraudProof:
    """What an aggregator publishes alongside a batch commitment."""

    tx_root: str
    pre_state_root: str
    claimed_post_root: str

    @property
    def digest(self) -> str:
        """Single digest committing to the whole proof."""
        return hash_value(
            ["proof", self.tx_root, self.pre_state_root, self.claimed_post_root]
        )


def recompute_post_root(
    pre_state: L2State, transactions: Tuple[NFTTransaction, ...], ovm: OVM = None
) -> str:
    """Re-execute a batch from its pre-state and return the post root."""
    machine = ovm or OVM()
    trace = machine.replay(pre_state, transactions)
    metrics = get_metrics()
    metrics.counter("fraud_proof.recomputes").inc()
    metrics.counter("fraud_proof.recomputed_steps").inc(len(transactions))
    return state_root(trace.final_state)
