"""Fraud proofs: canonical state roots and re-execution checks.

The "proof" of Section V-A is the Merkle state root of the L2 chain after
batch execution.  A verifier disputes a batch by re-executing its
transactions from the pre-state and comparing roots.  Crucially for the
paper's thesis: a PAROLE-reordered batch re-executes to exactly the root
the adversarial aggregator claimed, so the fraud proof *cannot* catch the
attack — ordering policy is outside what the proof commits to.

Successive roots differ in a few accounts, so :func:`state_root` builds
each root's tree from the last one's and rehashes only the leaves whose
entries changed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain, compress
from typing import Any, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..crypto import MerkleTree, hash_value
from ..crypto.merkle import DigestMemo
from ..telemetry import get_metrics
from .ovm import OVM
from .state import ROOT_DECIMALS, L2State
from .transaction import NFTTransaction

#: Leaf digests of recent state roots, keyed by exact leaf content.
_LEAF_MEMO = DigestMemo()


class _Snapshot(NamedTuple):
    """A root's tree and exactly the entries its leaves were hashed from.

    Each root publishes a new one and none is ever modified, so a root
    computed from a stale snapshot, or from one another thread or
    deployment published, still reads a tree that matches its entries.
    """

    tree: MerkleTree
    balance_keys: List[Any]
    balance_values: List[Any]
    inventory_keys: List[Any]
    inventory_values: List[Any]
    supply_key: Tuple
    #: Tree index of each balance and inventory leaf, in dict order.
    balance_leaves: List[int]
    inventory_leaves: List[int]


#: The snapshot of the last root built in this process.
_LAST: Optional[_Snapshot] = None


def state_root(state: L2State) -> str:
    """Canonical Merkle root over the L2 state.

    Leaves are the sorted balance entries, the sorted inventory entries
    and the remaining supply, so two states with identical contents hash
    identically regardless of insertion order.

    The last root's tree is updated, not rebuilt, when this state's
    balance and inventory keys are the same objects in the same order as
    that root's.  Then the tree order of every entry is unchanged, and an
    entry whose value is the same object as the one the last root hashed
    has an unchanged leaf, because keys and values are immutable.  Only
    the other entries are rehashed, plus the supply leaf if its type or
    value moved, and only their ancestors are recomputed.  Any other
    state -- a key added, removed or reordered, or one equal to the last
    root's but not the same object -- gets a full build.  Either way the
    root is the same as a from-scratch ``MerkleTree`` over the leaves,
    and depends on nothing but this state's content.  Leaf digests and
    interior nodes come from content-keyed memos, so a leaf or node
    hashed for an earlier root is not hashed again.
    """
    global _LAST
    balances, inventory = state.balances, state.inventory
    entries = (
        list(balances), list(balances.values()),
        list(inventory), list(inventory.values()),
    )
    supply_key = _supply_key(state.remaining_supply)
    last = _LAST
    if (
        last is not None
        and _same_objects(entries[0], last.balance_keys)
        and _same_objects(entries[2], last.inventory_keys)
    ):
        tree = MerkleTree(
            base=last.tree, changes=_changed_leaves(last, entries, supply_key)
        )
        positions = last.balance_leaves, last.inventory_leaves
    else:
        tree, positions = _full_tree(entries, supply_key)
    _LAST = _Snapshot(tree, *entries, supply_key, *positions)
    _LEAF_MEMO.rotate(len(tree))
    return tree.root


def _same_objects(keys: Sequence[Any], previous: Sequence[Any]) -> bool:
    return len(keys) == len(previous) and all(
        map(operator.is_, keys, previous)
    )


def _full_tree(
    entries: Tuple[List[Any], ...], supply_key: Tuple
) -> Tuple[MerkleTree, Tuple[List[int], List[int]]]:
    """The tree of every leaf, and the tree index of each entry's leaf."""
    balance_keys, balance_values, inventory_keys, inventory_values = entries
    balances = list(zip(
        balance_keys,
        [round(value, ROOT_DECIMALS) for value in balance_values],
    ))
    inventory = list(zip(inventory_keys, inventory_values))
    balance_order = sorted(range(len(balances)), key=balances.__getitem__)
    inventory_order = sorted(range(len(inventory)), key=inventory.__getitem__)
    # A generator, so the whole build runs inside ``MerkleTree.__init__``,
    # the call the layer ledger (``bench/ledger.py``) bills to
    # ``crypto.merkle``.
    keys = chain(
        (_leaf_key("balance", *balances[i]) for i in balance_order),
        (_leaf_key("inventory", *inventory[i]) for i in inventory_order),
        (supply_key,),
    )
    tree = MerkleTree(leaf_digests=_LEAF_MEMO.digests(keys, _hash_leaf))
    return tree, (
        _positions(balance_order, 0),
        _positions(inventory_order, len(balances)),
    )


def _positions(order: Sequence[int], offset: int) -> List[int]:
    """Invert ``order`` (entry index by leaf) into leaf index by entry."""
    leaves = [0] * len(order)
    for leaf, index in enumerate(order, offset):
        leaves[index] = leaf
    return leaves


def _changed_leaves(
    last: _Snapshot, entries: Tuple[List[Any], ...], supply_key: Tuple
) -> Iterator[Tuple[int, str]]:
    """``(tree index, digest)`` of every leaf whose entry's value is not
    the object ``last`` hashed, and of the supply leaf if it moved."""
    _, balance_values, _, inventory_values = entries
    indices: List[int] = []
    keys: List[Tuple] = []
    for tag, users, values, hashed, leaves in (
        ("balance", last.balance_keys, balance_values,
         last.balance_values, last.balance_leaves),
        ("inventory", last.inventory_keys, inventory_values,
         last.inventory_values, last.inventory_leaves),
    ):
        moved = map(operator.is_not, values, hashed)
        for i in compress(range(len(values)), moved):
            value = values[i]
            if tag == "balance":
                value = round(value, ROOT_DECIMALS)
            indices.append(leaves[i])
            keys.append(_leaf_key(tag, users[i], value))
    if supply_key != last.supply_key:
        indices.append(len(last.tree) - 1)
        keys.append(supply_key)
    yield from zip(indices, _LEAF_MEMO.digests(keys, _hash_leaf))


def _leaf_key(tag: str, user: Any, value: Any) -> Tuple:
    """Memo key of a balance or inventory leaf: its content and a flag.

    The flag is :func:`_exact_flag` for a ``str`` user; any other leaf
    is flagged with a fresh ``object()``, which equals no other key, so
    it is hashed rather than served.
    """
    if type(user) is str:
        return tag, user, value, _exact_flag(value)
    return tag, user, value, object()


def _supply_key(remaining: Any) -> Tuple:
    """Memo key of the supply leaf: its content and a flag."""
    return "supply", remaining, _exact_flag(remaining)


def _exact_flag(value: Any) -> Any:
    """What tells apart the values ``==`` conflates.

    ``==`` is coarser than :func:`hash_value`: ``5 == 5.0``,
    ``True == 1`` and ``0.0 == -0.0``, yet each pair canonicalises
    differently.  For an ``int`` or ``float`` value the flag says whether
    a nonzero value is a ``float``, and holds the ``repr`` of a zero;
    equal keys then mean equal leaves.  Any other value gets a fresh
    ``object()``.
    """
    kind = type(value)
    if kind is float or kind is int:
        return kind is float if value else repr(value)
    return object()


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
