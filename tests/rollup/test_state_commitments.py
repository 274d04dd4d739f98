"""Memoized state commitments against the from-scratch Merkle tree.

``state_root`` takes leaf digests and interior nodes from content-keyed
memos.  The oracle here hashes every leaf of ``canonical_items`` into a
fresh ``MerkleTree``, so any memo entry served for the wrong content
shows up as a root mismatch.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import repro.crypto.merkle as merkle
import repro.rollup.fraud_proof as fraud_proof
from repro.config import NFTContractConfig
from repro.crypto import MerkleTree, hash_value
from repro.crypto.merkle import MEMO_MULTIPLE, DigestMemo
from repro.rollup.fraud_proof import state_root
from repro.rollup.state import ExecutionMode, L2State
from repro.rollup.transaction import NFTTransaction, TxKind
from repro.store.codec import decode, encode
from repro.streaming import StreamConfig, run_stream


def oracle_root(state: L2State) -> str:
    balances, inventory, remaining = state.canonical_items()
    leaves = [
        ["balance", user, amount] for user, amount in balances
    ] + [
        ["inventory", user, count] for user, count in inventory
    ] + [["supply", remaining]]
    return MerkleTree(leaves).root


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty leaf and node memos, so a test controls what they hold."""
    leaves, nodes = DigestMemo(), DigestMemo()
    monkeypatch.setattr(fraud_proof, "_LEAF_MEMO", leaves)
    monkeypatch.setattr(merkle, "_NODE_MEMO", nodes)
    return leaves, nodes


def _state(balances=None, inventory=None, max_supply=64) -> L2State:
    return L2State(
        nft_config=NFTContractConfig(max_supply=max_supply),
        balances=balances or {},
        inventory=inventory or {},
        mode=ExecutionMode.BATCH,
    )


# --------------------------------------------------------------------- #
# Random edit sequences over branching lineages
# --------------------------------------------------------------------- #

USERS = st.sampled_from(["alice", "bob", "carol", "dave", L2State.FEE_POOL])
AMOUNTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-3, max_value=3),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([0, 0.0, -0.0, 5, 5.0, 0.1 + 0.2]),
)
#: Lineages: 0 is a pre-state, 1 its post-state, 2 a verifier's copy.
LINEAGE = st.integers(min_value=0, max_value=2)
EDITS = st.one_of(
    st.tuples(st.just("set"), LINEAGE, USERS, AMOUNTS),
    st.tuples(st.just("add"), LINEAGE, USERS, AMOUNTS),
    st.tuples(st.just("inventory"), LINEAGE, USERS, st.sampled_from([-1, 1])),
    st.tuples(st.just("remove"), LINEAGE, USERS),
    st.tuples(st.just("supply"), LINEAGE, st.integers(1, 80)),
    st.tuples(st.just("copy"), LINEAGE, LINEAGE),
)


def _apply(lineages, edit) -> None:
    kind, index, *args = edit
    state = lineages[index]
    if kind == "set":
        user, amount = args
        state.balances[user] = amount
    elif kind == "add":
        user, amount = args
        state.balances[user] = state.balance(user) + amount
    elif kind == "inventory":
        user, delta = args
        state.inventory[user] = state.holdings(user) + delta
    elif kind == "remove":
        (user,) = args
        state.balances.pop(user, None)
        state.inventory.pop(user, None)
    elif kind == "supply":
        (max_supply,) = args
        state.nft_config = NFTContractConfig(max_supply=max_supply)
    else:
        (target,) = args
        lineages[target] = state.copy()


class TestRandomEdits:
    @settings(max_examples=150, deadline=None)
    @given(edits=st.lists(EDITS, max_size=40))
    def test_every_root_matches_the_oracle(self, edits):
        base = _state({"alice": 2.0, "bob": 1, "carol": 0.5},
                      {"alice": 1, "bob": 0})
        lineages = [base, base.copy(), base.copy()]
        for edit in edits:
            _apply(lineages, edit)
            for state in lineages:
                assert state_root(state) == oracle_root(state)

    def test_empty_state(self):
        state = _state()
        assert state_root(state) == oracle_root(state)


# --------------------------------------------------------------------- #
# Keys are exact on type
# --------------------------------------------------------------------- #

NAN = float("nan")

#: Pairs that ``==`` (or a shared hash) conflates but that canonicalise to
#: different leaves.
TRAPS = {
    "balance 5 vs 5.0": (
        lambda: _state({"alice": 5}), lambda: _state({"alice": 5.0})),
    "balance 0.0 vs -0.0": (
        lambda: _state({"alice": 0.0}), lambda: _state({"alice": -0.0})),
    "balance nan vs 0.0": (
        lambda: _state({"alice": NAN}), lambda: _state({"alice": 0.0})),
    "balance nan vs another nan": (
        lambda: _state({"alice": NAN}),
        lambda: _state({"alice": float("nan")})),
    "inventory True vs 1": (
        lambda: _state(inventory={"alice": True}),
        lambda: _state(inventory={"alice": 1})),
    "inventory 0 vs False": (
        lambda: _state(inventory={"alice": 0}),
        lambda: _state(inventory={"alice": False})),
    "user 1 vs True": (
        lambda: _state({1: 5.0}), lambda: _state({True: 5.0})),
    "user 0.0 vs -0.0": (
        lambda: _state({0.0: 5.0}), lambda: _state({-0.0: 5.0})),
}


class TestExactKeys:
    @pytest.mark.parametrize("order", ["forward", "reverse"])
    @pytest.mark.parametrize("trap", sorted(TRAPS))
    def test_equal_values_of_other_types_never_share_a_digest(
        self, fresh_memos, trap, order
    ):
        first, second = (make() for make in TRAPS[trap])
        if order == "reverse":
            first, second = second, first
        for state in (first, second, first, second):
            assert state_root(state) == oracle_root(state)

    @pytest.mark.parametrize("trap", sorted(set(TRAPS) - {
        "balance nan vs another nan",
    }))
    def test_traps_are_real(self, trap):
        first, second = (make() for make in TRAPS[trap])
        assert oracle_root(first) != oracle_root(second)

    def test_nan_balance_is_served_correctly_by_identity(self, fresh_memos):
        state = _state({"alice": NAN, "bob": NAN})
        assert state_root(state) == oracle_root(state)
        assert state_root(state.copy()) == oracle_root(state)


# --------------------------------------------------------------------- #
# The memos stay bounded
# --------------------------------------------------------------------- #


class TestBoundedMemos:
    def test_entry_count_stays_within_the_constant_bound(self, fresh_memos):
        leaf_memo, node_memo = fresh_memos
        users = [f"user{i:03d}" for i in range(40)]
        n = len(users) + 30 + 1  # leaves of every tree below
        # A tree of n leaves has at most n + log2(n) interior nodes, and
        # either generation holds at most (MEMO_MULTIPLE + 1) trees' worth
        # of lookups.
        bound = 2 * (MEMO_MULTIPLE + 1) * (n + n.bit_length())
        retired = {"leaves": 0, "nodes": 0}
        previous = (leaf_memo.newer, node_memo.newer)
        for step in range(60):
            state = _state({user: step + i / 7 for i, user in enumerate(users)},
                           {user: step % 5 for user in users[:30]},
                           max_supply=10_000)
            assert state_root(state) == oracle_root(state)
            assert len(leaf_memo) <= bound
            assert len(node_memo) <= bound
            retired["leaves"] += leaf_memo.newer is not previous[0]
            retired["nodes"] += node_memo.newer is not previous[1]
            previous = (leaf_memo.newer, node_memo.newer)
        assert retired["leaves"] >= 3
        assert retired["nodes"] >= 3

    def test_rotation_keeps_recent_entries_reachable(self):
        memo = DigestMemo()
        computed = []

        def compute(key):
            computed.append(key)
            return hash_value(key)

        assert list(memo.digests(["a", "b"], compute)) == [
            hash_value("a"), hash_value("b")]
        memo.rotate(0)  # the newer generation retires...
        assert memo.older and not memo.newer
        assert list(memo.digests(["a"], compute)) == [hash_value("a")]
        assert computed == ["a", "b"]  # ...but is still served
        assert list(memo.newer) == ["a"]  # and what it served is promoted


# --------------------------------------------------------------------- #
# Transaction digests are computed once and survive copies
# --------------------------------------------------------------------- #

TRANSACTIONS = st.builds(
    lambda kind, sender, recipient, token_id, fees, nonce, stamp, label:
        NFTTransaction(
            kind=kind,
            sender=sender,
            recipient=recipient if kind is TxKind.TRANSFER else None,
            token_id=token_id,
            base_fee=fees[0],
            priority_fee=fees[1],
            nonce=nonce,
            submitted_at=stamp,
            label=label,
        ),
    st.sampled_from(list(TxKind)),
    st.text(min_size=1, max_size=6),
    st.text(min_size=1, max_size=6),
    st.none() | st.integers(0, 100),
    st.tuples(st.floats(0, 10), st.floats(0, 10)),
    st.integers(0, 1000),
    st.integers(0, 1000),
    st.text(max_size=4),
)


def fresh_tx_hash(tx: NFTTransaction) -> str:
    return hash_value([
        "tx", tx.kind.value, tx.sender, tx.recipient, tx.token_id,
        tx.base_fee, tx.priority_fee, tx.nonce, tx.submitted_at, tx.label,
    ])


def fresh_identity(tx: NFTTransaction) -> str:
    return hash_value([
        "tx-identity", tx.kind.value, tx.sender, tx.recipient, tx.token_id,
        tx.base_fee, tx.priority_fee, tx.nonce, tx.label,
    ])


class TestTransactionDigests:
    @settings(max_examples=60, deadline=None)
    @given(tx=TRANSACTIONS)
    def test_cached_digests_equal_fresh_hashes(self, tx):
        for _ in range(2):
            assert tx.tx_hash == fresh_tx_hash(tx)
            assert tx.arrival_identity == fresh_identity(tx)

    @settings(max_examples=30, deadline=None)
    @given(tx=TRANSACTIONS)
    def test_digests_survive_pickle_and_codec(self, tx):
        cached = (tx.tx_hash, tx.arrival_identity)
        for copy in (pickle.loads(pickle.dumps(tx)), decode(encode(tx))):
            assert copy == tx
            assert (copy.tx_hash, copy.arrival_identity) == cached
            assert copy.tx_hash == fresh_tx_hash(tx)
            assert copy.arrival_identity == fresh_identity(tx)

    @settings(max_examples=30, deadline=None)
    @given(tx=TRANSACTIONS)
    def test_replace_yields_fresh_digests(self, tx):
        original = (tx.tx_hash, tx.arrival_identity)
        restamped = dataclasses.replace(tx, submitted_at=tx.submitted_at + 1)
        assert restamped.tx_hash == fresh_tx_hash(restamped) != original[0]
        assert restamped.arrival_identity == original[1]
        renonced = dataclasses.replace(tx, nonce=tx.nonce + 1)
        assert renonced.arrival_identity == fresh_identity(renonced)
        assert renonced.arrival_identity != original[1]

    def test_codec_stores_fields_only(self):
        tx = NFTTransaction(kind=TxKind.MINT, sender="alice")
        before = encode(tx)
        assert tx.tx_hash and tx.arrival_identity
        assert encode(tx) == before


# --------------------------------------------------------------------- #
# Pinned roots of a short stream
# --------------------------------------------------------------------- #

PINNED = {
    0: ("1cbf7f7e5ce2a0ce391d87602457718e9ed5f1e32ca17332cb0a1c5abffd8699",
        "3e2b33de8bfa17b750743890c4639051baf6e02540f9d0d08a84ddea1a28357e"),
    1: ("536de59141a127853295fe5adc5c2c61e2bc3e16bf38ea366fd3cf79ae988c4b",
        "0302c5cb62c6e60c81ec14e437d0af7f168e2fa75dd056215b91b4fab5f860f7"),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_stream_roots_are_pinned(seed):
    report = run_stream(StreamConfig(
        lanes=1, duration_batches=6, batch_size=16, submit_per_batch=16,
        seed=seed,
    ))
    (lane,) = report.lanes
    assert (lane.state_root, lane.order_digest) == PINNED[seed]

