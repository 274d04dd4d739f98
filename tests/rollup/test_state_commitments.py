"""Memoized, incremental state commitments against the from-scratch
Merkle tree.

``state_root`` updates the last root's tree where the state's keys are
the same objects, and takes leaf digests and interior nodes from
content-keyed memos.  The oracle here hashes every leaf of
``canonical_items`` into a fresh ``MerkleTree``, so a leaf left stale or
a memo entry served for the wrong content shows up as a root mismatch.
"""

import dataclasses
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.crypto.merkle as merkle
import repro.rollup.fraud_proof as fraud_proof
import repro.rollup.transaction as transaction
from repro.config import NFTContractConfig
from repro.crypto import MerkleTree, hash_value
from repro.crypto.merkle import MEMO_MULTIPLE, DigestMemo
from repro.rollup import BedrockMempool
from repro.rollup.bisection import CorruptExecutor, honest_commitment
from repro.rollup.fraud_proof import state_root
from repro.rollup.ovm import OVM
from repro.rollup.state import ExecutionMode, L2State
from repro.rollup.transaction import NFTTransaction, TxKind
from repro.store.codec import decode, encode
from repro.streaming import ShardedMempool, StreamConfig, run_stream


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
    """Empty leaf and node memos and no last root, so a test controls
    what they hold."""
    leaves, nodes = DigestMemo(), DigestMemo()
    monkeypatch.setattr(fraud_proof, "_LEAF_MEMO", leaves)
    monkeypatch.setattr(merkle, "_NODE_MEMO", nodes)
    monkeypatch.setattr(fraud_proof, "_LAST", None)
    return leaves, nodes


@pytest.fixture
def builds(monkeypatch):
    """How many memoized trees were updated from an earlier tree
    (``incremental``) and how many built from every leaf (``full``)."""
    counts = {"incremental": 0, "full": 0}
    real = MerkleTree.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("base") is not None:
            counts["incremental"] += 1
        elif kwargs.get("leaf_digests") is not None:
            counts["full"] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(MerkleTree, "__init__", counting)
    return counts


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
# The incremental path: which states take it, and what it must rehash
# --------------------------------------------------------------------- #

#: Keys ``==`` (and a shared hash) conflates but that are not the same
#: object, so the second state must not be diffed against the first.
KEY_TRAPS = {
    "user 1 vs True": (1, True),
    "user 0.0 vs -0.0": (0.0, -0.0),
}

#: Values equal to the last root's, or both NaN, but not the same object.
VALUE_TRAPS = {
    "5 vs 5.0": (5, 5.0),
    "5.0 vs 5": (5.0, 5),
    "0.0 vs -0.0": (0.0, -0.0),
    "-0.0 vs 0.0": (-0.0, 0.0),
    "nan vs another nan": (NAN, float("nan")),
    "0 vs False": (0, False),
}


def _users(count):
    return [f"user{i:03d}" for i in range(count)]


def _wide_state(users):
    return _state({user: 1.0 + i / 7 for i, user in enumerate(users)},
                  {user: i % 3 for i, user in enumerate(users)},
                  max_supply=10_000)


def _rebuilt(state, balances=None, inventory=None):
    """A new state holding ``balances`` and ``inventory`` (the dicts are
    taken as they are, so key objects and order are the caller's)."""
    clone = state.copy()
    if balances is not None:
        clone.balances = balances
    if inventory is not None:
        clone.inventory.clear()
        clone.inventory.update(inventory)
    return clone


class TestIncrementalPath:
    @pytest.mark.parametrize("trap", sorted(KEY_TRAPS))
    def test_equal_keys_of_other_objects_take_the_full_build(
        self, fresh_memos, builds, trap
    ):
        first_key, second_key = KEY_TRAPS[trap]
        amount, other = 5.0, 2.5
        first = _state({first_key: amount, 7: other})
        second = _state({second_key: amount, 7: other})
        assert state_root(first) == oracle_root(first)
        assert state_root(second) == oracle_root(second)
        assert oracle_root(first) != oracle_root(second)
        assert builds == {"incremental": 0, "full": 2}

    def test_equal_str_keys_of_other_objects_take_the_full_build(
        self, fresh_memos, builds
    ):
        users = _users(8)
        state = _wide_state(users)
        assert state_root(state) == oracle_root(state)
        twins = {"".join(list(user)): amount
                 for user, amount in state.balances.items()}
        assert all(a is not b for a, b in zip(twins, state.balances))
        twin = _rebuilt(state, balances=twins)
        assert state_root(twin) == oracle_root(twin) == oracle_root(state)
        assert builds == {"incremental": 0, "full": 2}

    @pytest.mark.parametrize("tag", ["balance", "inventory"])
    @pytest.mark.parametrize("trap", sorted(VALUE_TRAPS))
    def test_equal_values_of_other_types_are_rehashed(
        self, fresh_memos, builds, trap, tag
    ):
        before, after = VALUE_TRAPS[trap]
        users = _users(5)
        state = _wide_state(users)
        table = state.balances if tag == "balance" else state.inventory
        table[users[2]] = before
        assert state_root(state) == oracle_root(state)
        table[users[2]] = after
        assert state_root(state) == oracle_root(state)
        assert builds == {"incremental": 1, "full": 1}

    @pytest.mark.parametrize("max_supply", [11, 12, 12.0])
    def test_supply_moves_by_value_or_type(
        self, fresh_memos, builds, max_supply
    ):
        state = _state({"alice": 1.0}, {"alice": 1}, max_supply=12)
        assert state_root(state) == oracle_root(state)
        state.nft_config = NFTContractConfig(max_supply=max_supply)
        assert state_root(state) == oracle_root(state)
        assert builds == {"incremental": 1, "full": 1}

    def test_a_state_mutated_after_its_root(self, fresh_memos, builds):
        users = _users(12)
        state = _wide_state(users)
        assert state_root(state) == oracle_root(state)
        for step in range(3):
            state.balances[users[step]] += 1.0
            state.inventory[users[step + 4]] += 1
            assert state_root(state) == oracle_root(state)
        assert builds == {"incremental": 3, "full": 1}

    @pytest.mark.parametrize("edit", ["add", "remove", "reorder", "rename"])
    @pytest.mark.parametrize("table", ["balances", "inventory"])
    def test_a_key_added_removed_or_reordered(
        self, fresh_memos, builds, edit, table
    ):
        users = _users(9)
        state = _wide_state(users)
        assert state_root(state) == oracle_root(state)
        entries = dict(getattr(state, table))
        if edit == "add":
            entries["newcomer"] = 4
        elif edit == "remove":
            del entries[users[4]]
        elif edit == "reorder":
            entries = dict(reversed(list(entries.items())))
        else:  # same length, one key swapped for another
            entries["newcomer"] = entries.pop(users[4])
        edited = _rebuilt(state, **{table: entries})
        assert state_root(edited) == oracle_root(edited)
        assert builds == {"incremental": 0, "full": 2}
        # ...and the edited state's keys serve the next root.
        edited.balances[users[0]] += 1
        assert state_root(edited) == oracle_root(edited)
        assert builds == {"incremental": 1, "full": 2}

    def test_two_lineages_in_two_threads(self, fresh_memos, builds):
        users = _users(40)
        base = _wide_state(users)
        state_root(base)
        failures = []

        def run(state, mine):
            try:
                for step in range(200):
                    user = mine[step % len(mine)]
                    state.balances[user] += 0.5
                    state.inventory[mine[-1 - step % len(mine)]] += 1
                    if state_root(state) != oracle_root(state):
                        failures.append(step)
            except Exception as exc:  # reported by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(base.copy(), users[0::2])),
                threading.Thread(target=run, args=(base.copy(), users[1::2])),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert builds["incremental"] == 400

    def test_bisection_step_roots(self, fresh_memos, builds):
        users = _users(6)
        pre = _state({user: 2.0 + i for i, user in enumerate(users)},
                     {user: 1 for user in users[:3]})
        pre.charge_fees = True
        txs = [
            NFTTransaction(kind=TxKind.MINT, sender=users[0]),
            NFTTransaction(kind=TxKind.TRANSFER, sender=users[0],
                           recipient=users[1]),
            NFTTransaction(kind=TxKind.BURN, sender=users[1]),
            NFTTransaction(kind=TxKind.MINT, sender=users[3]),
            NFTTransaction(kind=TxKind.TRANSFER, sender=users[3],
                           recipient=users[4]),
            NFTTransaction(kind=TxKind.MINT, sender=users[4]),
        ]
        honest = honest_commitment(pre, txs)
        corrupt = CorruptExecutor(fault_step=2).commitment(pre, txs)
        for step in range(len(txs) + 1):
            state = OVM().replay(pre, txs[:step]).final_state
            assert honest.roots[step] == oracle_root(state)
        assert corrupt.roots[:3] == honest.roots[:3]
        assert corrupt.roots[3] != honest.roots[3]
        # Each commitment builds in full its first root and the roots
        # after the fee pool's first fee (step 1) and the first inventory
        # entries of users[3] and users[4] (steps 4 and 5).
        assert builds == {"incremental": 6, "full": 8}

    def test_stream_roots_after_the_first_are_incremental(self, builds):
        report = run_stream(StreamConfig(
            lanes=1, duration_batches=6, batch_size=16, submit_per_batch=16,
            seed=0,
        ))
        (lane,) = report.lanes
        assert lane.state_root == PINNED[0][0]
        assert builds == {"incremental": 3 * 6, "full": 1}


class TestTreeUpdate:
    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(1, 40),
        changes=st.lists(st.tuples(st.integers(0, 39), st.text(max_size=3)),
                         max_size=12),
    )
    def test_matches_a_tree_built_from_the_new_leaves(self, size, changes):
        leaves = [hash_value(i) for i in range(size)]
        base = MerkleTree(leaf_digests=leaves)
        snapshot = base.leaf_digests, base.root
        changes = [(index % size, hash_value(text)) for index, text in changes]
        for index, digest in changes:
            leaves[index] = digest
        updated = MerkleTree(base=base, changes=changes)
        assert updated.root == MerkleTree(leaf_digests=leaves).root
        assert updated.leaf_digests == tuple(leaves)
        assert len(updated) == size
        for index in range(size):
            assert merkle.verify_proof(updated.root, updated.proof(index))
        assert (base.leaf_digests, base.root) == snapshot

    @pytest.mark.parametrize("index", [-1, 3])
    def test_out_of_range_change_raises(self, index):
        base = MerkleTree(leaf_digests=[hash_value(i) for i in range(3)])
        with pytest.raises(merkle.CryptoError):
            MerkleTree(base=base, changes=[(index, hash_value("x"))])


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

    @settings(max_examples=30, deadline=None)
    @given(tx=TRANSACTIONS, stamp=st.integers(0, 1000), seen=st.booleans())
    def test_restamp_carries_only_the_identity(self, tx, stamp, seen):
        if seen:
            assert tx.tx_hash and tx.arrival_identity
        restamped = tx.stamped(stamp)
        assert restamped == dataclasses.replace(tx, submitted_at=stamp)
        assert ("arrival_identity" in vars(restamped)) is seen
        for copy in (restamped, pickle.loads(pickle.dumps(restamped)),
                     decode(encode(restamped))):
            assert copy.arrival_identity == fresh_identity(restamped)
            assert copy.tx_hash == fresh_tx_hash(restamped)

    @pytest.mark.parametrize("pool", [BedrockMempool, ShardedMempool])
    def test_a_pool_digests_each_transaction_twice(self, monkeypatch, pool):
        calls = []

        def counting(value):
            calls.append(value[0])
            return hash_value(value)

        monkeypatch.setattr(transaction, "hash_value", counting)
        mempool = pool()
        txs = [NFTTransaction(kind=TxKind.MINT, sender=f"user{i}", nonce=i)
               for i in range(20)]
        mempool.submit_all(txs)
        assert mempool.pending_hashes() == {
            tx.tx_hash for tx in mempool.pending()}
        mempool.drop(mempool.pending()[3].tx_hash)
        assert len(mempool.collect(30)) == 19
        assert sorted(calls) == ["tx"] * 20 + ["tx-identity"] * 20

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

