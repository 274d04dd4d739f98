"""Differential and unit tests for the incremental replay engine.

The load-bearing property: :meth:`IncrementalOVM.evaluate` must be
*behaviour-identical* to a from-scratch ``OVM.replay`` — step for step,
float for float — in both execution modes, with and without fee
charging, across arbitrary evaluation orders (which exercise arbitrary
rewind/resume depths of the kernel's cursor).  Without the kernel the
engine scores through ``OVM.replay`` itself, so these cases run on both
routes; the tests that assert resume counters carry the ``kernel``
marker.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NFTContractConfig
from repro.errors import TokenError
from repro.rollup import (
    ExecutionMode,
    IncrementalOVM,
    L2State,
    NFTTransaction,
    OVM,
    PermutationCache,
    ReplayEngineStats,
    TxKind,
)
from repro.rollup.state import CountingInventory
from repro.tokens.pricing import PRICE_TABLE_LIMIT


USERS = ("ifu", "u1", "u2", "u3")


def _mint(sender, **kw):
    return NFTTransaction(kind=TxKind.MINT, sender=sender, **kw)


def _transfer(sender, recipient, **kw):
    return NFTTransaction(
        kind=TxKind.TRANSFER, sender=sender, recipient=recipient, **kw
    )


def _burn(sender, **kw):
    return NFTTransaction(kind=TxKind.BURN, sender=sender, **kw)


def _random_collection(rng: np.random.Generator, size: int):
    """A mixed mint/transfer/burn collection over the fixed user set.

    Burns are capped at the pre-minted total (4): burning the global
    supply above ``max_supply`` poisons Eq. 10 and raises in the scratch
    OVM too, so such sequences are outside the replay contract.
    """
    txs = []
    burns = 0
    for nonce in range(size):
        kind = rng.choice(3)
        sender = USERS[rng.choice(len(USERS))]
        fee = float(rng.uniform(0.1, 2.0))
        if kind == 2 and burns >= 4:
            kind = 0
        if kind == 0:
            txs.append(_mint(sender, nonce=nonce, priority_fee=fee))
        elif kind == 1:
            others = [u for u in USERS if u != sender]
            recipient = others[rng.choice(len(others))]
            txs.append(
                _transfer(sender, recipient, nonce=nonce, priority_fee=fee)
            )
        else:
            burns += 1
            txs.append(_burn(sender, nonce=nonce, priority_fee=fee))
    return tuple(txs)


def _pre_state(mode: ExecutionMode, charge_fees: bool) -> L2State:
    return L2State(
        NFTContractConfig(max_supply=12),
        balances={"ifu": 4.0, "u1": 3.0, "u2": 1.0, "u3": 0.3},
        inventory={"ifu": 2, "u1": 1, "u2": 1},
        mode=mode,
        charge_fees=charge_fees,
    )


def _assert_matches_replay(summary, pre, txs, order, wealth_users=()):
    """Every :class:`EvalSummary` field equals what ``OVM.replay`` of
    ``order`` shows, floats compared bit for bit."""
    reference = OVM().replay(pre, tuple(txs[i] for i in order))
    final = reference.final_state
    assert summary.order == tuple(order)
    assert summary.executed == [s.executed for s in reference.steps]
    assert summary.prices_before == [
        s.result.price_before for s in reference.steps
    ]
    assert summary.remaining_after == [
        s.result.remaining_supply for s in reference.steps
    ]
    assert repr(summary.final_price) == repr(final.unit_price)
    assert summary.consistent == reference.consistent()
    assert summary.executed_count == reference.executed_count
    assert {user: repr(value) for user, value in summary.wealth.items()} == {
        user: repr(final.wealth(user)) for user in wealth_users
    }


def _poison_fixture():
    """Three burns and a mint over one live token: any order that burns
    three times before the mint burns past the global supply."""
    pre = L2State(
        NFTContractConfig(max_supply=4),
        balances={"a": 5.0, "b": 5.0},
        inventory={"a": 2},
        mode=ExecutionMode.BATCH,
    )
    txs = (_mint("b", nonce=0), _burn("a", nonce=1), _burn("a", nonce=2),
           _burn("a", nonce=3))
    return pre, txs


class TestDifferentialIdentity:
    """IncrementalOVM.evaluate ≡ OVM.replay over randomized order sequences."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        mode=st.sampled_from(list(ExecutionMode)),
        charge_fees=st.booleans(),
    )
    def test_matches_scratch_replay(self, seed, mode, charge_fees):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(3, 9))
        txs = _random_collection(rng, size)
        pre = _pre_state(mode, charge_fees)
        users = ("ifu", "u1")
        engine = IncrementalOVM(pre, txs, wealth_users=users)
        # A run of orders: identity, random permutations and prefixes —
        # forcing rewinds of every depth against the engine's current
        # order.
        orders = [tuple(range(size))]
        orders += [
            tuple(int(x) for x in rng.permutation(size)) for _ in range(8)
        ]
        orders += [
            tuple(int(x) for x in rng.permutation(size)[: size // 2])
            for _ in range(2)
        ]
        for order in orders:
            _assert_matches_replay(engine.evaluate(order), pre, txs, order, users)

    @pytest.mark.kernel
    def test_single_swap_resume(self):
        """A pairwise swap resumes from min(i, j), results unchanged."""
        rng = np.random.default_rng(7)
        txs = _random_collection(rng, 8)
        pre = _pre_state(ExecutionMode.BATCH, False)
        stats = ReplayEngineStats()
        engine = IncrementalOVM(pre, txs, stats=stats)
        order = list(range(8))
        engine.evaluate(order)
        assert stats.scratch_replays == 1
        order[2], order[5] = order[5], order[2]
        summary = engine.evaluate(order)
        assert stats.incremental_replays == 1
        assert stats.resume_depth_total == 2  # resumed at min(2, 5)
        assert stats.steps_undone == 6
        assert stats.steps_executed == 8 + 6
        _assert_matches_replay(summary, pre, txs, order)

    def test_summaries_survive_later_evaluations(self):
        """Summaries own their columns: later evaluations, which reuse
        the engine's buffers, leave an earlier summary unchanged."""
        rng = np.random.default_rng(11)
        txs = _random_collection(rng, 6)
        pre = _pre_state(ExecutionMode.BATCH, False)
        engine = IncrementalOVM(pre, txs, wealth_users=("ifu",))
        first = engine.evaluate(range(6))
        columns = (
            list(first.executed), list(first.prices_before),
            list(first.remaining_after), dict(first.wealth),
        )
        engine.evaluate(tuple(reversed(range(6))))
        engine.evaluate((5, 5, 5))
        assert columns == (
            first.executed, first.prices_before,
            first.remaining_after, first.wealth,
        )
        _assert_matches_replay(first, pre, txs, tuple(range(6)), ("ifu",))

    def test_prefix_orders_supported(self):
        rng = np.random.default_rng(3)
        txs = _random_collection(rng, 6)
        pre = _pre_state(ExecutionMode.STRICT, True)
        users = ("ifu", "u3")
        engine = IncrementalOVM(pre, txs, wealth_users=users)
        engine.evaluate(range(6))
        partial = engine.evaluate((0, 1, 2))
        _assert_matches_replay(partial, pre, txs, (0, 1, 2), users)

    def test_orders_longer_than_the_collection(self):
        """Repeated indices may make an order longer than N; the engine
        grows its per-position buffers and keeps the applied prefix."""
        rng = np.random.default_rng(8)
        txs = _random_collection(rng, 4)
        pre = _pre_state(ExecutionMode.BATCH, True)
        engine = IncrementalOVM(pre, txs, wealth_users=USERS)
        for order in [(0, 1, 2, 3), (0, 1, 2, 3, 0, 1, 2), (0, 1, 3, 3, 3, 2,
                      1, 0, 0), (0, 1)]:
            _assert_matches_replay(engine.evaluate(order), pre, txs, order, USERS)

    @pytest.mark.parametrize("charge_fees", [False, True])
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_self_transfers_rewind_exactly(self, mode, charge_fees):
        """A self-transfer debits and credits one balance; rewinding past
        it must restore the value before the debit, not after it."""
        pre = _pre_state(mode, charge_fees)
        txs = (
            _transfer("u1", "u1", nonce=0, priority_fee=0.7),
            _mint("ifu", nonce=1),
            _transfer("ifu", "ifu", nonce=2, priority_fee=0.3),
            _transfer("u1", "u2", nonce=3),
        )
        engine = IncrementalOVM(pre, txs, wealth_users=USERS)
        for order in [(0, 1, 2, 3), (1, 0, 2, 3), (1, 2, 0, 3), (3, 2, 1, 0),
                      (0, 1, 2, 3)]:
            _assert_matches_replay(engine.evaluate(order), pre, txs, order, USERS)

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_closed_form_prices_above_the_table_limit(self, mode):
        """Collections too large for a price table take Eq. 10's closed
        form, with the table's exact operation order."""
        rng = np.random.default_rng(23)
        txs = _random_collection(rng, 7)
        pre = L2State(
            NFTContractConfig(max_supply=PRICE_TABLE_LIMIT + 7),
            balances={"ifu": 4.0, "u1": 3.0, "u2": 1.0, "u3": 0.3},
            inventory={"ifu": 2, "u1": 1, "u2": 1},
            mode=mode,
            charge_fees=True,
        )
        assert pre.pricing.table() is None
        engine = IncrementalOVM(pre, txs, wealth_users=USERS)
        for _ in range(6):
            order = tuple(int(x) for x in rng.permutation(7))
            _assert_matches_replay(engine.evaluate(order), pre, txs, order, USERS)

    def test_engine_recovers_after_apply_error(self):
        """A mid-replay error (burn beyond supply) leaves the engine usable."""
        pre = L2State(
            NFTContractConfig(max_supply=3),
            balances={"a": 5.0, "b": 5.0},
            inventory={"a": 1},
            mode=ExecutionMode.BATCH,
        )
        txs = (_burn("a", nonce=0), _burn("a", nonce=1), _mint("b", nonce=2))
        engine = IncrementalOVM(pre, txs, wealth_users=("a", "b"))
        # Order (0, 1, 2): the second burn pushes supply above max -> raises,
        # exactly as OVM.replay would on the same sequence.
        with pytest.raises(TokenError) as mine:
            engine.evaluate((0, 1, 2))
        with pytest.raises(TokenError) as oracle:
            OVM().replay(pre, (txs[0], txs[1], txs[2]))
        assert str(mine.value) == str(oracle.value)
        # The engine must still answer valid orders correctly afterwards.
        order = (0, 2, 1)
        _assert_matches_replay(engine.evaluate(order), pre, txs, order, ("a", "b"))

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_out_of_range_index_rejected_before_any_change(self, bad):
        """Indices outside ``[0, N)`` raise IndexError, as in the batch
        kernel, and leave the engine's state and counters untouched."""
        rng = np.random.default_rng(5)
        txs = _random_collection(rng, 6)
        pre = _pre_state(ExecutionMode.BATCH, False)
        stats = ReplayEngineStats()
        engine = IncrementalOVM(pre, txs, stats=stats)
        with pytest.raises(IndexError):
            engine.evaluate((bad, 0, 1, 2, 3, 4))  # rejected on a fresh engine
        assert stats.as_dict() == ReplayEngineStats().as_dict()
        engine.evaluate(range(6))
        before = stats.as_dict()
        with pytest.raises(IndexError):
            engine.evaluate((0, 1, 2, bad, 4, 5))  # rejected in a resumed suffix
        assert stats.as_dict() == before
        order = (0, 1, 2, 5, 4, 3)
        _assert_matches_replay(engine.evaluate(order), pre, txs, order)


@pytest.mark.kernel
class TestKernelResume:
    """The kernel's cursor: each call's resume point and step counts."""

    def _engine(self, size=6, mode=ExecutionMode.BATCH, charge_fees=True):
        txs = _random_collection(np.random.default_rng(17), size)
        pre = _pre_state(mode, charge_fees)
        stats = ReplayEngineStats()
        return IncrementalOVM(pre, txs, stats=stats, wealth_users=USERS), pre, txs

    def test_rejected_order_keeps_the_resume_point(self):
        engine, pre, txs = self._engine()
        engine.evaluate(range(6))
        with pytest.raises(IndexError):
            engine.evaluate((0, 1, 2, 6, 4, 5))
        order = (0, 1, 2, 5, 4, 3)
        _assert_matches_replay(engine.evaluate(order), pre, txs, order, USERS)
        assert engine.stats.steps_undone == 3  # rewound from the identity

    def test_shorter_order_after_a_longer_one(self):
        engine, pre, txs = self._engine()
        stats = engine.stats
        engine.evaluate(range(6))
        shorter = (0, 1, 2, 3)
        _assert_matches_replay(engine.evaluate(shorter), pre, txs, shorter, USERS)
        assert (stats.resume_depth_total, stats.steps_undone) == (4, 2)
        assert stats.steps_executed == 6  # nothing stepped for the prefix
        longer = tuple(range(6))
        _assert_matches_replay(engine.evaluate(longer), pre, txs, longer, USERS)
        assert (stats.resume_depth_total, stats.steps_executed) == (8, 8)

    def test_same_order_twice_is_a_zero_step_resume(self):
        engine, pre, txs = self._engine(mode=ExecutionMode.STRICT)
        stats = engine.stats
        order = (3, 1, 4, 0, 5, 2)
        first = engine.evaluate(order)
        before = stats.steps_executed
        again = engine.evaluate(order)
        assert stats.steps_executed == before
        assert stats.steps_undone == 0
        assert stats.resume_depth_total == 6
        assert stats.steps_reused == 6
        for field in ("executed", "prices_before", "remaining_after",
                      "final_price", "consistent", "executed_count", "wealth"):
            assert getattr(again, field) == getattr(first, field)
        _assert_matches_replay(again, pre, txs, order, USERS)

    def test_burn_poisoned_suffix_then_resume_from_the_valid_prefix(self):
        pre, txs = _poison_fixture()
        stats = ReplayEngineStats()
        engine = IncrementalOVM(pre, txs, stats=stats, wealth_users=("a", "b"))
        engine.evaluate((1, 0, 2, 3))
        poisoned = (1, 2, 3, 0)  # the third burn finds no live token
        with pytest.raises(TokenError) as mine:
            engine.evaluate(poisoned)
        with pytest.raises(TokenError) as oracle:
            OVM().replay(pre, tuple(txs[i] for i in poisoned))
        assert str(mine.value) == str(oracle.value)
        # Resumed at position 1, stepped one burn, stopped at position 2.
        assert (stats.resume_depth_total, stats.steps_undone) == (1, 3)
        assert stats.steps_executed == 4 + 1
        order = (1, 2, 0, 3)
        summary = engine.evaluate(order)
        _assert_matches_replay(summary, pre, txs, order, ("a", "b"))
        assert stats.resume_depth_total == 1 + 2  # the valid prefix (1, 2)
        assert stats.steps_undone == 3  # nothing past the poison to undo


class TestCountingInventory:
    """O(1) counters stay exact under every mutation path."""

    def test_initial_totals(self):
        inv = CountingInventory({"a": 3, "b": 2})
        assert inv.total == 5
        assert inv.negative_count == 0

    def test_setitem_tracks_total_and_negatives(self):
        inv = CountingInventory()
        inv["a"] = 2
        inv["b"] = -1
        assert inv.total == 1
        assert inv.negative_count == 1
        inv["b"] = 1  # negative entry repaired
        assert inv.total == 3
        assert inv.negative_count == 0

    def test_delete_and_pop(self):
        inv = CountingInventory({"a": 2, "b": -3})
        del inv["a"]
        assert inv.total == -3
        assert inv.pop("b") == -3
        assert inv.total == 0
        assert inv.negative_count == 0
        assert inv.pop("missing", 7) == 7
        with pytest.raises(KeyError):
            inv.pop("missing")

    def test_update_clear_setdefault(self):
        inv = CountingInventory()
        inv.update({"a": 1, "b": 2})
        assert inv.total == 3
        assert inv.setdefault("c", 4) == 4
        assert inv.setdefault("a", 99) == 1
        assert inv.total == 7
        inv.clear()
        assert inv.total == 0 and inv.negative_count == 0

    def test_copy_independent(self):
        inv = CountingInventory({"a": 1})
        dup = inv.copy()
        dup["a"] = 5
        assert inv.total == 1
        assert dup.total == 5


class TestStateCounterInvalidation:
    """Cached price / supply stay correct through every transition."""

    def _state(self):
        return L2State(
            NFTContractConfig(max_supply=10),
            balances={"a": 5.0, "b": 5.0},
            inventory={"a": 2},
        )

    def test_mint_invalidates_price(self):
        state = self._state()
        before = state.unit_price
        state.apply(_mint("a"))
        assert state.minted_count == 3
        assert state.unit_price == state.pricing.price(7)
        assert state.unit_price > before

    def test_burn_invalidates_price(self):
        state = self._state()
        state.apply(_burn("a"))
        assert state.minted_count == 1
        assert state.unit_price == state.pricing.price(9)

    def test_transfer_keeps_cached_price(self):
        state = self._state()
        before = state.unit_price
        state.apply(_transfer("a", "b"))
        assert state.unit_price == before
        assert state.minted_count == 2

    def test_skipped_tx_changes_nothing(self):
        state = L2State(
            NFTContractConfig(max_supply=10), balances={"poor": 0.01}
        )
        before = state.unit_price
        result = state.apply(_mint("poor"))
        assert not result.executed
        assert state.unit_price == before
        assert state.minted_count == 0

    def test_external_inventory_mutation_seen(self):
        state = self._state()
        state.inventory["b"] = 3
        assert state.minted_count == 5
        assert state.unit_price == state.pricing.price(5)
        state.inventory["b"] = -1
        assert not state.inventory_is_consistent()

    def test_consistency_counter_matches_scan(self):
        state = self._state()
        state.mode = ExecutionMode.BATCH
        state.apply(_transfer("b", "a"))  # b goes net-negative in BATCH
        assert state.inventory["b"] == -1
        assert not state.inventory_is_consistent()
        state.apply(_mint("b"))
        assert state.inventory_is_consistent()


class TestPermutationCache:
    def test_hit_miss_counting(self):
        stats = ReplayEngineStats()
        cache = PermutationCache(maxsize=2, stats=stats)
        assert cache.get((0, 1)) is None
        cache.put((0, 1), "a")
        assert cache.get((0, 1)) == "a"
        assert stats.cache_misses == 1
        assert stats.cache_hits == 1
        assert stats.cache_hit_rate == 0.5

    def test_lru_eviction_order(self):
        stats = ReplayEngineStats()
        cache = PermutationCache(maxsize=2, stats=stats)
        cache.put((0,), "a")
        cache.put((1,), "b")
        cache.get((0,))  # refresh (0,) — (1,) becomes LRU
        cache.put((2,), "c")
        assert stats.cache_evictions == 1
        assert (1,) not in cache
        assert cache.get((0,)) == "a"
        assert cache.get((2,)) == "c"

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            PermutationCache(maxsize=0)
