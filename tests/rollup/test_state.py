"""Tests for the L2 state machine (Eq. 1-6 semantics, both modes)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NFTContractConfig
from repro.errors import InvalidTransactionError
from repro.rollup import ExecutionMode, L2State, NFTTransaction, TxKind
from repro.rollup.state import CountingInventory
from repro.tokens import TxValidity


def mint(sender, **kw):
    return NFTTransaction(kind=TxKind.MINT, sender=sender, **kw)


def transfer(sender, recipient, **kw):
    return NFTTransaction(kind=TxKind.TRANSFER, sender=sender, recipient=recipient, **kw)


def burn(sender, **kw):
    return NFTTransaction(kind=TxKind.BURN, sender=sender, **kw)


class TestConstruction:
    def test_initial_price_reflects_inventory(self, pt_config):
        state = L2State(pt_config, inventory={"a": 5})
        assert state.unit_price == pytest.approx(0.4)

    def test_over_supply_inventory_rejected(self, pt_config):
        with pytest.raises(InvalidTransactionError):
            L2State(pt_config, inventory={"a": 11})

    def test_negative_inventory_rejected(self, pt_config):
        with pytest.raises(InvalidTransactionError):
            L2State(pt_config, inventory={"a": -1})

    def test_wealth_combines_cash_and_tokens(self, pt_config):
        state = L2State(pt_config, balances={"a": 1.5}, inventory={"a": 2, "b": 3})
        assert state.wealth("a") == pytest.approx(1.5 + 2 * 0.4)


class TestMintSemantics:
    def test_mint_applies_eq2(self, basic_state):
        price_before = basic_state.unit_price
        result = basic_state.apply(mint("alice"))
        assert result.executed
        assert basic_state.holdings("alice") == 2
        assert basic_state.balance("alice") == pytest.approx(2.0 - price_before)
        assert basic_state.remaining_supply == 7

    def test_mint_insufficient_balance_skipped(self, pt_config):
        state = L2State(pt_config, balances={"poor": 0.05})
        result = state.apply(mint("poor"))
        assert not result.executed
        assert result.validity is TxValidity.INSUFFICIENT_BALANCE
        assert state.holdings("poor") == 0

    def test_mint_supply_exhausted_skipped(self, pt_config):
        state = L2State(
            pt_config, balances={"rich": 100.0},
            inventory={"whale": 10},
        )
        result = state.apply(mint("rich"))
        assert not result.executed
        assert result.validity is TxValidity.SUPPLY_EXHAUSTED

    def test_skipped_tx_freezes_price(self, pt_config):
        state = L2State(pt_config, balances={"poor": 0.01})
        result = state.apply(mint("poor"))
        assert result.price_before == result.price_after


class TestTransferSemantics:
    def test_transfer_applies_eq4(self, basic_state):
        price = basic_state.unit_price
        result = basic_state.apply(transfer("alice", "bob"))
        assert result.executed
        assert basic_state.holdings("alice") == 0
        assert basic_state.holdings("bob") == 2
        assert basic_state.balance("alice") == pytest.approx(2.0 + price)
        assert basic_state.balance("bob") == pytest.approx(2.0 - price)

    def test_transfer_keeps_price(self, basic_state):
        before = basic_state.unit_price
        basic_state.apply(transfer("alice", "bob"))
        assert basic_state.unit_price == before

    def test_transfer_conserves_cash(self, basic_state):
        total = sum(basic_state.balances.values())
        basic_state.apply(transfer("alice", "bob"))
        assert sum(basic_state.balances.values()) == pytest.approx(total)

    def test_poor_buyer_skipped_in_both_modes(self, pt_config):
        for mode in ExecutionMode:
            state = L2State(
                pt_config, balances={"a": 5.0, "b": 0.0},
                inventory={"a": 1}, mode=mode,
            )
            result = state.apply(transfer("a", "b"))
            assert not result.executed
            assert result.validity is TxValidity.INSUFFICIENT_BALANCE


class TestBurnSemantics:
    def test_burn_applies_eq6(self, basic_state):
        price_before = basic_state.unit_price
        result = basic_state.apply(burn("alice"))
        assert result.executed
        assert basic_state.holdings("alice") == 0
        assert basic_state.remaining_supply == 9
        assert basic_state.unit_price < price_before

    def test_burn_does_not_touch_balances(self, basic_state):
        basic_state.apply(burn("alice"))
        assert basic_state.balance("alice") == 2.0


class TestModes:
    def test_strict_blocks_non_owner_transfer(self, pt_config):
        state = L2State(
            pt_config, balances={"a": 5.0, "b": 5.0},
            mode=ExecutionMode.STRICT,
        )
        result = state.apply(transfer("a", "b"))
        assert not result.executed
        assert result.validity is TxValidity.NOT_OWNER

    def test_batch_allows_transient_negative_inventory(self, pt_config):
        state = L2State(
            pt_config, balances={"a": 5.0, "b": 5.0},
            mode=ExecutionMode.BATCH,
        )
        result = state.apply(transfer("a", "b"))
        assert result.executed
        assert state.holdings("a") == -1
        assert not state.inventory_is_consistent()

    def test_batch_netting_restores_consistency(self, pt_config):
        state = L2State(
            pt_config, balances={"a": 5.0, "b": 5.0},
            mode=ExecutionMode.BATCH,
        )
        state.apply(transfer("a", "b"))   # a goes to -1
        state.apply(mint("a"))            # nets back to 0
        assert state.inventory_is_consistent()

    def test_strict_blocks_non_owner_burn(self, pt_config):
        state = L2State(pt_config, balances={"a": 5.0}, mode=ExecutionMode.STRICT)
        result = state.apply(burn("a"))
        assert not result.executed
        assert result.validity is TxValidity.NOT_OWNER


class TestCopy:
    def test_copy_is_deep(self, basic_state):
        clone = basic_state.copy()
        clone.apply(mint("alice"))
        assert basic_state.holdings("alice") == 1
        assert clone.holdings("alice") == 2

    def test_canonical_items_stable(self, basic_state):
        assert basic_state.canonical_items() == basic_state.copy().canonical_items()

    def test_copy_keeps_counters_of_a_transient_negative_state(self, pt_config):
        state = L2State(
            pt_config, balances={"a": 5.0, "b": 5.0}, inventory={"c": 2},
            mode=ExecutionMode.BATCH,
        )
        state.apply(transfer("a", "b"))  # a goes to -1 mid-batch
        clone = state.copy()
        # The reference: re-insert every key, which recounts both counters.
        recounted = CountingInventory(dict.copy(state.inventory))
        assert clone.inventory == recounted == {"a": -1, "b": 1, "c": 2}
        assert clone.inventory.total == recounted.total == 2
        assert clone.inventory.negative_count == recounted.negative_count == 1
        assert not clone.inventory_is_consistent()

        clone.apply(mint("a"))  # nets the copy back to 0
        clone.inventory["c"] = 7
        assert clone.inventory_is_consistent()
        assert state.inventory == {"a": -1, "b": 1, "c": 2}
        assert state.inventory.total == 2
        assert state.inventory.negative_count == 1
        assert state.minted_count == 2

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.text(max_size=3), st.integers(-5, 5), max_size=12))
    def test_property_inventory_copy_matches_recount(self, entries):
        inventory = CountingInventory(entries)
        clone = inventory.copy()
        recounted = CountingInventory(dict.copy(inventory))
        assert type(clone) is CountingInventory
        assert clone == recounted == entries
        assert (clone.total, clone.negative_count) == (
            recounted.total, recounted.negative_count,
        )
        clone["new"] = -3
        assert "new" not in inventory
        assert (inventory.total, inventory.negative_count) == (
            recounted.total, recounted.negative_count,
        )


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2), max_size=25))
    def test_property_supply_conserved_in_strict_mode(self, choices):
        state = L2State(
            NFTContractConfig(max_supply=12, initial_price_eth=0.05),
            balances={"a": 100.0, "b": 100.0},
            inventory={"a": 2, "b": 2},
            mode=ExecutionMode.STRICT,
        )
        txs = [mint("a"), transfer("a", "b"), burn("b")]
        for choice in choices:
            state.apply(txs[choice])
            live = state.minted_count
            assert live + state.remaining_supply == 12
            assert state.inventory_is_consistent()
            assert all(b >= -1e-9 for b in state.balances.values())
