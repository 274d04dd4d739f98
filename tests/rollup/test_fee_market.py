"""Tests for the EIP-1559 fee market."""

import pytest

from repro.errors import RollupError
from repro.rollup import FeeMarket


@pytest.fixture
def market():
    return FeeMarket(base_fee=1.0, target_fullness=0.5)


class TestController:
    def test_full_block_raises_base_fee(self, market):
        updated = market.on_block(1.0)
        assert updated == pytest.approx(1.0 + 1.0 / 8.0)

    def test_empty_block_lowers_base_fee(self, market):
        updated = market.on_block(0.0)
        assert updated == pytest.approx(1.0 - 1.0 / 8.0)

    def test_target_block_keeps_base_fee(self, market):
        assert market.on_block(0.5) == pytest.approx(1.0)

    def test_change_clamped_to_one_eighth(self, market):
        # fullness=1 with target 0.25 gives pressure 3; still clamps.
        tight = FeeMarket(base_fee=1.0, target_fullness=0.25)
        assert tight.on_block(1.0) == pytest.approx(1.0 + 1.0 / 8.0)

    def test_base_fee_floor(self):
        market = FeeMarket(base_fee=0.011, min_base_fee=0.01)
        for _ in range(20):
            market.on_block(0.0)
        assert market.base_fee == pytest.approx(0.01)

    def test_sustained_congestion_compounds(self, market):
        fees = market.simulate([1.0] * 10)
        assert fees[-1] == pytest.approx((1.0 + 1.0 / 8.0) ** 10)
        assert all(a < b for a, b in zip(fees, fees[1:]))

    def test_fullness_validated(self, market):
        with pytest.raises(RollupError):
            market.on_block(1.5)

    def test_history_recorded(self, market):
        market.simulate([0.3, 0.9])
        assert len(market.history) == 2
        assert market.history[0][0] == 0.3


class TestSuggestions:
    def test_priority_fee_scales_with_urgency(self, market):
        patient = market.suggest_priority_fee(0.0)
        urgent = market.suggest_priority_fee(1.0)
        assert urgent > patient > 0

    def test_priority_fee_scales_with_base_fee(self, market):
        low = market.suggest_priority_fee(0.5)
        market.simulate([1.0] * 5)
        high = market.suggest_priority_fee(0.5)
        assert high > low

    def test_total_fee(self, market):
        assert market.total_fee(0.5) == pytest.approx(
            market.base_fee + market.suggest_priority_fee(0.5)
        )

    def test_urgency_validated(self, market):
        with pytest.raises(RollupError):
            market.suggest_priority_fee(2.0)


class TestSequencerIntegration:
    def test_sequencer_updates_market(self):
        from repro.config import WorkloadConfig
        from repro.faults import Deployment
        from repro.rollup import Aggregator
        from repro.workloads import generate_workload

        workload = generate_workload(
            WorkloadConfig(mempool_size=12, num_users=8, num_ifus=1, seed=4)
        )
        market = FeeMarket(base_fee=1.0, target_fullness=0.5)
        deployment = Deployment(
            workload.pre_state,
            batch_size=4,
            aggregators=[Aggregator("agg-0")],
            verifiers=[],
        )
        for tx in workload.transactions:
            deployment.submit(tx)
        for record in deployment.run(3):
            for batch in record.report.batches:
                market.on_block(len(batch) / deployment.batch_size)
        # Three full batches (4/4 fullness) -> base fee compounds upward.
        assert market.base_fee == pytest.approx((1.0 + 1.0 / 8.0) ** 3)
        assert len(market.history) == 3
