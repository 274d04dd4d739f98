"""Tests for the end-to-end rollup node."""

import pytest

from repro.config import RollupConfig, WorkloadConfig
from repro.errors import RollupError
from repro.rollup import (
    AdversarialAggregator,
    Aggregator,
    RollupNode,
    Verifier,
)
from repro.strategies import ReordererStrategy
from repro.workloads import generate_workload


@pytest.fixture
def node_setup():
    workload = generate_workload(
        WorkloadConfig(mempool_size=12, num_users=8, num_ifus=1,
                       min_ifu_involvement=3, seed=3)
    )
    node = RollupNode(
        l2_state=workload.pre_state,
        config=RollupConfig(aggregator_mempool_size=6,
                            challenge_period_blocks=2),
    )
    for user in workload.users:
        node.fund_and_deposit(user, 1.0)
    return node, workload


class TestSetup:
    def test_deposit_credits_l2(self, node_setup):
        node, workload = node_setup
        user = workload.users[0]
        assert node.contract.l2_balance(user) > 0

    def test_round_without_aggregators_raises(self, node_setup):
        node, _ = node_setup
        with pytest.raises(RollupError):
            node.run_round()


class TestRounds:
    def test_round_commits_batches(self, node_setup):
        node, workload = node_setup
        node.add_aggregator(Aggregator("agg-0"))
        node.add_aggregator(Aggregator("agg-1"))
        for tx in workload.transactions:
            node.submit(tx)
        report = node.run_round()
        assert len(report.batches) == 2
        assert len(node.contract.batches) == 2

    def test_honest_round_unchallenged(self, node_setup):
        node, workload = node_setup
        node.add_aggregator(Aggregator("agg-0"))
        node.add_verifier(Verifier("ver-0"))
        for tx in workload.transactions:
            node.submit(tx)
        report = node.run_round()
        assert report.challenges == []

    def test_adversarial_round_also_unchallenged(self, node_setup):
        node, workload = node_setup
        node.add_aggregator(
            AdversarialAggregator(
                "evil",
                strategy=ReordererStrategy(lambda s, c: tuple(reversed(c))),
            )
        )
        node.add_verifier(Verifier("ver-0"))
        for tx in workload.transactions:
            node.submit(tx)
        report = node.run_round()
        assert report.attacked
        assert report.challenges == []

    def test_mempool_drained_in_fee_order(self, node_setup):
        node, workload = node_setup
        node.add_aggregator(Aggregator("agg-0"))
        for tx in workload.transactions:
            node.submit(tx)
        report = node.run_round(collect_per_aggregator=4)
        fees = [tx.total_fee for tx in report.results[0].original_order]
        assert fees == sorted(fees, reverse=True)

    def test_finalization_after_window(self, node_setup):
        node, workload = node_setup
        node.add_aggregator(Aggregator("agg-0"))
        for tx in workload.transactions:
            node.submit(tx)
        node.run_round()
        assert node.finalize_ready_batches() == []  # window still open
        node.advance_challenge_window()
        finalized = node.finalize_ready_batches()
        assert finalized != []

    def test_state_advances_across_batches(self, node_setup):
        node, workload = node_setup
        node.add_aggregator(Aggregator("agg-0"))
        root_before = node.current_state_root()
        for tx in workload.transactions:
            node.submit(tx)
        node.run_round()
        assert node.current_state_root() != root_before

    def test_l1_chain_grows_per_round(self, node_setup):
        node, workload = node_setup
        node.add_aggregator(Aggregator("agg-0"))
        for tx in workload.transactions:
            node.submit(tx)
        height_before = node.chain.height
        node.run_round()
        assert node.chain.height == height_before + 1
        assert node.chain.verify_ancestry()
