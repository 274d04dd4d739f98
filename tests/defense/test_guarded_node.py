"""Integration tests: the guard inside the rollup pipeline."""

import pytest

from repro.config import (
    AttackConfig,
    DefenseConfig,
    GenTranSeqConfig,
    RollupConfig,
    WorkloadConfig,
)
from repro.core import ParoleAttack
from repro.defense import GuardedRollupNode
from repro.rollup import AdversarialAggregator, Aggregator, Verifier
from repro.workloads import generate_workload

PROBE = GenTranSeqConfig(episodes=6, steps_per_episode=30, seed=0)


@pytest.fixture
def setup():
    workload = generate_workload(
        WorkloadConfig(mempool_size=10, num_users=8, num_ifus=1,
                       min_ifu_involvement=4, seed=9)
    )
    node = GuardedRollupNode(
        l2_state=workload.pre_state.copy(),
        config=RollupConfig(aggregator_mempool_size=10,
                            challenge_period_blocks=2),
        defense_config=DefenseConfig(profit_threshold_eth=0.02,
                                     fee_scaled_threshold=False),
        probe_config=PROBE,
    )
    for user in workload.users:
        node.fund_and_deposit(user, 1.0)
    return node, workload


class TestGuardedRound:
    def test_guard_demotes_and_requeues(self, setup):
        node, workload = setup
        node.add_aggregator(Aggregator("agg-0"))
        for tx in workload.transactions:
            node.submit(tx)
        report = node.run_round()
        assert report.flagged_batches >= 1
        assert report.total_demoted >= 1
        # Demoted transactions went back into the mempool.
        assert len(node.mempool) == report.total_demoted

    def test_attack_profit_bounded_by_threshold(self, setup):
        """The attacker acting on the sanitised batch cannot extract more
        than the configured threshold."""
        node, workload = setup
        attack = ParoleAttack(
            config=AttackConfig(ifu_accounts=workload.ifus, gentranseq=PROBE)
        )
        node.add_aggregator(
            AdversarialAggregator("evil", strategy=attack.as_strategy())
        )
        for tx in workload.transactions:
            node.submit(tx)
        report = node.run_round()
        plan = report.plans[0]
        assert plan.resolved
        assert attack.total_profit() <= plan.final_report.threshold_eth + 1e-9

    def test_undefended_attack_exceeds_threshold(self, setup):
        """Sanity contrast: without the guard, the same attacker exceeds
        the threshold on the same workload."""
        _, workload = setup
        attack = ParoleAttack(
            config=AttackConfig(ifu_accounts=workload.ifus, gentranseq=PROBE)
        )
        outcome = attack.run(workload.pre_state, workload.transactions)
        assert outcome.profit > 0.02

    def test_batches_still_verify(self, setup):
        node, workload = setup
        node.add_aggregator(Aggregator("agg-0"))
        node.add_verifier(Verifier("watcher"))
        for tx in workload.transactions:
            node.submit(tx)
        report = node.run_round()
        assert report.challenges == []

    def test_demoted_transactions_processable_next_round(self, setup):
        node, workload = setup
        node.add_aggregator(Aggregator("agg-0"))
        for tx in workload.transactions:
            node.submit(tx)
        first = node.run_round()
        if first.total_demoted:
            second = node.run_round()
            total_included = sum(len(b) for b in first.batches) + sum(
                len(b) for b in second.batches
            )
            # Everything is eventually included (possibly re-demoted txs
            # remain, but the pipeline keeps making progress).
            assert total_included >= len(workload.transactions) - len(
                node.mempool
            )
