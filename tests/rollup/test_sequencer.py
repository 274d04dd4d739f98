"""Tests for the fixed-interval L2 sequencer."""

import pytest

from repro.config import RollupConfig, WorkloadConfig
from repro.errors import RollupError
from repro.rollup import Aggregator, AdversarialAggregator, Sequencer
from repro.strategies import ReordererStrategy
from repro.workloads import generate_workload


@pytest.fixture
def setup():
    workload = generate_workload(
        WorkloadConfig(mempool_size=12, num_users=8, num_ifus=1, seed=4)
    )
    sequencer = Sequencer(
        workload.pre_state.copy(),
        config=RollupConfig(block_interval=2, aggregator_mempool_size=4),
    )
    sequencer.register(Aggregator("agg-0"))
    return workload, sequencer


class TestClock:
    def test_no_block_off_interval(self, setup):
        workload, sequencer = setup
        sequencer.submit(workload.transactions[0])
        assert sequencer.tick() is None      # tick 1: off-interval
        assert sequencer.tick() is not None  # tick 2: block boundary

    def test_empty_interval_seals_nothing(self, setup):
        _, sequencer = setup
        assert sequencer.tick() is None
        assert sequencer.tick() is None
        assert sequencer.height == 0

    def test_no_aggregators_raises(self, setup):
        workload, _ = setup
        lonely = Sequencer(workload.pre_state.copy())
        with pytest.raises(RollupError):
            lonely.tick()


class TestBlockProduction:
    def test_run_until_empty_drains(self, setup):
        workload, sequencer = setup
        for tx in workload.transactions:
            sequencer.submit(tx)
        blocks = sequencer.run_until_empty()
        assert len(sequencer.mempool) == 0
        assert len(blocks) == 3  # 12 txs / 4 per block
        assert sum(b.tx_count for b in blocks) == 12

    def test_blocks_numbered_sequentially(self, setup):
        workload, sequencer = setup
        for tx in workload.transactions:
            sequencer.submit(tx)
        blocks = sequencer.run_until_empty()
        assert [b.number for b in blocks] == [0, 1, 2]

    def test_parent_hashes_chain(self, setup):
        workload, sequencer = setup
        for tx in workload.transactions:
            sequencer.submit(tx)
        sequencer.run_until_empty()
        assert sequencer.verify_chain()

    def test_head_state_root_matches_state(self, setup):
        workload, sequencer = setup
        from repro.rollup import state_root
        for tx in workload.transactions:
            sequencer.submit(tx)
        sequencer.run_until_empty()
        assert sequencer.head.state_root == state_root(sequencer.state)

    def test_round_robin_aggregators(self, setup):
        workload, sequencer = setup
        sequencer.register(Aggregator("agg-1"))
        for tx in workload.transactions:
            sequencer.submit(tx)
        blocks = sequencer.run_until_empty()
        assert [b.aggregator for b in blocks] == ["agg-0", "agg-1", "agg-0"]

    def test_adversarial_aggregator_in_rotation(self, setup):
        workload, sequencer = setup
        sequencer.register(
            AdversarialAggregator(
                "evil",
                strategy=ReordererStrategy(lambda s, c: tuple(reversed(c))),
            )
        )
        for tx in workload.transactions:
            sequencer.submit(tx)
        blocks = sequencer.run_until_empty()
        assert sequencer.verify_chain()
        assert any(b.aggregator == "evil" for b in blocks)
