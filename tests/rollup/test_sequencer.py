"""How rollup rounds sequence the mempool into L1 batches.

Rounds run on the deployment's block-interval clock; each round every
live aggregator, in registration order, seals one batch from the
mempool and commits it on L1.
"""

import pytest

from repro.config import WorkloadConfig
from repro.errors import RollupError
from repro.faults import Deployment
from repro.rollup import Aggregator, AdversarialAggregator, Verifier
from repro.strategies import ReordererStrategy
from repro.workloads import generate_workload


@pytest.fixture
def workload():
    return generate_workload(
        WorkloadConfig(mempool_size=12, num_users=8, num_ifus=1, seed=4)
    )


def make_deployment(workload, aggregators=None):
    return Deployment(
        workload.pre_state,
        batch_size=4,
        aggregators=(
            [Aggregator("agg-0")] if aggregators is None else aggregators
        ),
        verifiers=[Verifier("ver-0")],
        funding=[(user, 1.0) for user in workload.users],
        block_interval=2,
    )


def run_until_empty(deployment, limit=10):
    """Rounds until the mempool is drained, at most ``limit``."""
    records = []
    for record in deployment.run(limit):
        records.append(record)
        if len(deployment.node.mempool) == 0:
            break
    return records


def submit_all(deployment, workload):
    for tx in workload.transactions:
        deployment.submit(tx)


def batches(records):
    return [batch for r in records for batch in r.report.batches]


class TestClock:
    def test_empty_interval_seals_nothing(self, workload):
        deployment = make_deployment(workload)
        records = list(deployment.run(2))
        assert [r.time for r in records] == [2.0, 4.0]
        assert all(r.report.results == [] for r in records)
        assert all(r.committed == () for r in records)
        assert deployment.node.contract.batches == []

    def test_no_aggregators_raises(self, workload):
        deployment = make_deployment(workload, aggregators=[])
        with pytest.raises(RollupError):
            next(deployment.run(1))


class TestBlockProduction:
    def test_run_until_empty_drains(self, workload):
        deployment = make_deployment(workload)
        submit_all(deployment, workload)
        records = run_until_empty(deployment)
        assert len(deployment.node.mempool) == 0
        assert len(records) == 3  # 12 txs / 4 per batch, one aggregator
        assert sum(len(b) for b in batches(records)) == 12

    def test_blocks_numbered_sequentially(self, workload):
        deployment = make_deployment(workload)
        submit_all(deployment, workload)
        records = run_until_empty(deployment)
        assert [i for r in records for i in r.committed] == [0, 1, 2]
        assert [c.batch_id for c in deployment.node.contract.batches] == [
            0, 1, 2,
        ]

    def test_round_robin_aggregators(self, workload):
        deployment = make_deployment(
            workload, aggregators=[Aggregator("agg-0"), Aggregator("agg-1")]
        )
        submit_all(deployment, workload)
        records = run_until_empty(deployment)
        assert [b.aggregator for b in batches(records)] == [
            "agg-0", "agg-1", "agg-0",
        ]
        assert len(records) == 2

    def test_adversarial_aggregator_in_rotation(self, workload):
        evil = AdversarialAggregator(
            "evil",
            strategy=ReordererStrategy(lambda s, c: tuple(reversed(c))),
        )
        deployment = make_deployment(
            workload, aggregators=[Aggregator("agg-0"), evil]
        )
        submit_all(deployment, workload)
        records = run_until_empty(deployment)
        assert any(b.aggregator == "evil" for b in batches(records))
        assert any(r.report.attacked for r in records)
        # Reordering is valid execution: no verifier challenges it and
        # the invariant sweep stays clean.
        assert all(r.report.challenges == [] for r in records)
        assert all(r.sweep.ok for r in records)
