"""The one deployment loop: build order, strict execution, the clock."""

import pytest

from repro.config import WorkloadConfig
from repro.faults import Deployment, FaultEvent, FaultKind, FaultPlan
from repro.rollup import Aggregator, ExecutionMode, Verifier
from repro.rollup.transaction import NFTTransaction, TxKind
from repro.workloads import generate_workload


@pytest.fixture
def workload():
    return generate_workload(
        WorkloadConfig(mempool_size=12, num_users=8, num_ifus=1, seed=4)
    )


def _deployment(workload, **overrides):
    arrivals = iter([workload.transactions[:6], workload.transactions[6:]])
    kwargs = dict(
        batch_size=6,
        aggregators=[Aggregator("agg-0")],
        verifiers=[Verifier("ver-0")],
        funding=[(user, 1.0) for user in workload.users],
        arrivals=lambda: next(arrivals, ()),
    )
    kwargs.update(overrides)
    return Deployment(workload.pre_state, **kwargs)


class InsertingAggregator(Aggregator):
    """Appends one transaction of its own to the first batch it seals."""

    def __init__(self, address, extra):
        super().__init__(address)
        self.extra = extra

    def order_transactions(self, pre_state, collected):
        extra, self.extra = self.extra, None
        return tuple(collected) + ((extra,) if extra else ())


class TestBuild:
    def test_executes_strict_on_a_copy(self, workload):
        workload.pre_state.mode = ExecutionMode.BATCH
        deployment = _deployment(workload)
        assert deployment.node.l2_state.mode is ExecutionMode.STRICT
        assert deployment.node.l2_state is not workload.pre_state
        assert workload.pre_state.mode is ExecutionMode.BATCH

    def test_checker_baseline_includes_funding(self, workload):
        # A checker built before the deposits would read every funded
        # ETH as unconserved on the first sweep.
        records = list(_deployment(workload).run(3))
        assert [r.sweep.violations for r in records] == [(), (), ()]


class TestRounds:
    def test_one_record_per_round_and_nothing_lost(self, workload):
        deployment = _deployment(workload)
        records = list(deployment.run(3))
        assert [r.index for r in records] == [0, 1, 2]
        assert [r.time for r in records] == [1.0, 2.0, 3.0]
        assert all(r.wall_ms >= 0.0 for r in records)
        checker = deployment.checker
        assert checker.accepted_count == len(workload.transactions)
        assert checker.included_surviving_count() + len(
            deployment.node.mempool
        ) == checker.accepted_count
        committed = [i for r in records for i in r.committed]
        assert committed == list(range(len(committed)))
        # The third round has no arrivals and an empty pool: it seals
        # nothing.
        assert records[2].report.results == []

    def test_landed_insertions_are_noted_once(self, workload):
        extra = NFTTransaction(
            kind=TxKind.MINT, sender=workload.users[0], label="inserted"
        )
        deployment = _deployment(
            workload, aggregators=[InsertingAggregator("agg-0", extra)]
        )
        records = list(deployment.run(2))
        assert [r.inserted for r in records] == [(extra,), ()]
        assert all(r.sweep.ok for r in records)


class TestClock:
    def _crash_at(self, time):
        return FaultPlan(events=(FaultEvent(
            time=time, kind=FaultKind.AGGREGATOR_CRASH, target="agg-0",
        ),))

    def test_event_before_a_round_fires_first(self, workload):
        deployment = _deployment(workload, plan=self._crash_at(0.5))
        (record,) = deployment.run(1)
        assert record.report.skipped_aggregators == ["agg-0"]

    def test_event_at_a_round_time_fires_after_it(self, workload):
        deployment = _deployment(workload, plan=self._crash_at(1.0))
        first, second = deployment.run(2)
        assert first.report.skipped_aggregators == []
        assert len(first.report.results) == 1
        assert second.report.skipped_aggregators == ["agg-0"]

    def test_rounds_follow_the_block_interval(self, workload):
        deployment = _deployment(workload, block_interval=2.5)
        assert [r.time for r in deployment.run(2)] == [2.5, 5.0]
