"""Crash-recovery semantics of the rollup pipeline.

Regression coverage for the mid-round failure paths: transactions from a
failed or successfully-challenged batch must always return to the
mempool, commitment retries are bounded with sim-time backoff, and
rounds degrade gracefully while operators are down.
"""

import pytest

from repro.config import RollupConfig, WorkloadConfig
from repro.faults import Deployment, FaultEvent, FaultKind, FaultPlan
from repro.rollup import Aggregator, RollupNode, Verifier
from repro.rollup.node import CommitRetry, RoundFailure
from repro.workloads import generate_workload


class ExplodingAggregator(Aggregator):
    """Raises mid-execution on demand."""

    def __init__(self, address, fail_times=1):
        super().__init__(address)
        self.fail_times = fail_times

    def process(self, pre_state, collected):
        if self.fail_times > 0:
            self.fail_times -= 1
            raise RuntimeError("boom")
        return super().process(pre_state, collected)


class LyingAggregator(Aggregator):
    """Always commits a forged post-state root."""

    def process(self, pre_state, collected):
        import dataclasses

        result = super().process(pre_state, collected)
        forged = dataclasses.replace(result.batch, post_state_root="0xforged")
        return dataclasses.replace(result, batch=forged)


@pytest.fixture
def workload():
    return generate_workload(
        WorkloadConfig(mempool_size=12, num_users=8, num_ifus=1,
                       min_ifu_involvement=3, seed=3)
    )


def make_node(workload, **config_overrides):
    config = RollupConfig(
        aggregator_mempool_size=6, challenge_period_blocks=2,
        **config_overrides,
    )
    node = RollupNode(l2_state=workload.pre_state.copy(), config=config)
    for user in workload.users:
        node.fund_and_deposit(user, 1.0)
    return node


class TestExecutionFailureRecovery:
    def test_failed_execution_requeues_and_reports(self, workload):
        """Regression: run_round used to propagate mid-round and silently
        lose the collected transactions."""
        node = make_node(workload)
        node.add_aggregator(ExplodingAggregator("agg-bad"))
        for tx in workload.transactions:
            node.submit(tx)
        before = len(node.mempool)
        root_before = node.current_state_root()

        report = node.run_round()

        assert len(node.mempool) == before  # nothing lost
        assert node.current_state_root() == root_before  # no half-advance
        assert report.results == []
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert isinstance(failure, RoundFailure)
        assert failure.stage == "execute"
        assert failure.requeued == 6
        assert "boom" in failure.error

    def test_later_aggregators_still_commit_after_failure(self, workload):
        node = make_node(workload)
        node.add_aggregator(ExplodingAggregator("agg-bad"))
        node.add_aggregator(Aggregator("agg-ok"))
        for tx in workload.transactions:
            node.submit(tx)
        report = node.run_round()
        assert len(report.failures) == 1
        assert len(report.results) == 1
        assert report.results[0].batch.aggregator == "agg-ok"

    def test_next_round_drains_requeued_transactions(self, workload):
        node = make_node(workload)
        node.add_aggregator(ExplodingAggregator("agg", fail_times=1))
        for tx in workload.transactions:
            node.submit(tx)
        node.run_round()
        report = node.run_round()  # aggregator recovered
        assert len(report.results) == 1
        assert report.failures == []


class TestCommitRetry:
    def test_injected_failure_below_budget_recovers(self, workload):
        node = make_node(workload)
        node.add_aggregator(Aggregator("agg-0"))
        node.inject_commit_failures(count=1)
        for tx in workload.transactions:
            node.submit(tx)
        report = node.run_round()
        assert len(report.results) == 1
        assert report.failures == []
        assert len(report.commit_retries) == 1
        retry = report.commit_retries[0]
        assert isinstance(retry, CommitRetry)
        assert retry.attempts == 2
        assert retry.backoff == pytest.approx(
            node.config.commit_backoff_base
        )

    def test_backoff_doubles_per_attempt(self, workload):
        node = make_node(workload, commit_max_retries=4)
        node.add_aggregator(Aggregator("agg-0"))
        node.inject_commit_failures(count=3)
        for tx in workload.transactions:
            node.submit(tx)
        report = node.run_round()
        base = node.config.commit_backoff_base
        assert report.commit_retries[0].attempts == 4
        assert report.commit_retries[0].backoff == pytest.approx(
            base + 2 * base + 4 * base
        )

    def test_exhausted_retries_requeue_collection(self, workload):
        node = make_node(workload)
        node.add_aggregator(Aggregator("agg-0"))
        node.inject_commit_failures(count=node.config.commit_max_retries)
        for tx in workload.transactions:
            node.submit(tx)
        before = len(node.mempool)
        report = node.run_round()
        assert report.results == []
        assert len(node.mempool) == before
        assert report.failures[0].stage == "commit"
        assert report.failures[0].attempts == node.config.commit_max_retries
        assert node.contract.batches == []

    def test_targeted_injection_spares_other_aggregators(self, workload):
        node = make_node(workload)
        node.add_aggregator(Aggregator("agg-0"))
        node.add_aggregator(Aggregator("agg-1"))
        node.inject_commit_failures(
            count=node.config.commit_max_retries, aggregator="agg-0"
        )
        for tx in workload.transactions:
            node.submit(tx)
        report = node.run_round()
        assert [f.aggregator for f in report.failures] == ["agg-0"]
        assert [r.batch.aggregator for r in report.results] == ["agg-1"]


class TestCrashRestart:
    def test_crashed_aggregator_is_skipped(self, workload):
        node = make_node(workload)
        node.add_aggregator(Aggregator("agg-0"))
        node.add_aggregator(Aggregator("agg-1"))
        node.aggregator_by_address("agg-0").crash()
        for tx in workload.transactions:
            node.submit(tx)
        report = node.run_round()
        assert report.skipped_aggregators == ["agg-0"]
        assert [r.batch.aggregator for r in report.results] == ["agg-1"]

    def test_restart_rejoins_rotation(self, workload):
        node = make_node(workload)
        node.add_aggregator(Aggregator("agg-0"))
        node.aggregator_by_address("agg-0").crash()
        for tx in workload.transactions:
            node.submit(tx)
        assert node.run_round().results == []
        node.aggregator_by_address("agg-0").restart()
        assert len(node.run_round().results) == 1

    def test_crashed_verifier_does_not_inspect(self, workload):
        node = make_node(workload)
        node.add_aggregator(LyingAggregator("agg-liar"))
        node.add_verifier(Verifier("ver-0"))
        node.verifier_by_address("ver-0").crash()
        for tx in workload.transactions:
            node.submit(tx)
        report = node.run_round()
        assert report.challenges == []
        node.verifier_by_address("ver-0").restart()
        report = node.run_round()
        assert report.challenges != []


class TestChallengedBatchRevert:
    def test_upheld_challenge_reverts_state_and_requeues(self, workload):
        node = make_node(workload)
        node.add_aggregator(LyingAggregator("agg-liar"))
        node.add_verifier(Verifier("ver-0"))
        for tx in workload.transactions:
            node.submit(tx)
        before = len(node.mempool)
        root_before = node.current_state_root()

        report = node.run_round()

        assert report.reverted_batch_ids == [0]
        assert node.contract.batch(0).status.value == "reverted"
        # The committed batch's transactions are back in the pool...
        assert len(node.mempool) == before
        # ...and the L2 state rolled back to the pre-state.
        assert node.current_state_root() == root_before

    def test_second_verifier_does_not_rechallenge_reverted_batch(self, workload):
        node = make_node(workload)
        node.add_aggregator(LyingAggregator("agg-liar"))
        node.add_verifier(Verifier("ver-0"))
        node.add_verifier(Verifier("ver-1"))
        for tx in workload.transactions:
            node.submit(tx)
        report = node.run_round()
        assert len(report.challenges) == 1  # inspection stops after revert


class TestMempoolStall:
    def test_stalled_mempool_produces_no_batch(self, workload):
        node = make_node(workload)
        node.add_aggregator(Aggregator("agg-0"))
        for tx in workload.transactions:
            node.submit(tx)
        node.mempool.stall()
        report = node.run_round()
        assert report.results == []
        node.mempool.resume()
        assert len(node.run_round().results) == 1


class TestSequencerDegradation:
    """Multi-round deployments keep sealing while operators are down."""

    @staticmethod
    def deploy(workload, aggregators, events=()):
        deployment = Deployment(
            workload.pre_state,
            batch_size=6,
            aggregators=aggregators,
            verifiers=[Verifier("ver-0")],
            funding=[(user, 1.0) for user in workload.users],
            plan=FaultPlan(events=tuple(
                FaultEvent(time=time, kind=kind, target=target)
                for time, kind, target in events
            )),
        )
        for tx in workload.transactions:
            deployment.submit(tx)
        return deployment

    def test_rotation_skips_crashed_aggregators(self, workload):
        deployment = self.deploy(
            workload,
            [Aggregator("bad"), Aggregator("good")],
            events=[(0.5, FaultKind.AGGREGATOR_CRASH, "bad")],
        )
        records = list(deployment.run(3))
        batches = [b for r in records for b in r.report.batches]
        assert batches
        assert all(batch.aggregator == "good" for batch in batches)
        assert all(r.report.skipped_aggregators == ["bad"] for r in records)
        assert len(deployment.node.mempool) == 0

    def test_all_crashed_skips_slot_instead_of_raising(self, workload):
        deployment = self.deploy(
            workload,
            [Aggregator("only")],
            events=[
                (0.5, FaultKind.AGGREGATOR_CRASH, "only"),
                (2.5, FaultKind.AGGREGATOR_RESTART, "only"),
            ],
        )
        first, second, third = deployment.run(3)
        assert first.report.results == [] and second.report.results == []
        assert first.report.skipped_aggregators == ["only"]
        assert len(third.report.results) == 1
        assert all(r.sweep.ok for r in (first, second, third))

    def test_failed_production_requeues(self, workload):
        deployment = self.deploy(
            workload, [ExplodingAggregator("flaky", fail_times=1)]
        )
        pending_before = len(deployment.node.mempool)
        records = list(deployment.run(3))
        assert sum(len(r.report.failures) for r in records) == 1
        assert len(deployment.node.mempool) == 0
        assert sum(
            len(b) for r in records for b in r.report.batches
        ) == pending_before
        assert all(r.sweep.ok for r in records)
