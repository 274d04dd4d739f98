"""Tests for the fault injector against live components."""

import numpy as np
import pytest

from repro.errors import FaultError
from repro.faults import ChaosTargets, FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.rollup import Aggregator, Verifier
from repro.rollup.mempool import BedrockMempool
from repro.sim import EventQueue, LatencyModel, SimNetwork


@pytest.fixture
def rig():
    queue = EventQueue()
    network = SimNetwork(
        queue, latency=LatencyModel(base=0.01, jitter=0.0),
        rng=np.random.default_rng(0),
    )
    network.register("a", lambda m: None)
    network.register("b", lambda m: None)
    mempool = BedrockMempool()
    aggregator = Aggregator("agg-0")
    verifier = Verifier("ver-0")
    injected = []
    targets = ChaosTargets(
        network=network,
        mempool=mempool,
        aggregators={"agg-0": aggregator},
        verifiers={"ver-0": verifier},
        inject_commit_failures=lambda count, agg: injected.append((count, agg)),
    )
    injector = FaultInjector(queue, targets)
    return queue, injector, targets, injected


class TestInstall:
    def test_past_events_rejected(self, rig):
        queue, injector, _, _ = rig
        queue.schedule(5.0, lambda: None)
        queue.run()
        plan = FaultPlan(events=(
            FaultEvent(time=1.0, kind=FaultKind.MEMPOOL_STALL),
        ))
        with pytest.raises(FaultError):
            injector.install(plan)

    def test_events_fire_at_plan_times(self, rig):
        queue, injector, targets, _ = rig
        injector.install(FaultPlan(events=(
            FaultEvent(time=1.0, kind=FaultKind.AGGREGATOR_CRASH, target="agg-0"),
            FaultEvent(time=4.0, kind=FaultKind.AGGREGATOR_RESTART, target="agg-0"),
        )))
        queue.run_before(2.0)
        assert not targets.aggregators["agg-0"].alive
        queue.run()
        assert targets.aggregators["agg-0"].alive
        assert [t for t, _ in injector.applied] == [1.0, 4.0]


class TestApply:
    def test_crash_restart_records_recovery_latency(self, rig):
        queue, injector, _, _ = rig
        injector.install(FaultPlan(events=(
            FaultEvent(time=1.0, kind=FaultKind.VERIFIER_CRASH, target="ver-0"),
            FaultEvent(time=3.5, kind=FaultKind.VERIFIER_RESTART, target="ver-0"),
        )))
        queue.run()
        assert len(injector.recoveries) == 1
        record = injector.recoveries[0]
        assert record.kind == "verifier-crash"
        assert record.latency == pytest.approx(2.5)

    def test_partition_and_heal_toggle_link(self, rig):
        queue, injector, targets, _ = rig
        injector.install(FaultPlan(events=(
            FaultEvent(time=1.0, kind=FaultKind.PARTITION, target="a", peer="b"),
            FaultEvent(time=2.0, kind=FaultKind.HEAL, target="a", peer="b"),
        )))
        queue.run_before(1.5)
        assert not targets.network.send("a", "b", "ping")
        queue.run()
        assert targets.network.send("a", "b", "ping")

    def test_drop_burst_restores_previous_rate(self, rig):
        queue, injector, targets, _ = rig
        targets.network.set_drop_rate(0.05)
        injector.install(FaultPlan(events=(
            FaultEvent(time=1.0, kind=FaultKind.DROP_BURST, value=0.6),
            FaultEvent(time=2.0, kind=FaultKind.DROP_RESTORE),
        )))
        queue.run_before(1.5)
        assert targets.network.drop_rate == 0.6
        queue.run()
        assert targets.network.drop_rate == 0.05

    def test_stall_and_resume_mempool(self, rig):
        queue, injector, targets, _ = rig
        injector.install(FaultPlan(events=(
            FaultEvent(time=1.0, kind=FaultKind.MEMPOOL_STALL),
            FaultEvent(time=2.0, kind=FaultKind.MEMPOOL_RESUME),
        )))
        queue.run_before(1.5)
        assert targets.mempool.stalled
        queue.run()
        assert not targets.mempool.stalled

    def test_commit_failure_reaches_hook(self, rig):
        queue, injector, _, injected = rig
        injector.install(FaultPlan(events=(
            FaultEvent(
                time=1.0, kind=FaultKind.COMMIT_FAILURE,
                target="agg-0", value=2.0,
            ),
        )))
        queue.run()
        assert injected == [(2, "agg-0")]

    def test_unknown_target_raises(self, rig):
        _, injector, _, _ = rig
        with pytest.raises(FaultError):
            injector.apply(
                FaultEvent(time=0.0, kind=FaultKind.AGGREGATOR_CRASH,
                           target="ghost")
            )

    def test_counts_by_kind_tallies_applied(self, rig):
        queue, injector, _, _ = rig
        injector.install(FaultPlan(events=(
            FaultEvent(time=1.0, kind=FaultKind.MEMPOOL_STALL),
            FaultEvent(time=2.0, kind=FaultKind.MEMPOOL_RESUME),
        )))
        queue.run()
        assert injector.counts_by_kind() == {
            "mempool-stall": 1, "mempool-resume": 1,
        }


class TestMissingHandles:
    def test_missing_network_raises(self):
        queue = EventQueue()
        injector = FaultInjector(queue, ChaosTargets())
        with pytest.raises(FaultError):
            injector.apply(
                FaultEvent(time=0.0, kind=FaultKind.DROP_BURST, value=0.5)
            )

    def test_missing_commit_hook_raises(self):
        injector = FaultInjector(EventQueue(), ChaosTargets())
        with pytest.raises(FaultError):
            injector.apply(
                FaultEvent(time=0.0, kind=FaultKind.COMMIT_FAILURE, value=1.0)
            )
