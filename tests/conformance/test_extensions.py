"""Claims of the reproduction's extensions beyond the paper, in Tier-1.

* Section VIII defense: the probe-and-demote threshold sweep, and the
  order-commitment protocol fix that catches the attack outright;
* campaign: a persistent agent across rounds vs fresh agents;
* timed deployment: Section VII-F's "time is critical in off-chain
  transaction processing" made concrete — a reordering that misses the
  Bedrock slot deadline forfeits the arbitrage.
"""

import time

import pytest

from repro.config import AttackConfig, GenTranSeqConfig, WorkloadConfig
from repro.core import ParoleAttack, cold_vs_warm
from repro.defense import OrderCheckingVerifier, commit_with_order
from repro.experiments import EffortPreset, run_defense_eval
from repro.sim import TimedRollupScenario
from repro.workloads import case_study_fixture, generate_workload


def test_defense_threshold_sweep():
    """Lower thresholds flag at least as often as higher ones."""
    points = run_defense_eval(
        thresholds=(0.01, 0.3),
        rounds=2,
        mempool_size=10,
        preset=EffortPreset(
            name="bench", episodes=4, steps_per_episode=25, trials=1
        ),
        seed=0,
    )

    assert len(points) == 2
    low, high = points
    assert low.detection_rate >= high.detection_rate
    # Residual profit after mitigation never exceeds the pre-mitigation
    # worst case by construction.
    assert all(p.mean_residual_profit_eth >= 0 for p in points)


def test_order_commitment_alternative():
    """The protocol-level fix: an order commitment catches the attack
    with one extra digest per batch, where the probe-based defense costs
    a GENTRANSEQ run per pending batch."""
    workload = case_study_fixture()
    attack = ParoleAttack(
        config=AttackConfig(
            ifu_accounts=workload.ifus,
            gentranseq=GenTranSeqConfig(
                episodes=6, steps_per_episode=30, seed=3
            ),
        )
    )
    outcome = attack.run(workload.pre_state, workload.transactions)
    verifier = OrderCheckingVerifier("order-watcher")

    started = time.perf_counter()
    committed = commit_with_order(
        "evil", workload.pre_state, workload.transactions,
        executed_order=outcome.executed_sequence,
    )
    report = verifier.inspect_committed(committed, workload.pre_state)
    check_cost = time.perf_counter() - started

    assert outcome.attacked
    assert not report.execution.should_challenge  # execution was honest
    assert report.should_challenge                # ordering was not
    assert check_cost < 1.0                       # near-free check


def test_campaign_cold_vs_warm():
    """The campaign machinery: identical first rounds, bounded hit rate.

    Results do not depend on the task runner, so the cold rounds run
    serially here.
    """
    cold, warm = cold_vs_warm(
        WorkloadConfig(
            mempool_size=10, num_users=8, num_ifus=1,
            min_ifu_involvement=3, seed=0,
        ),
        GenTranSeqConfig(episodes=4, steps_per_episode=25, seed=0),
        rounds=4,
    )

    assert len(cold.rounds) == len(warm.rounds) == 4
    # Round 0 is identical by construction (same seed, untrained agent).
    assert cold.rounds[0].profit_eth == pytest.approx(warm.rounds[0].profit_eth)
    assert 0.0 <= warm.hit_rate <= 1.0
    assert warm.total_profit_eth >= 0.0


def _timed_reorderer(workload):
    attack = ParoleAttack(
        config=AttackConfig(
            ifu_accounts=workload.ifus,
            gentranseq=GenTranSeqConfig(episodes=3, steps_per_episode=20, seed=0),
        )
    )

    def reorder(pre_state, collected):
        started = time.perf_counter()
        executed = attack.run(pre_state, collected).executed_sequence
        # Simulated compute cost = measured wall time, scaled into the
        # simulation's time units (1 sim unit ~ 1 second of compute).
        return executed, time.perf_counter() - started

    return reorder


def test_deadline_gates_the_attack():
    """A reorder deadline below the DQN's compute cost suppresses the
    attack without hurting liveness; a generous one lets it fire."""
    workload = generate_workload(
        WorkloadConfig(mempool_size=16, num_users=10, num_ifus=1,
                       min_ifu_involvement=4, seed=5)
    )
    tight, generous = (
        TimedRollupScenario(
            workload,
            collect_size=8,
            reorderer=_timed_reorderer(workload),
            reorder_deadline=deadline,
            seed=0,
        ).run()
        for deadline in (1e-4, 10.0)
    )

    # A deadline far below real DQN compute suppresses the attack...
    assert tight.attacks_fired == 0
    assert tight.missed_deadlines > 0
    # ...while a generous one lets it fire.
    assert generous.attacks_fired > 0
    assert generous.missed_deadlines == 0
    # Liveness holds in every configuration.
    assert tight.transactions_included == 16
    assert generous.transactions_included == 16
    # And reordering is invisible to verifiers either way.
    assert tight.challenges == 0
    assert generous.challenges == 0
