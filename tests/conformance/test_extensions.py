"""Claims of the reproduction's extensions beyond the paper, in Tier-1.

* Section VIII defense: the probe-and-demote threshold sweep, and the
  order-commitment protocol fix that catches the attack outright;
* campaign: a persistent agent across rounds vs fresh agents;
* slot budget: Section VII-F's "time is critical in off-chain
  transaction processing" made concrete — a reordering that does not
  fit the Bedrock slot's budget forfeits the arbitrage.
"""

import dataclasses
import logging

import pytest

from repro.config import AttackConfig, GenTranSeqConfig, WorkloadConfig
from repro.core import ParoleAttack, cold_vs_warm
from repro.defense import OrderCheckingVerifier, commit_with_order
from repro.experiments import EffortPreset, run_defense_eval
from repro.rollup import OVM
from repro.streaming import ScannerConfig, StreamConfig, run_stream
from repro.workloads import case_study_fixture


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


class _CountingOVM(OVM):
    def __init__(self):
        super().__init__()
        self.replays = 0

    def replay(self, *args, **kwargs):
        self.replays += 1
        return super().replay(*args, **kwargs)


def test_order_commitment_alternative():
    """The protocol-level fix: an order commitment catches the attack
    with one extra digest per batch and the fraud proof's one
    re-execution, where the probe-based defense costs a GENTRANSEQ run
    per pending batch."""
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
    ovm = _CountingOVM()
    verifier = OrderCheckingVerifier("order-watcher", ovm=ovm)

    committed = commit_with_order(
        "evil", workload.pre_state, workload.transactions,
        executed_order=outcome.executed_sequence,
    )
    report = verifier.inspect_committed(committed, workload.pre_state)

    assert outcome.attacked
    assert not report.execution.should_challenge  # execution was honest
    assert report.should_challenge                # ordering was not
    assert ovm.replays == 1                       # no extra re-execution


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_slot_budget_gates_the_attack(seed, caplog):
    """A scanner budget one evaluation below the greedy rollout's
    ``max_swaps`` forfeits the arbitrage without hurting liveness; a
    budget that fits lets the scanner reorder.  The budget counts
    estimated evaluations, never wall clock."""
    scanner = ScannerConfig()

    def soak(budget):
        return run_stream(StreamConfig(
            lanes=1, duration_batches=10, batch_size=16,
            submit_per_batch=16, seed=seed,
            scanner=dataclasses.replace(
                scanner, eval_budget_per_batch=budget
            ),
        ))

    with caplog.at_level(logging.WARNING, logger="repro.rollup"):
        tight = soak(scanner.max_swaps - 1)
        fits = soak(scanner.max_swaps)

    # One evaluation short: every batch degrades to the honest order...
    assert tight.lanes[0].actions == {"degraded": 10}
    assert tight.profit_total == 0.0
    # ...while a budget of exactly max_swaps lets the attack fire.
    assert fits.lanes[0].actions.get("reordered", 0) > 0
    assert fits.profit_total > 0.0
    # Liveness and the invariant sweep hold either way.
    for report in (tight, fits):
        (lane,) = report.lanes
        assert lane.submitted == lane.included == 160
        assert lane.pending == 0
        assert report.ok
    # And reordering is invisible to verifiers: no challenge, no revert.
    assert not [r for r in caplog.records if r.name.startswith("repro.rollup")]
