"""End-to-end chaos harness tests: invariants and determinism."""

import dataclasses

import pytest

from repro.errors import ConfigError, InvariantViolationError
from repro.faults import (
    DEFAULT_MATRIX,
    ChaosHarness,
    ChaosScenario,
    FaultEvent,
    FaultKind,
    FaultPlan,
)

#: A small scenario that still exercises crash, revert and retry paths.
SMALL = ChaosScenario(
    name="small",
    seed=5,
    tx_count=18,
    rounds=8,
    crashes=2,
    partitions=1,
    commit_failures=2,
    drop_bursts=1,
    corrupt_every=2,
)


class TestInvariants:
    def test_small_scenario_invariants_hold(self):
        report = ChaosHarness(SMALL).run(strict=True)
        assert report.ok
        assert report.violations == ()
        assert len(report.rounds) == SMALL.rounds

    @pytest.mark.parametrize(
        "scenario", DEFAULT_MATRIX, ids=[s.name for s in DEFAULT_MATRIX]
    )
    def test_default_matrix_invariants_hold(self, scenario):
        assert ChaosHarness(scenario).run(strict=True).ok

    def test_no_transaction_silently_lost(self):
        report = ChaosHarness(SMALL).run()
        assert report.accepted_txs == report.included_txs + report.pending_txs

    def test_recovery_paths_actually_exercised(self):
        report = ChaosHarness(SMALL).run()
        assert report.fault_counts  # the plan fired
        assert sum(report.fault_counts.values()) == len(
            SMALL.resolve_plan(
                ["agg-0", "agg-1", "agg-2"], ["ver-0", "ver-1"]
            ).events
        )
        # The corrupt aggregator guarantees challenge -> revert traffic.
        assert report.challenge_total >= 1
        assert report.reverted_total >= 1

    def test_strict_raises_on_violation(self, monkeypatch):
        harness = ChaosHarness(SMALL)

        def broken_check(round_index):
            sweep = harness.checker.__class__.check(harness.checker, round_index)
            return dataclasses.replace(
                sweep, ok=False, violations=("synthetic violation",)
            )

        monkeypatch.setattr(harness.checker, "check", broken_check)
        with pytest.raises(InvariantViolationError):
            harness.run(strict=True)


#: Seeds at which executing chaos rounds with BATCH netting left negative
#: net inventory at a round end; the strict deployment runs them clean.
NETTING_SEEDS = (
    ("partitions-drops", 25),
    ("partitions-drops", 30),
    ("partitions-drops", 34),
    ("partitions-drops", 35),
    ("partitions-drops", 36),
    ("mixed", 59),
)


@pytest.mark.parametrize("name, seed", NETTING_SEEDS)
def test_strict_rounds_keep_inventory_consistent(name, seed):
    (scenario,) = [s for s in DEFAULT_MATRIX if s.name == name]
    report = ChaosHarness(dataclasses.replace(scenario, seed=seed)).run()
    assert report.violations == ()
    assert report.accepted_txs == report.included_txs + report.pending_txs


class TestScenarioValidation:
    @pytest.mark.parametrize("field, value", [
        ("rounds", 0),
        ("block_interval", 0.0),
        ("block_interval", -1.0),
        ("collect_size", 0),
        ("aggregator_count", 0),
        ("verifier_count", -1),
        ("base_drop_rate", 1.0),
        ("base_drop_rate", -0.5),
        ("submission_spacing", -1.0),
        ("crashes", -1),
        ("partitions", -3),
        ("commit_failures", -1),
        ("drop_bursts", -1),
        ("stalls", -1),
        ("corrupt_every", -2),
        ("flaky_every", -1),
    ])
    def test_out_of_range_field_is_a_config_error(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ChaosScenario(name="bad", **{field: value})

    def test_flaky_aggregator_needs_a_second_aggregator(self):
        with pytest.raises(ConfigError, match="two aggregators"):
            ChaosScenario(name="bad", flaky_every=2, aggregator_count=1)
        ChaosScenario(name="ok", flaky_every=2, aggregator_count=2)


class TestDeterminism:
    def test_same_seed_byte_identical_reports(self):
        first = ChaosHarness(SMALL).run().to_json()
        second = ChaosHarness(SMALL).run().to_json()
        assert first == second

    def test_different_seed_changes_report(self):
        other = dataclasses.replace(SMALL, seed=SMALL.seed + 1)
        assert ChaosHarness(SMALL).run().to_json() != (
            ChaosHarness(other).run().to_json()
        )

    def test_matrix_reports_deterministic(self):
        scenario = DEFAULT_MATRIX[0]
        assert (
            ChaosHarness(scenario).run().to_json()
            == ChaosHarness(scenario).run().to_json()
        )


class TestStallSurfacing:
    def test_stalled_rounds_are_explicit_and_lose_nothing(self):
        # Regression: a stalled mempool used to serve empty collections,
        # so rounds inside the outage looked identical to a drained pool
        # and nothing recorded that collection was unavailable.
        plan = FaultPlan(events=(
            FaultEvent(time=3.0, kind=FaultKind.MEMPOOL_STALL),
            FaultEvent(time=9.0, kind=FaultKind.MEMPOOL_RESUME),
        ))
        scenario = ChaosScenario(name="stall-window", seed=2, rounds=8, plan=plan)
        report = ChaosHarness(scenario).run(strict=True)
        stalled_rounds = [r for r in report.rounds if r.stalled]
        assert stalled_rounds, "outage rounds must be flagged, not silent"
        for record in stalled_rounds:
            assert record.committed_batch_ids == ()
            assert record.mempool_pending > 0
        # Collection resumes after the outage and nothing was lost.
        resumed = [r for r in report.rounds if r.time > 9.0]
        assert any(r.committed_batch_ids for r in resumed)
        assert report.accepted_txs == report.included_txs + report.pending_txs

    def test_stall_report_deterministic(self):
        scenario = ChaosScenario(
            name="stall-det", seed=7, rounds=8, stalls=1,
            crashes=0, partitions=0, commit_failures=0, drop_bursts=0,
        )
        assert (
            ChaosHarness(scenario).run().to_json()
            == ChaosHarness(scenario).run().to_json()
        )


class TestExplicitPlan:
    def test_hand_written_plan_overrides_knobs(self):
        plan = FaultPlan(events=(
            FaultEvent(time=3.0, kind=FaultKind.AGGREGATOR_CRASH, target="agg-0"),
            FaultEvent(time=9.0, kind=FaultKind.AGGREGATOR_RESTART, target="agg-0"),
        ))
        scenario = ChaosScenario(name="explicit", seed=1, rounds=8, plan=plan)
        report = ChaosHarness(scenario).run(strict=True)
        assert report.fault_counts == {
            "aggregator-crash": 1, "aggregator-restart": 1,
        }
        assert report.recovery_latencies == (6.0,)
        # Rounds inside the outage skipped the dead aggregator.
        assert any(
            "agg-0" in record.skipped_aggregators for record in report.rounds
        )

    def test_report_render_mentions_outcome(self):
        report = ChaosHarness(SMALL).run()
        text = report.render()
        assert "small" in text and "OK" in text
