"""Tests for the experiment harnesses (micro-scale runs)."""

import pytest

from repro.config import SnapshotStudyConfig
from repro.experiments import (
    EffortPreset,
    attack_round,
    render_case_studies,
    render_fig10,
    render_table3,
    run_case_studies,
    run_fig10,
    run_fig8,
    run_fig9,
    run_table3,
)
from repro.experiments.common import shared_pool_round

MICRO = EffortPreset(name="micro", episodes=2, steps_per_episode=12, trials=1)


class TestTable3Harness:
    def test_rows_regenerated(self):
        rows = run_table3()
        assert len(rows) == 3

    def test_render_contains_paper_values(self):
        text = render_table3()
        assert "90.91%" in text
        assert "142k Gwei" in text


class TestCaseStudyHarness:
    def test_three_cases(self):
        cases = run_case_studies()
        assert set(cases) == {"case1", "case2", "case3"}

    def test_headline_balances(self):
        cases = run_case_studies()
        assert cases["case1"].final_balance == pytest.approx(2.5)
        assert cases["case2"].final_balance == pytest.approx(2.5667, abs=1e-3)
        assert cases["case3"].final_balance == pytest.approx(2.7333, abs=1e-3)

    def test_l2_gains_match_paper(self):
        cases = run_case_studies()
        baseline = cases["case1"].final_l2_balance
        assert cases["case2"].l2_gain_percent(baseline) == pytest.approx(6.7, abs=0.1)
        assert cases["case3"].l2_gain_percent(baseline) == pytest.approx(23.3, abs=0.1)

    def test_certified_optimum_beats_case3(self):
        cases = run_case_studies(certify_optimum=True)
        assert cases["best"].final_balance >= cases["case3"].final_balance

    def test_render_includes_all_cases(self):
        text = render_case_studies()
        assert "case1" in text and "case3" in text


class TestAttackRound:
    def test_round_produces_outcome(self):
        outcome = attack_round(mempool_size=10, num_ifus=1, preset=MICRO, seed=1)
        assert outcome.assessment is not None
        assert len(outcome.per_ifu_profit) == 1

    def test_shared_pool_round_counts_adversaries(self):
        outcomes, workload = shared_pool_round(
            mempool_size=8, num_ifus=1, num_aggregators=4,
            adversarial_fraction=0.5, preset=MICRO, seed=0,
        )
        assert len(outcomes) == 2
        assert workload.mempool_size == 32


class TestFig8Harness:
    def test_series_for_each_cell(self):
        series = run_fig8(
            epsilons=(0.0, 1.0), ifu_counts=(1,), mempool_size=8,
            preset=MICRO,
        )
        assert len(series) == 2
        for curve in series:
            assert len(curve.episode_rewards) == MICRO.episodes
            assert len(curve.moving_avg) == MICRO.episodes


class TestFig9Harness:
    def test_curves_cover_grid(self):
        curves = run_fig9(
            mempool_sizes=(8,), ifu_counts=(1, 2), preset=MICRO,
        )
        assert len(curves) == 2
        for curve in curves:
            assert curve.mempool_size == 8


class TestFig10Harness:
    def test_six_cells(self):
        summaries = run_fig10(SnapshotStudyConfig(collections_per_tier=2, seed=1))
        assert len(summaries) == 6

    def test_render(self):
        text = render_fig10(
            run_fig10(SnapshotStudyConfig(collections_per_tier=2, seed=1))
        )
        assert "arbitrum" in text and "optimism" in text


class TestFig11Harness:
    def test_micro_sweep(self):
        from repro.experiments import render_fig11, run_fig11
        rows = run_fig11(
            sizes=(5, 8), dqn_train_episodes=1,
            nlp_restarts=1, nlp_max_iterations=5,
        )
        assert len(rows) == 2 * 4
        assert all(row.elapsed_seconds >= 0 for row in rows)
        assert all(row.peak_memory_kib > 0 for row in rows)
        text = render_fig11(rows)
        assert "DQN (inference)" in text and "SNOPT" in text

    def test_micro_sweep_under_an_outer_trace(self, traced_ballast):
        from repro.experiments import run_fig11
        rows = run_fig11(
            sizes=(5, 8), dqn_train_episodes=1,
            nlp_restarts=1, nlp_max_iterations=5,
        )
        assert all(row.peak_memory_kib * 1024 < traced_ballast for row in rows)


class TestDefenseHarness:
    def test_micro_sweep(self):
        from repro.experiments import render_defense_eval, run_defense_eval
        points = run_defense_eval(
            thresholds=(0.01, 10.0), rounds=1, mempool_size=8, preset=MICRO,
        )
        assert len(points) == 2
        # Impossible threshold never flags; tiny threshold flags at least
        # as often.
        assert points[0].detection_rate >= points[1].detection_rate
        assert "Threshold" in render_defense_eval(points)
