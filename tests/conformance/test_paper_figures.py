"""The paper's qualitative claims for Figures 6-10, checked in Tier-1.

Each test runs its figure's harness at a small pinned preset, grid and
seed and asserts the shape the paper reports: who earns more, what is
monotone, where the mass sits.  Absolute magnitudes depend on the
authors' testnet data and are not asserted.  Figure 11's claims are
about wall-clock time and live in
``benchmarks/bench_fig11_solver_comparison.py``.
"""

from repro.analysis import moving_average
from repro.config import SnapshotStudyConfig
from repro.experiments import (
    EffortPreset,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
)
from repro.market import Chain


def _mean(values):
    return sum(values) / len(values)


def test_fig6_profit_vs_ifus():
    """Fig. 6: average attack profit per IFU vs #IFUs served."""
    preset = EffortPreset(name="bench", episodes=4, steps_per_episode=30, trials=2)
    points = run_fig6(
        adversarial_fractions=(0.1, 0.5),
        mempool_sizes=(10, 25),
        ifu_counts=(1, 2, 4),
        num_aggregators=6,
        preset=preset,
        seed=0,
    )

    assert len(points) == 2 * 2 * 3

    # Shape 1 (paper: "serving less number of IFUs incurs better results
    # in terms of average profit per IFU"): the 1-IFU cells average the
    # highest per-IFU profit across the whole grid.
    mean_by_ifus = {
        n: _mean([p.avg_profit_per_ifu_eth for p in points if p.num_ifus == n])
        for n in (1, 2, 4)
    }
    assert mean_by_ifus[1] > mean_by_ifus[2]
    assert mean_by_ifus[1] > mean_by_ifus[4]

    # Shape 2: 50% adversarial earns more total profit than 10%.
    total_10 = sum(p.total_profit_eth for p in points if p.adversarial_fraction == 0.1)
    total_50 = sum(p.total_profit_eth for p in points if p.adversarial_fraction == 0.5)
    assert total_50 > total_10

    # Shape 3: the larger mempool earns at least as much in total.
    total_small = sum(p.total_profit_eth for p in points if p.mempool_size == 10)
    total_large = sum(p.total_profit_eth for p in points if p.mempool_size == 25)
    assert total_large >= total_small


def test_fig7_adversarial_fraction():
    """Fig. 7: total IFU profit vs adversarial-aggregator fraction."""
    preset = EffortPreset(name="bench", episodes=3, steps_per_episode=25, trials=1)
    fractions = (0.25, 0.5, 0.75)
    points = run_fig7(
        ifu_counts=(1, 2),
        mempool_sizes=(25, 50),
        fractions=fractions,
        num_aggregators=4,
        preset=preset,
        seed=0,
    )

    assert len(points) == 2 * 2 * 3
    by_cell = {
        (p.num_ifus, p.mempool_size, p.adversarial_fraction): p for p in points
    }

    # Shape 1: in every panel, more adversarial aggregators never earn
    # less, and the ends strictly increase.
    for ifus in (1, 2):
        for mempool in (25, 50):
            series = [
                by_cell[(ifus, mempool, f)].total_profit_eth for f in fractions
            ]
            assert all(a <= b + 1e-9 for a, b in zip(series, series[1:]))
            assert series[-1] > series[0]

    # Shape 2: profits are finite and non-negative everywhere.
    assert all(p.total_profit_eth >= 0 for p in points)

    # Shape 3 (paper: "2 IFUs ... total profit increase is not linear"):
    # serving 2 IFUs earns less than 2x the single-IFU total.
    total_1 = sum(p.total_profit_eth for p in points if p.num_ifus == 1)
    total_2 = sum(p.total_profit_eth for p in points if p.num_ifus == 2)
    assert total_2 < 2.0 * total_1


def test_fig8_learning_curves():
    """Fig. 8: exploration escapes the optimum pure exploitation is
    trapped in.

    A faster epsilon decay (0.3) compresses the paper's 100-episode
    schedule into 12 episodes.
    """
    preset = EffortPreset(name="bench", episodes=12, steps_per_episode=40, trials=1)
    series = run_fig8(
        epsilons=(0.0, 0.5, 1.0),
        ifu_counts=(1,),
        mempool_size=12,
        preset=preset,
        seed=0,
        epsilon_decay=0.3,
    )

    assert len(series) == 3
    by_eps = {curve.epsilon: curve for curve in series}

    # Moving average has window-9 semantics (same length as the input).
    for curve in series:
        assert len(curve.moving_avg) == preset.episodes
        assert curve.moving_avg == tuple(
            moving_average(curve.episode_rewards, 9)
        )

    # The exploring agents find at least as much profit, and eps=1
    # finds strictly more than eps=0.
    assert by_eps[1.0].best_profit >= by_eps[0.5].best_profit >= 0.0
    assert by_eps[1.0].best_profit > by_eps[0.0].best_profit


def test_fig9_solution_sizes():
    """Fig. 9: KDE of swap counts to the first profitable solution."""
    preset = EffortPreset(name="bench", episodes=6, steps_per_episode=40, trials=2)
    curves = run_fig9(
        mempool_sizes=(12,),
        ifu_counts=(1, 2),
        preset=preset,
        seed=0,
    )

    assert len(curves) == 2
    single = next(c for c in curves if c.num_ifus == 1)

    # The single-IFU case must find profitable solutions.
    assert len(single.solution_sizes) > 0
    assert single.kde is not None

    # Solution sizes are bounded by the episode step cap.
    for curve in curves:
        assert all(
            1 <= size <= preset.steps_per_episode
            for size in curve.solution_sizes
        )

    # The KDE's mode sits at a small swap count (paper: ~5 for 1 IFU).
    assert single.mode is not None
    assert single.mode <= preset.steps_per_episode / 2


def test_fig10_snapshot_study():
    """Fig. 10: opportunity in every chain x tier cell, more on Arbitrum."""
    summaries = run_fig10(SnapshotStudyConfig(collections_per_tier=8, seed=0))

    assert len(summaries) == 6
    assert all(cell.total_profit_eth > 0 for cell in summaries)

    arbitrum = sum(
        cell.total_profit_eth for cell in summaries
        if cell.chain is Chain.ARBITRUM
    )
    optimism = sum(
        cell.total_profit_eth for cell in summaries
        if cell.chain is Chain.OPTIMISM
    )
    # The paper's headline: higher arbitrage opportunity on Arbitrum.
    assert arbitrum > optimism
