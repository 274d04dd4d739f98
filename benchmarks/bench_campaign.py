"""Campaign bench (extension): training transfer across rounds.

Measures a persistent-agent campaign against fresh-agent rounds on the
same workload stream.  Asserts the campaign machinery itself: identical
first rounds, accumulating experience, bounded hit rate.  The cold
rounds fan out over the execution fabric (one worker per core);
results are backend-independent, so the assertions hold either way.
"""

import pytest

from repro.analysis import format_table
from repro.config import GenTranSeqConfig, WorkloadConfig
from repro.core import cold_vs_warm
from repro.parallel import get_runner

from conftest import BenchSeries

WORKLOAD = WorkloadConfig(
    mempool_size=10, num_users=8, num_ifus=1, min_ifu_involvement=3, seed=0
)
GTS = GenTranSeqConfig(episodes=4, steps_per_episode=25, seed=0)


def _run():
    with get_runner(-1) as runner:
        return cold_vs_warm(WORKLOAD, GTS, rounds=4, runner=runner)


def test_campaign_cold_vs_warm(benchmark, save_artifact, emit_bench):
    cold, warm = benchmark.pedantic(_run, rounds=1, iterations=1)

    rows = [
        (
            record.round_index,
            f"{cold.rounds[record.round_index].profit_eth:.4f}",
            f"{record.profit_eth:.4f}",
        )
        for record in warm.rounds
    ]
    save_artifact(
        "campaign_cold_vs_warm",
        format_table(("Round", "Cold profit (ETH)", "Warm profit (ETH)"), rows)
        + f"\ncold total: {cold.total_profit_eth:.4f} ETH"
        + f"\nwarm total: {warm.total_profit_eth:.4f} ETH",
    )

    emit_bench(
        "campaign",
        series=[
            BenchSeries("cold_total_profit", "ETH", (cold.total_profit_eth,)),
            BenchSeries("warm_total_profit", "ETH", (warm.total_profit_eth,)),
            BenchSeries("warm_hit_rate", "fraction", (warm.hit_rate,)),
        ],
        benchmark=benchmark,
    )

    assert len(cold.rounds) == len(warm.rounds) == 4
    # Round 0 is identical by construction (same seed, untrained agent).
    assert cold.rounds[0].profit_eth == pytest.approx(warm.rounds[0].profit_eth)
    assert 0.0 <= warm.hit_rate <= 1.0
    assert warm.total_profit_eth >= 0.0
