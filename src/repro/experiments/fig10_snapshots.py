"""Figure 10: attack impact in real-world NFT marketplaces.

Generate the synthetic Optimism/Arbitrum snapshot population, scan it
for reorderable price differentials, and aggregate profit opportunity
per chain x frequency tier.  Paper observations to reproduce:

* Arbitrum-deployed collections show higher arbitrage opportunity than
  Optimism ones (higher churn);
* every tier has non-trivial opportunity, with the tiers trading off
  per-event differential (LFT widest) against event count (HFT most).
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis import format_table
from ..config import SnapshotStudyConfig
from ..market import (
    ArbitrageScanner,
    SnapshotStore,
    TierSummary,
    generate_study_collections,
)


def run_fig10(
    config: Optional[SnapshotStudyConfig] = None,
    scanner: Optional[ArbitrageScanner] = None,
) -> List[TierSummary]:
    """Full snapshot study: generate, ingest, scan, summarize."""
    store = SnapshotStore(generate_study_collections(config))
    return (scanner or ArbitrageScanner()).summarize(store)


def render_fig10(summaries: List[TierSummary]) -> str:
    """Figure 10's cells as a table."""
    rows = [
        (
            cell.chain.value,
            cell.tier.value.upper(),
            cell.collections,
            cell.findings,
            f"{cell.total_profit_eth:.3f}",
            f"{cell.mean_profit_eth:.4f}",
        )
        for cell in summaries
    ]
    return format_table(
        (
            "Chain", "FT tier", "Collections", "Findings",
            "Total profit (ETH)", "Mean/collection (ETH)",
        ),
        rows,
    )
