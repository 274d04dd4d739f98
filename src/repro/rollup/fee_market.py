"""EIP-1559-style fee market for the L2 (Bedrock's fee dynamics).

The paper's transactions carry base and priority fees (Section IV-B);
Bedrock inherits Ethereum's EIP-1559 dynamics: the protocol base fee
rises when blocks run above their gas target and falls when below, by at
most 1/8 per block.  :class:`FeeMarket` implements that controller and a
simple bidder model users can consult to pick a priority fee for a
desired inclusion urgency.

Nothing in the pipeline drives it yet: :meth:`FeeMarket.on_block` takes
one block's fullness, and only the controller's own tests feed it.
Generated transactions carry fixed unitless fees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..errors import RollupError

#: EIP-1559's maximum per-block base-fee change.
BASE_FEE_MAX_CHANGE = 1.0 / 8.0


@dataclass
class FeeMarket:
    """Per-block base-fee controller plus a priority-fee suggester."""

    base_fee: float = 1.0
    target_fullness: float = 0.5
    min_base_fee: float = 0.01
    history: List[Tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.base_fee <= 0:
            raise RollupError("base fee must be positive")
        if not 0.0 < self.target_fullness <= 1.0:
            raise RollupError("target fullness must be in (0, 1]")

    def on_block(self, fullness: float) -> float:
        """Update the base fee from one block's fullness in [0, 1].

        Implements EIP-1559: ``delta = base * (fullness - target) /
        target / 8`` clamped to ±1/8 of the current base fee.
        """
        if not 0.0 <= fullness <= 1.0:
            raise RollupError(f"fullness {fullness} outside [0, 1]")
        pressure = (fullness - self.target_fullness) / self.target_fullness
        delta = self.base_fee * max(
            -BASE_FEE_MAX_CHANGE, min(BASE_FEE_MAX_CHANGE, pressure / 8.0)
        )
        self.base_fee = max(self.min_base_fee, self.base_fee + delta)
        self.history.append((fullness, self.base_fee))
        return self.base_fee

    def suggest_priority_fee(self, urgency: float = 0.5) -> float:
        """Priority fee for an inclusion urgency in [0, 1].

        Scales with the current base fee: urgent users outbid the
        congestion premium, patient users tip a token amount.
        """
        if not 0.0 <= urgency <= 1.0:
            raise RollupError(f"urgency {urgency} outside [0, 1]")
        return self.base_fee * (0.05 + 0.95 * urgency)

    def total_fee(self, urgency: float = 0.5) -> float:
        """Base plus suggested priority fee."""
        return self.base_fee + self.suggest_priority_fee(urgency)

    def simulate(self, fullness_series: List[float]) -> List[float]:
        """Run the controller over a fullness series; returns base fees."""
        return [self.on_block(fullness) for fullness in fullness_series]
