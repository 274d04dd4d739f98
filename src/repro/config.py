"""Configuration objects for every subsystem.

The values in :class:`GenTranSeqConfig` default to Table II of the paper
("Modeling parameters of GENTRANSEQ module").  All configs are frozen
dataclasses: construct a new one (``dataclasses.replace``) rather than
mutating, so experiment sweeps cannot leak state between runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .errors import ConfigError

#: Number of features in the per-transaction encoding (Section V-C-2:
#: "Generally, it is an eight-element tensor").
TX_FEATURE_WIDTH = 8

#: 1 ETH expressed in wei; the L1 substrate accounts in integer wei.
WEI_PER_ETH = 10**18

#: 1 ETH expressed in satoshi-equivalents.  Figure 7 of the paper reports
#: profit in "Satoshis"; we expose the same unit for its reproduction.
SATOSHI_PER_ETH = 10**8


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class GenTranSeqConfig:
    """Hyper-parameters of the GENTRANSEQ DQN (paper Table II).

    Attributes mirror Table II exactly:

    ===========================  =============
    Parameter                    Paper value
    ===========================  =============
    Exploration parameter (eps)  0.95
    Epsilon decay (d)            0.05
    Discount factor (gamma)      0.618
    Episodes                     100
    Steps (each episode)         200
    Learning rate (alpha)        0.7
    Replay memory buffer size    5,000
    Q-network update             every 5 steps
    Target network update        every 30 steps
    ===========================  =============
    """

    epsilon: float = 0.95
    epsilon_min: float = 0.01
    epsilon_decay: float = 0.05
    discount_factor: float = 0.618
    episodes: int = 100
    steps_per_episode: int = 200
    learning_rate: float = 0.7
    replay_buffer_size: int = 5000
    q_network_update_every: int = 5
    target_network_update_every: int = 30
    batch_size: int = 32
    hidden_layers: Tuple[int, ...] = (128, 64)
    #: Weight ``W`` of Eq. 8 applied to penalizable actions; 1 otherwise.
    penalty_weight: float = 10.0
    #: Reward units per ETH of balance delta.  The paper reports episode
    #: rewards in the thousands of "units" (Fig. 8); this scale maps ETH
    #: deltas into that range.
    reward_scale: float = 1000.0
    #: Optimiser learning rate for the numpy MLP.  The paper's alpha=0.7 is a
    #: Q-learning-style step size; the gradient step uses this smaller value.
    gradient_learning_rate: float = 1e-3
    #: Stop training early once the smoothed episode-reward curve has been
    #: flat for this many episodes (None = paper behaviour, no early stop).
    early_stop_patience: Optional[int] = None
    #: LRU capacity of the per-environment permutation evaluation cache
    #: (ε-greedy rollouts and local search revisit orders constantly).
    evaluation_cache_size: int = 4096
    seed: int = 0

    def __post_init__(self) -> None:
        _require(0.0 <= self.epsilon <= 1.0, "epsilon must be in [0, 1]")
        _require(0.0 <= self.epsilon_min <= self.epsilon,
                 "epsilon_min must be in [0, epsilon]")
        _require(self.epsilon_decay > 0.0, "epsilon_decay must be positive")
        _require(0.0 <= self.discount_factor <= 1.0,
                 "discount_factor must be in [0, 1]")
        _require(self.episodes > 0, "episodes must be positive")
        _require(self.steps_per_episode > 0, "steps_per_episode must be positive")
        _require(0.0 < self.learning_rate <= 1.0,
                 "learning_rate must be in (0, 1]")
        _require(self.replay_buffer_size >= self.batch_size,
                 "replay buffer must hold at least one batch")
        _require(self.q_network_update_every > 0,
                 "q_network_update_every must be positive")
        _require(self.target_network_update_every > 0,
                 "target_network_update_every must be positive")
        _require(all(h > 0 for h in self.hidden_layers),
                 "hidden layer widths must be positive")
        _require(self.penalty_weight >= 1.0, "penalty_weight must be >= 1")
        _require(
            self.early_stop_patience is None or self.early_stop_patience >= 2,
            "early_stop_patience must be None or >= 2",
        )
        _require(self.evaluation_cache_size > 0,
                 "evaluation_cache_size must be positive")

    def with_overrides(self, **changes: object) -> "GenTranSeqConfig":
        """Return a copy with ``changes`` applied (validated on build)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class NFTContractConfig:
    """Parameters of a limited-edition ERC-721 contract (paper Section VI-A).

    The defaults reproduce the PAROLE Token (PT) used in the case studies:
    maximum supply ``S^0 = 10`` and initial price ``P^0 = 0.2`` ETH, with the
    scarcity pricing rule of Eq. 10.
    """

    symbol: str = "PT"
    name: str = "ParoleToken"
    max_supply: int = 10
    initial_price_eth: float = 0.2

    def __post_init__(self) -> None:
        _require(self.max_supply > 0, "max_supply must be positive")
        _require(self.initial_price_eth > 0.0, "initial price must be positive")


@dataclass(frozen=True)
class RollupConfig:
    """Parameters of the optimistic rollup substrate (Sections II-A, V-A)."""

    #: Length of the fraud-proof challenge window, in L1 blocks.
    challenge_period_blocks: int = 7
    #: Bond every aggregator posts, in wei.
    aggregator_bond_wei: int = 5 * WEI_PER_ETH
    #: Bond every verifier posts, in wei.
    verifier_bond_wei: int = 2 * WEI_PER_ETH
    #: Fraction of a dishonest party's bond that is slashed.
    slash_fraction: float = 1.0
    #: Maximum number of transactions one aggregator collects per round
    #: (the paper's per-aggregator "Mempool" size).
    aggregator_mempool_size: int = 50
    #: Bounded retry for batch commitment: total attempts per batch.
    commit_max_retries: int = 3
    #: First retry backoff, in simulation time units; doubles per attempt.
    commit_backoff_base: float = 0.25

    def __post_init__(self) -> None:
        _require(self.challenge_period_blocks > 0,
                 "challenge_period_blocks must be positive")
        _require(self.aggregator_bond_wei > 0, "aggregator bond must be positive")
        _require(self.verifier_bond_wei > 0, "verifier bond must be positive")
        _require(0.0 < self.slash_fraction <= 1.0,
                 "slash_fraction must be in (0, 1]")
        _require(self.aggregator_mempool_size > 0,
                 "aggregator_mempool_size must be positive")
        _require(self.commit_max_retries >= 1,
                 "commit_max_retries must be at least 1")
        _require(self.commit_backoff_base >= 0,
                 "commit_backoff_base must be non-negative")


@dataclass(frozen=True)
class AttackConfig:
    """End-to-end PAROLE attack parameters (Section IV)."""

    #: Identifiers of the illicitly favored users.
    ifu_accounts: Tuple[str, ...] = ("ifu-0",)
    #: Fraction of aggregators that are adversarial (Figures 6-7 sweep this).
    adversarial_fraction: float = 0.1
    #: GENTRANSEQ hyper-parameters.
    gentranseq: GenTranSeqConfig = field(default_factory=GenTranSeqConfig)
    #: Abort the search if the arbitrage pre-check finds no opportunity.
    require_arbitrage_precheck: bool = True

    def __post_init__(self) -> None:
        _require(len(self.ifu_accounts) > 0, "at least one IFU is required")
        _require(0.0 < self.adversarial_fraction <= 1.0,
                 "adversarial_fraction must be in (0, 1]")


@dataclass(frozen=True)
class WorkloadConfig:
    """Synthetic transaction-sequence generation (evaluation Section VII)."""

    mempool_size: int = 50
    num_users: int = 20
    num_ifus: int = 1
    #: Probability mix of (mint, transfer, burn) in generated sequences.
    tx_type_mix: Tuple[float, float, float] = (0.3, 0.55, 0.15)
    #: Minimum number of transactions each IFU is involved in; the paper
    #: requires "at least a pair of minting and transfer transactions".
    min_ifu_involvement: int = 2
    initial_balance_eth: float = 5.0
    #: Maximum supply of the limited-edition NFT; ``None`` scales it with
    #: the mempool size so mint headroom never runs out mid-sequence.
    max_supply: Optional[int] = None
    #: Fraction of the supply pre-minted to random users before the round.
    premint_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        _require(self.mempool_size > 0, "mempool_size must be positive")
        _require(self.num_users >= 2, "need at least two users")
        _require(1 <= self.num_ifus <= self.num_users,
                 "num_ifus must be in [1, num_users]")
        _require(abs(sum(self.tx_type_mix) - 1.0) < 1e-9,
                 "tx_type_mix must sum to 1")
        _require(all(p >= 0 for p in self.tx_type_mix),
                 "tx_type_mix entries must be non-negative")
        _require(self.min_ifu_involvement >= 0,
                 "min_ifu_involvement must be non-negative")
        _require(self.initial_balance_eth > 0, "initial balance must be positive")
        _require(0.0 <= self.premint_fraction <= 1.0,
                 "premint_fraction must be in [0, 1]")


@dataclass(frozen=True)
class DefenseConfig:
    """Section VIII defense parameters."""

    #: Profit threshold (ETH) above which arbitrage is considered material.
    profit_threshold_eth: float = 0.05
    #: Scale the threshold by the mean priority fee of the batch.
    fee_scaled_threshold: bool = True
    #: Upper bound on GENTRANSEQ probe episodes used by the detector.
    probe_episodes: int = 20

    def __post_init__(self) -> None:
        _require(self.profit_threshold_eth >= 0.0,
                 "profit_threshold_eth must be non-negative")
        _require(self.probe_episodes > 0, "probe_episodes must be positive")


@dataclass(frozen=True)
class TelemetryConfig:
    """Observability toggles (see :mod:`repro.telemetry`).

    Disabled by default: the active metrics backend stays the no-op
    ``NullMetrics`` and the tracer emits nothing, so instrumented hot
    paths cost almost nothing.  Apply a config with
    :func:`repro.telemetry.configure`.
    """

    #: Master switch: install a live metrics registry and tracer.
    enabled: bool = False
    #: JSONL span-trace destination; ``None`` keeps spans in memory.
    trace_path: Optional[str] = None
    #: Capacity of the in-memory ring buffer used when no file is given.
    ring_buffer_size: int = 4096

    def __post_init__(self) -> None:
        _require(self.ring_buffer_size > 0,
                 "ring_buffer_size must be positive")


@dataclass(frozen=True)
class SnapshotStudyConfig:
    """Synthetic NFT snapshot study (Figure 10)."""

    collections_per_tier: int = 12
    seed: int = 0
    #: Ownership-count boundaries of the paper's FT tiers.
    lft_max_owners: int = 100
    mft_max_owners: int = 3000

    def __post_init__(self) -> None:
        _require(self.collections_per_tier > 0,
                 "collections_per_tier must be positive")
        _require(0 < self.lft_max_owners < self.mft_max_owners,
                 "tier boundaries must be increasing")


def eth_to_wei(amount_eth: float) -> int:
    """Convert an ETH amount to integer wei (round-half-even)."""
    return int(round(amount_eth * WEI_PER_ETH))


def wei_to_eth(amount_wei: int) -> float:
    """Convert integer wei to float ETH."""
    return amount_wei / WEI_PER_ETH


def eth_to_satoshi(amount_eth: float) -> float:
    """Convert ETH to the satoshi-equivalents used by Figure 7."""
    return amount_eth * SATOSHI_PER_ETH
