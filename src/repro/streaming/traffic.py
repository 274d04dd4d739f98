"""Continuous zipf-distributed transaction traffic.

The batch workload generator (:mod:`repro.workloads.generator`) builds
one strictly-valid round and stops.  Streaming needs the opposite: an
endless, seeded source of transactions whose *population* statistics
match a production rollup — a few hot accounts (the IFUs and whales)
dominating volume over a long zipf tail of occasional traders, fees
drawn from a tier/chain-dependent churn model (the Figure 10 snapshot
parameters), and every batch feasible against the live collection state.

The generator simulates its own shadow L2 state while emitting, exactly
like the batch generator does, so senders always have the balance or
inventory their transaction needs *in generation order*.  Reordering by
the pipeline may still invalidate individual transactions — that is the
attack surface, and batch-mode execution absorbs it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import NFTContractConfig, _require
from ..errors import ReproError
from ..market.nft_collections import CHAIN_CHURN, TIER_VOLATILITY, Chain, FrequencyTier
from ..rollup.state import ExecutionMode, L2State
from ..rollup.transaction import NFTTransaction, TxKind
from ..workloads.generator import _feasible_kinds


@dataclass(frozen=True)
class StreamTrafficConfig:
    """Shape of the synthetic user population and its fee process."""

    num_users: int = 400
    num_ifus: int = 2
    #: Zipf exponent over user ranks; volume concentrates on low ranks
    #: (the IFUs occupy the hottest ranks, as the paper's adversary
    #: model assumes they trade constantly).
    zipf_exponent: float = 1.1
    #: Figure 10 churn parameters: the chain scales fee dispersion and
    #: the tier sets the base volatility of the priority-fee process.
    chain: Chain = Chain.OPTIMISM
    tier: FrequencyTier = FrequencyTier.MFT
    #: Probability mix of (mint, transfer, burn) among feasible kinds.
    tx_type_mix: Tuple[float, float, float] = (0.35, 0.50, 0.15)
    initial_balance_eth: float = 25.0
    max_supply: int = 4096
    #: Fraction of the supply pre-minted before the stream starts; like
    #: the batch generator, every IFU is topped up to at least one token.
    premint_fraction: float = 0.25
    mean_priority_fee: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        _require(self.num_users >= 2, "need at least two users")
        _require(1 <= self.num_ifus <= self.num_users,
                 "num_ifus must be in [1, num_users]")
        _require(self.zipf_exponent > 0, "zipf_exponent must be positive")
        _require(abs(sum(self.tx_type_mix) - 1.0) < 1e-9,
                 "tx_type_mix must sum to 1")
        _require(all(p >= 0 for p in self.tx_type_mix),
                 "tx_type_mix entries must be non-negative")
        _require(self.initial_balance_eth > 0,
                 "initial balance must be positive")
        _require(self.max_supply >= self.num_ifus,
                 "max_supply must cover one premint token per IFU")
        _require(0.0 <= self.premint_fraction <= 1.0,
                 "premint_fraction must be in [0, 1]")
        _require(self.mean_priority_fee > 0,
                 "mean_priority_fee must be positive")


def _draw_cdf(p: np.ndarray) -> List[float]:
    """The CDF ``Generator.choice(len(p), p=p)`` builds on every call.

    Built once with numpy's own arithmetic, so ``bisect_right(cdf,
    rng.random())`` returns the index ``choice`` would from the same
    single double, and leaves the generator in the same state.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


class TrafficGenerator:
    """Endless seeded transaction source over one NFT collection.

    Deterministic: two generators built from the same config + seed
    emit identical transaction streams, batch boundaries included.
    """

    def __init__(
        self, config: Optional[StreamTrafficConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.config = config or StreamTrafficConfig()
        self.seed = self.config.seed if seed is None else int(seed)
        self._rng = np.random.default_rng(self.seed)
        cfg = self.config

        self.ifus: Tuple[str, ...] = tuple(
            f"ifu-{i}" for i in range(cfg.num_ifus)
        )
        regulars = tuple(
            f"user-{i}" for i in range(cfg.num_users - cfg.num_ifus)
        )
        #: IFUs first: they hold the hottest zipf ranks.
        self.users: Tuple[str, ...] = self.ifus + regulars

        ranks = np.arange(1, cfg.num_users + 1, dtype=np.float64)
        weights = ranks ** (-cfg.zipf_exponent)
        self._weights = weights / weights.sum()
        self._user_cdf = _draw_cdf(self._weights)
        #: Feasible-kind tuple -> its draw CDF, built on first use.
        self._kind_cdfs: Dict[Tuple[TxKind, ...], List[float]] = {}

        self.pre_state = self._build_pre_state()
        #: Shadow state the generator simulates against (batch mode:
        #: an infeasible apply is recorded, never raised).
        self._sim = self.pre_state.copy()
        self._sim.mode = ExecutionMode.BATCH
        self._nonce = 0

    # ------------------------------------------------------------------ #

    def _build_pre_state(self) -> L2State:
        cfg = self.config
        nft_config = NFTContractConfig(
            symbol="PT", name="ParoleToken", max_supply=cfg.max_supply,
            initial_price_eth=0.2,
        )
        balances = {
            user: float(cfg.initial_balance_eth) for user in self.users
        }
        inventory = {user: 0 for user in self.users}
        premint = max(
            int(cfg.max_supply * cfg.premint_fraction), cfg.num_ifus
        )
        for ifu in self.ifus:
            inventory[ifu] += 1
        extra = premint - cfg.num_ifus
        if extra > 0:
            holders = self._rng.choice(
                cfg.num_users, size=extra, p=self._weights
            )
            for index in holders:
                inventory[self.users[int(index)]] += 1
        return L2State(
            nft_config=nft_config,
            balances=balances,
            inventory=inventory,
            mode=ExecutionMode.BATCH,
        )

    # ------------------------------------------------------------------ #

    @property
    def generated(self) -> int:
        """Transactions emitted so far."""
        return self._nonce

    def _draw(self, cdf: List[float]) -> int:
        return bisect.bisect_right(cdf, self._rng.random())

    def _pick_user(self) -> str:
        return self.users[self._draw(self._user_cdf)]

    def _pick_kind(self, kinds: Tuple[TxKind, ...]) -> TxKind:
        cdf = self._kind_cdfs.get(kinds)
        if cdf is None:
            mix = dict(zip(
                (TxKind.MINT, TxKind.TRANSFER, TxKind.BURN),
                self.config.tx_type_mix,
            ))
            weights = np.array([mix[kind] for kind in kinds])
            if weights.sum() == 0:
                weights = np.ones(len(kinds))
            cdf = self._kind_cdfs[kinds] = _draw_cdf(weights / weights.sum())
        return kinds[self._draw(cdf)]

    def _pick_buyer(self, seller: str) -> Optional[str]:
        price = self._sim.unit_price
        # A few zipf draws first (hot accounts trade with hot accounts),
        # then a deterministic scan so a funded buyer is never missed.
        for _ in range(4):
            candidate = self._pick_user()
            if candidate != seller and self._sim.balance(candidate) >= price:
                return candidate
        for candidate in self.users:
            if candidate != seller and self._sim.balance(candidate) >= price:
                return candidate
        return None

    def _priority_fee(self) -> float:
        cfg = self.config
        sigma = TIER_VOLATILITY[cfg.tier] * CHAIN_CHURN[cfg.chain]
        draw = float(self._rng.lognormal(mean=0.0, sigma=4.0 * sigma))
        return round(cfg.mean_priority_fee * draw, 6)

    def _next_tx(self) -> NFTTransaction:
        for _ in range(16):
            sender = self._pick_user()
            kinds = tuple(_feasible_kinds(self._sim, sender))
            if not kinds:
                continue
            kind = self._pick_kind(kinds)
            recipient = None
            if kind is TxKind.TRANSFER:
                recipient = self._pick_buyer(sender)
                if recipient is None:
                    continue
            tx = NFTTransaction(
                kind=kind,
                sender=sender,
                recipient=recipient,
                base_fee=1.0,
                priority_fee=self._priority_fee(),
                nonce=self._nonce,
                label=f"stream-{self._nonce}",
            )
            self._nonce += 1
            self._sim.apply(tx)
            return tx
        raise ReproError(
            "traffic generator found no feasible transaction after 16 "
            "draws; increase balances or supply headroom"
        )

    def next_batch(self, count: int) -> Tuple[NFTTransaction, ...]:
        """The next ``count`` transactions of the stream."""
        if count <= 0:
            raise ReproError("batch size must be positive")
        return tuple(self._next_tx() for _ in range(count))

    def involvement(self, txs) -> dict:
        """Per-IFU participation counts over ``txs`` (telemetry helper)."""
        return {
            ifu: sum(1 for tx in txs if tx.involves(ifu)) for ifu in self.ifus
        }
