"""The strategy registry: named factories the matrix and API resolve.

Third-party plug-ins register a *factory* (not an instance) on a
:class:`~repro.registry.Registry`: every matrix cell constructs a fresh
strategy from a :class:`StrategyContext` (who the IFUs are, the cell
seed, the effort preset, the opening unit price) so no state leaks
between cells and the whole grid stays a pure function of ``(config,
seed)``.

The shipped strategies are registered lazily — their modules import
only when first constructed — so importing :mod:`repro.strategies`
stays cheap and cycle-free from inside :mod:`repro.rollup`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..registry import Registry
from .base import BaseStrategy


@dataclass(frozen=True)
class StrategyContext:
    """Everything a factory may condition on when building a strategy."""

    #: The illicitly favored users of the deployment (reference plug-in).
    ifus: Tuple[str, ...] = ()
    seed: int = 0
    #: Effort preset name ("quick" or "full") — scales training budgets.
    preset: str = "quick"
    #: Unit price of the collection at cell start (sizes bankrolls).
    initial_price: float = 0.2


# --------------------------------------------------------------------- #
# Shipped strategies (factories import lazily to keep this module free
# of heavy imports — repro.rollup.aggregator imports this package).
# --------------------------------------------------------------------- #


def _honest(context: StrategyContext) -> BaseStrategy:
    from .base import HonestStrategy

    return HonestStrategy()


def _parole_reorder(context: StrategyContext) -> BaseStrategy:
    from .parole_reorder import ParoleReorderStrategy

    episodes, steps = (12, 80) if context.preset == "full" else (3, 24)
    return ParoleReorderStrategy(
        ifus=context.ifus,
        seed=context.seed,
        episodes=episodes,
        steps_per_episode=steps,
    )


def _sandwich(context: StrategyContext) -> BaseStrategy:
    from .sandwich import SandwichStrategy

    return SandwichStrategy(seed=context.seed)


def _revert_spam(context: StrategyContext) -> BaseStrategy:
    from .revert_spam import RevertSpamStrategy

    # Bankroll just above one claim at the opening price: the first
    # duplicate wins, every other duplicate loses and reverts.
    return RevertSpamStrategy(
        bankroll_eth=round(context.initial_price * 1.4, 9),
        seed=context.seed,
    )


def _optimistic_backrun(context: StrategyContext) -> BaseStrategy:
    from .backrun import OptimisticBackrunStrategy

    return OptimisticBackrunStrategy(seed=context.seed)


def default_strategies() -> Registry:
    """A fresh registry holding every shipped strategy.

    ``create(name)`` without a context builds from ``StrategyContext()``.
    """
    registry = Registry("strategy", StrategyContext())
    registry.register(
        "honest",
        "baseline: execute every batch in collected order",
        _honest,
    )
    registry.register(
        "parole-reorder",
        "PAROLE reference plug-in: GENTRANSEQ permute-only reordering "
        "favoring the IFUs",
        _parole_reorder,
    )
    registry.register(
        "sandwich",
        "front-run/back-run insertion around victim NFT buys",
        _sandwich,
    )
    registry.register(
        "revert-spam",
        "duplicate-claim spam: losers revert, paying fees for priority",
        _revert_spam,
    )
    registry.register(
        "optimistic-backrun",
        "speculative backruns on observed-but-unconfirmed pending state",
        _optimistic_backrun,
    )
    return registry


#: The process-wide default registry (what the API facade and the matrix
#: resolve names against).  Third-party code may register into it.
STRATEGIES: Registry = default_strategies()
