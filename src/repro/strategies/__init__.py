"""Adversary strategy plug-ins: the protocol, the registry, the fleet.

See ``docs/strategies.md`` for the protocol contract, the action
taxonomy and the third-party plug-in guide.  The shipped strategies are
exposed lazily (``from repro.strategies import SandwichStrategy`` works,
but importing this package does not pull in the DQN stack), so
:mod:`repro.rollup.aggregator` can depend on the protocol types without
an import cycle.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

from .base import (
    ACTION_KINDS,
    ActionVerdict,
    BaseStrategy,
    HonestStrategy,
    MempoolView,
    Reorderer,
    ReordererStrategy,
    StrategyAccount,
    StrategyAction,
    validate_action,
)
from .registry import (
    STRATEGIES,
    StrategyContext,
    default_strategies,
)

if TYPE_CHECKING:  # pragma: no cover - static-analysis imports only
    from .backrun import OptimisticBackrunStrategy
    from .parole_reorder import ParoleReorderStrategy
    from .revert_spam import RevertSpamStrategy
    from .sandwich import SandwichStrategy

#: Lazily-imported shipped plug-ins (kept out of the eager import path).
_LAZY = {
    "ParoleReorderStrategy": ".parole_reorder",
    "SandwichStrategy": ".sandwich",
    "RevertSpamStrategy": ".revert_spam",
    "OptimisticBackrunStrategy": ".backrun",
}

__all__ = [
    "ACTION_KINDS",
    "ActionVerdict",
    "BaseStrategy",
    "HonestStrategy",
    "MempoolView",
    "Reorderer",
    "ReordererStrategy",
    "StrategyAccount",
    "StrategyAction",
    "validate_action",
    "STRATEGIES",
    "StrategyContext",
    "default_strategies",
    "ParoleReorderStrategy",
    "SandwichStrategy",
    "RevertSpamStrategy",
    "OptimisticBackrunStrategy",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(module_name, __name__)
    return getattr(module, name)
