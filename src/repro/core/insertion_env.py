"""Insertion-action MDP variant (ablation of the swap design choice).

The paper's GENTRANSEQ acts by *swapping* two transactions
(:math:`\\binom{N}{2}` actions).  A natural alternative moves one
transaction to a new position — ``N * (N - 1)`` "take i, insert before
j" actions.  Insertion reaches any permutation in at most ``N - 1``
moves (vs swaps' ``N - 1`` too, but with different neighbourhood
geometry) and is the standard move in list-scheduling local search.
DESIGN.md calls this ablation out; ``tests/conformance/test_ablations.py``
runs it.

The class reuses the whole scoring/feasibility machinery of
:class:`~repro.core.environment.ReorderEnv` and only overrides the
action set.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from ..errors import DRLError
from .environment import ReorderEnv


@lru_cache(maxsize=None)
def insertion_action_table(sequence_length: int) -> Tuple[Tuple[int, int], ...]:
    """Enumerate (source position, target position) insertion moves.

    ``(i, j)`` removes the transaction at position ``i`` and re-inserts
    it at position ``j`` (positions after removal re-index naturally).
    Identity moves ``(i, i)`` are excluded.  Cached per N, like
    :func:`~repro.core.environment.swap_action_table`.
    """
    return tuple(
        (i, j)
        for i in range(sequence_length)
        for j in range(sequence_length)
        if i != j
    )


class InsertionReorderEnv(ReorderEnv):
    """ReorderEnv with move-to-position actions instead of swaps."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._actions = insertion_action_table(len(self.transactions))

    def step(self, action: int):
        """Move one transaction to a new position and score the replay."""
        if not 0 <= action < len(self._actions):
            raise DRLError(
                f"action {action} outside [0, {len(self._actions)})"
            )
        source, target = self._actions[action]
        moved = self._order.pop(source)
        self._order.insert(target, moved)
        self._steps += 1
        reward, info = self._score()
        done = self._steps >= self.config.steps_per_episode
        observation = self._observe(info.pop("summary"))
        return observation, reward, done, info
