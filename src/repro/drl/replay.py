"""Replay memory buffer (Figure 2's experience repository).

A fixed-capacity ring buffer of transitions; uniform random sampling
breaks the temporal correlation of consecutive experiences, stabilising
Q-network training exactly as described in Section II-C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import DRLError


@dataclass(frozen=True)
class Transition:
    """One agent experience ``(s, a, r, s', done)``."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    done: bool


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform sampling."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise DRLError("replay capacity must be positive")
        self.capacity = capacity
        self._storage: List[Optional[Transition]] = [None] * capacity
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def is_full(self) -> bool:
        """Whether the buffer has wrapped at least once."""
        return self._size == self.capacity

    def push(self, transition: Transition) -> None:
        """Append a transition, evicting the oldest when full."""
        self._storage[self._next] = transition
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(
        self, batch_size: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Uniformly sample a training batch as stacked arrays.

        Returns ``(states, actions, rewards, next_states, dones)``.
        """
        if batch_size <= 0:
            raise DRLError("batch_size must be positive")
        if self._size < batch_size:
            raise DRLError(
                f"buffer holds {self._size} transitions, need {batch_size}"
            )
        indices = rng.choice(self._size, size=batch_size, replace=False)
        batch = [self._storage[i] for i in indices]
        states = np.stack([t.state for t in batch])
        actions = np.array([t.action for t in batch], dtype=np.int64)
        rewards = np.array([t.reward for t in batch], dtype=np.float64)
        next_states = np.stack([t.next_state for t in batch])
        dones = np.array([t.done for t in batch], dtype=bool)
        return states, actions, rewards, next_states, dones

    def state_dict(self) -> dict:
        """Ring contents plus cursor — enough to resume eviction order."""
        return {
            "capacity": self.capacity,
            "next": self._next,
            "size": self._size,
            "storage": list(self._storage),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this buffer.

        Raises :class:`DRLError`, leaving the buffer as it was, unless
        the capacity and storage length match and ``0 <= next <
        capacity`` and ``0 <= size <= capacity``.
        """
        capacity = int(state["capacity"])
        if capacity != self.capacity:
            raise DRLError(
                f"checkpoint capacity {capacity} != buffer capacity "
                f"{self.capacity}"
            )
        storage = list(state["storage"])
        if len(storage) != capacity:
            raise DRLError("checkpoint storage length mismatch")
        cursor = int(state["next"])
        size = int(state["size"])
        if not 0 <= cursor < capacity:
            raise DRLError(f"checkpoint next={cursor} outside [0, {capacity})")
        if not 0 <= size <= capacity:
            raise DRLError(f"checkpoint size={size} outside [0, {capacity}]")
        self._storage = storage
        self._next = cursor
        self._size = size

    def clear(self) -> None:
        """Drop every stored transition."""
        self._storage = [None] * self.capacity
        self._next = 0
        self._size = 0
