"""Latency-modelled message passing between named nodes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from .events import EventQueue, SimError


@dataclass(frozen=True)
class Message:
    """One network message."""

    sender: str
    recipient: str
    kind: str
    payload: Any
    sent_at: float
    delivered_at: float


@dataclass(frozen=True)
class LatencyModel:
    """Base-plus-jitter delivery latency.

    ``base`` is the floor, ``jitter`` the scale of an exponential tail —
    a standard WAN model: most messages arrive near the base, a few
    straggle.
    """

    base: float = 0.05
    jitter: float = 0.02

    def __post_init__(self) -> None:
        # A negative base would make SimNetwork.send crash far from the
        # cause with "cannot schedule into the past" — fail fast here.
        if not math.isfinite(self.base) or self.base < 0:
            raise SimError(
                f"latency base must be finite and >= 0, got {self.base}"
            )
        if not math.isfinite(self.jitter):
            raise SimError(f"latency jitter must be finite, got {self.jitter}")

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one delivery latency."""
        if self.jitter <= 0:
            return self.base
        return self.base + float(rng.exponential(self.jitter))


class SimNetwork:
    """Message router with per-link latency, drops and partitions."""

    def __init__(
        self,
        queue: EventQueue,
        latency: Optional[LatencyModel] = None,
        rng: Optional[np.random.Generator] = None,
        drop_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= drop_rate < 1.0:
            raise SimError("drop_rate must be in [0, 1)")
        self.queue = queue
        self.latency = latency or LatencyModel()
        self.rng = rng or np.random.default_rng(0)
        self.drop_rate = drop_rate
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        self._partitioned: Set[frozenset] = set()
        self._link_latency: Dict[Tuple[str, str], LatencyModel] = {}
        self.delivered: List[Message] = []
        self.dropped: List[Tuple[str, str, str]] = []

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #

    def register(self, name: str, handler: Callable[[Message], None]) -> None:
        """Attach a node's message handler."""
        if name in self._handlers:
            raise SimError(f"node {name!r} already registered")
        self._handlers[name] = handler

    def set_drop_rate(self, rate: float) -> None:
        """Change the global drop rate (fault injection's burst-drop path)."""
        if not 0.0 <= rate < 1.0:
            raise SimError("drop_rate must be in [0, 1)")
        self.drop_rate = rate

    def set_link_latency(self, a: str, b: str, latency: LatencyModel) -> None:
        """Override the latency of one (undirected) link."""
        self._link_latency[(a, b)] = latency
        self._link_latency[(b, a)] = latency

    def partition(self, a: str, b: str) -> None:
        """Cut the (undirected) link between two nodes."""
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        """Restore a previously-cut link."""
        self._partitioned.discard(frozenset((a, b)))

    def _latency_for(self, sender: str, recipient: str) -> LatencyModel:
        return self._link_latency.get((sender, recipient), self.latency)

    # ------------------------------------------------------------------ #
    # Messaging
    # ------------------------------------------------------------------ #

    def send(
        self, sender: str, recipient: str, kind: str, payload: Any = None
    ) -> bool:
        """Schedule delivery of a message; returns False when dropped."""
        if recipient not in self._handlers:
            raise SimError(f"unknown recipient {recipient!r}")
        if frozenset((sender, recipient)) in self._partitioned:
            self.dropped.append((sender, recipient, kind))
            return False
        if self.drop_rate > 0 and self.rng.random() < self.drop_rate:
            self.dropped.append((sender, recipient, kind))
            return False
        delay = self._latency_for(sender, recipient).sample(self.rng)
        sent_at = self.queue.now

        def deliver() -> None:
            message = Message(
                sender=sender,
                recipient=recipient,
                kind=kind,
                payload=payload,
                sent_at=sent_at,
                delivered_at=self.queue.now,
            )
            self.delivered.append(message)
            self._handlers[recipient](message)

        self.queue.schedule(delay, deliver, label=f"{kind}:{sender}->{recipient}")
        return True
