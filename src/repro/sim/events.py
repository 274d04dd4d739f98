"""The discrete-event queue: the deployment's one clock."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..errors import ReproError


class SimError(ReproError):
    """Simulation-layer failure."""


@dataclass(order=True)
class Event:
    """One scheduled callback.

    Ordering is (time, sequence): ties resolve in scheduling order, so
    the simulation is fully deterministic.
    """

    time: float
    sequence: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")


class EventQueue:
    """A deterministic priority queue of timed events."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending(self) -> int:
        """Events still scheduled."""
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Events executed so far."""
        return self._processed

    def schedule(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        event = Event(
            time=self._now + delay,
            sequence=next(self._counter),
            action=action,
            label=label,
        )
        heapq.heappush(self._heap, event)
        return event

    def step(self) -> Optional[Event]:
        """Execute the next event; returns it, or None when empty."""
        if not self._heap:
            return None
        event = heapq.heappop(self._heap)
        self._now = event.time
        event.action()
        self._processed += 1
        return event

    def run_before(self, time: float) -> int:
        """Fire every event due strictly before ``time``, then stand at it.

        An event due at exactly ``time`` stays queued, so whatever the
        caller does at ``time`` happens before it.  Returns the number of
        events executed.
        """
        executed = 0
        while self._heap and self._heap[0].time < time:
            self.step()
            executed += 1
        self._now = max(self._now, time)
        return executed

    def run(self, max_events: int = 1_000_000) -> int:
        """Drain the queue; returns the number of events executed.

        ``max_events`` guards against runaway self-scheduling loops.
        """
        executed = 0
        while self._heap and executed < max_events:
            self.step()
            executed += 1
        if self._heap:
            # Only a genuine runaway: the budget is spent *and* events
            # remain.  Draining in exactly ``max_events`` events is
            # normal exhaustion, not an error.
            raise SimError(f"exceeded {max_events} events; runaway loop?")
        return executed
