"""The event clock and the simulated network of the rollup deployment.

The in-process :class:`~repro.rollup.node.RollupNode` executes rounds
atomically; :class:`~repro.faults.deployment.Deployment` places those
rounds on an :class:`EventQueue` clock (one round per Bedrock block
interval), and the chaos harness delivers user arrivals over a
latency-modelled :class:`SimNetwork` on that same clock, where fault
plans drop, partition and heal links.

* :mod:`repro.sim.events`  — the event queue;
* :mod:`repro.sim.network` — latency model, message scheduling, drops.
"""

from .events import Event, EventQueue
from .network import LatencyModel, Message, SimNetwork

__all__ = [
    "Event",
    "EventQueue",
    "LatencyModel",
    "Message",
    "SimNetwork",
]
