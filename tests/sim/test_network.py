"""Tests for the simulated network."""

import numpy as np
import pytest

from repro.sim import EventQueue, LatencyModel, SimNetwork
from repro.sim.events import SimError


@pytest.fixture
def setup():
    queue = EventQueue()
    network = SimNetwork(
        queue, latency=LatencyModel(base=0.1, jitter=0.0),
        rng=np.random.default_rng(0),
    )
    inbox = {"a": [], "b": []}
    network.register("a", lambda m: inbox["a"].append(m))
    network.register("b", lambda m: inbox["b"].append(m))
    return queue, network, inbox


class TestDelivery:
    def test_message_arrives_after_latency(self, setup):
        queue, network, inbox = setup
        network.send("a", "b", "ping", {"x": 1})
        queue.run()
        assert len(inbox["b"]) == 1
        message = inbox["b"][0]
        assert message.kind == "ping"
        assert message.payload == {"x": 1}
        assert message.delivered_at == pytest.approx(0.1)

    def test_unknown_recipient_rejected(self, setup):
        _, network, _ = setup
        with pytest.raises(SimError):
            network.send("a", "ghost", "ping")

    def test_duplicate_registration_rejected(self, setup):
        _, network, _ = setup
        with pytest.raises(SimError):
            network.register("a", lambda m: None)

    def test_jitter_varies_latency(self):
        queue = EventQueue()
        network = SimNetwork(
            queue, latency=LatencyModel(base=0.1, jitter=0.5),
            rng=np.random.default_rng(1),
        )
        arrivals = []
        network.register("x", lambda m: arrivals.append(m.delivered_at))
        network.register("y", lambda m: None)
        for _ in range(10):
            network.send("y", "x", "ping")
        queue.run()
        assert len(set(arrivals)) > 1
        assert all(t >= 0.1 for t in arrivals)

    def test_per_link_latency_override(self, setup):
        queue, network, inbox = setup
        network.set_link_latency("a", "b", LatencyModel(base=5.0, jitter=0.0))
        network.send("a", "b", "slow")
        queue.run()
        assert inbox["b"][0].delivered_at == pytest.approx(5.0)


class TestFailures:
    def test_partition_blocks_delivery(self, setup):
        queue, network, inbox = setup
        network.partition("a", "b")
        delivered = network.send("a", "b", "ping")
        queue.run()
        assert not delivered
        assert inbox["b"] == []
        assert network.dropped == [("a", "b", "ping")]

    def test_heal_restores_link(self, setup):
        queue, network, inbox = setup
        network.partition("a", "b")
        network.heal("a", "b")
        assert network.send("a", "b", "ping")
        queue.run()
        assert len(inbox["b"]) == 1

    def test_drop_rate(self):
        queue = EventQueue()
        network = SimNetwork(
            queue, latency=LatencyModel(base=0.0, jitter=0.0),
            rng=np.random.default_rng(0), drop_rate=0.5,
        )
        received = []
        network.register("x", lambda m: received.append(m))
        network.register("y", lambda m: None)
        for _ in range(100):
            network.send("y", "x", "ping")
        queue.run()
        assert 20 < len(received) < 80
        assert len(received) + len(network.dropped) == 100

    def test_invalid_drop_rate_rejected(self):
        with pytest.raises(SimError):
            SimNetwork(EventQueue(), drop_rate=1.0)

    def test_set_drop_rate_validates(self, setup):
        _, network, _ = setup
        network.set_drop_rate(0.3)
        assert network.drop_rate == 0.3
        with pytest.raises(SimError):
            network.set_drop_rate(1.0)
        with pytest.raises(SimError):
            network.set_drop_rate(-0.1)


class TestLatencyModelValidation:
    def test_negative_base_rejected_at_construction(self):
        """Regression: a negative base used to surface much later as a
        'cannot schedule into the past' SimError inside send()."""
        with pytest.raises(SimError):
            LatencyModel(base=-0.01)

    def test_non_finite_base_and_jitter_rejected(self):
        with pytest.raises(SimError):
            LatencyModel(base=float("nan"))
        with pytest.raises(SimError):
            LatencyModel(base=float("inf"))
        with pytest.raises(SimError):
            LatencyModel(base=0.1, jitter=float("inf"))

    def test_zero_base_still_valid(self):
        assert LatencyModel(base=0.0, jitter=0.0).sample(
            np.random.default_rng(0)
        ) == 0.0


class TestDeliveryDeterminism:
    @staticmethod
    def _run_sends(seed):
        queue = EventQueue()
        network = SimNetwork(
            queue, latency=LatencyModel(base=0.05, jitter=0.02),
            rng=np.random.default_rng(seed), drop_rate=0.3,
        )
        log = []
        for name in ("a", "b", "c", "d"):
            network.register(
                name, lambda m, name=name: log.append(
                    (name, m.kind, round(m.delivered_at, 12))
                )
            )
        network.partition("a", "c")
        for i in range(20):
            for peer in ("b", "c", "d"):
                network.send("a", peer, f"msg-{i}")
        queue.run()
        return log, list(network.dropped)

    def test_same_seed_same_delivery_and_drop_logs(self):
        """Partitions plus a nonzero drop rate stay fully deterministic:
        the same seed yields identical delivered and dropped logs."""
        first = self._run_sends(seed=7)
        second = self._run_sends(seed=7)
        assert first == second
        delivered, dropped = first
        assert delivered and dropped  # both paths actually exercised

    def test_partitioned_peer_never_hears_the_sender(self):
        delivered, dropped = self._run_sends(seed=7)
        assert all(name != "c" for name, _, _ in delivered)
        assert sum(1 for _, target, _ in dropped if target == "c") == 20

    def test_different_seed_changes_drops(self):
        assert self._run_sends(seed=7)[0] != self._run_sends(seed=8)[0]
