"""The flat-buffer Q-network against the per-array oracle, bit for bit.

``per_array_network`` is the network as it was before its parameters,
gradients and Adam moments moved into flat buffers.  Both are driven
through the same sequence of single-row forwards, training steps,
target syncs, clones, ``.npz`` round trips and checkpoint resumes at
Fig. 8's quick shape, and every parameter, moment and loss must match
by ``tobytes()``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.config import GenTranSeqConfig
from repro.drl import MLP, DQNAgent
from repro.errors import NetworkShapeError
from tests.drl import per_array_network as oracle

# Fig. 8 at quick effort: 12 transactions -> 8 x 12 inputs, 66 swaps.
INPUTS, HIDDEN, ACTIONS, BATCH = 96, (128, 64), 66, 32


def build(cls, seed=0):
    return cls(INPUTS, HIDDEN, ACTIONS, np.random.default_rng(seed))


def assert_same(new, old):
    """Identical parameters, Adam moments and step counts, by bytes."""
    mine, theirs = new.state_dict(), old.state_dict()
    for key in ("weights", "biases"):
        assert [a.tobytes() for a in mine[key]] == [
            a.tobytes() for a in theirs[key]
        ]
    for key in ("m", "v"):
        assert sorted(mine["optimizer"][key]) == sorted(theirs["optimizer"][key])
        for index, moment in theirs["optimizer"][key].items():
            assert mine["optimizer"][key][index].shape == moment.shape
            assert mine["optimizer"][key][index].tobytes() == moment.tobytes()
    assert mine["optimizer"]["t"] == theirs["optimizer"]["t"]


def resumed(cls, state, seed):
    network = build(cls, seed)
    network.load_state_dict(state)
    return network


def test_matches_per_array_oracle_over_200_steps(tmp_path):
    new, old = build(MLP), build(oracle.MLP)
    new_rng, old_rng = np.random.default_rng(1), np.random.default_rng(1)
    new_target, old_target = new.clone(new_rng), old.clone(old_rng)
    data = np.random.default_rng(7)
    for step in range(200):
        row = data.uniform(size=INPUTS)
        assert new.forward(row).tobytes() == old.forward(row).tobytes()
        states, next_states = data.uniform(size=(2, BATCH, INPUTS))
        actions = data.integers(ACTIONS, size=BATCH)
        rewards = data.normal(size=BATCH)
        targets = [
            rewards + 0.9 * target.forward(next_states).max(axis=1)
            for target in (new_target, old_target)
        ]
        assert targets[0].tobytes() == targets[1].tobytes()
        if step % 2:
            losses = [
                net.train_on_targets(states, actions, target)
                for net, target in zip((new, old), targets)
            ]
        else:  # DQNAgent's path: one remembered forward, blended targets
            losses = []
            for net, target in zip((new, old), targets):
                current = net.forward(states, remember=True)
                blended = 0.9 * current[np.arange(BATCH), actions] + 0.1 * target
                losses.append(net.train_on_cached_targets(actions, blended))
        assert losses[0] == losses[1]
        if step % 10 == 9:
            new_target.copy_weights_from(new)
            old_target.copy_weights_from(old)
        if step == 50:
            new_target, old_target = new.clone(new_rng), old.clone(old_rng)
        if step == 100:  # each side loads the archive the other wrote
            new.save(tmp_path / "new.npz")
            old.save(tmp_path / "old.npz")
            new_target = MLP.load(tmp_path / "old.npz", new_rng)
            old_target = oracle.MLP.load(tmp_path / "new.npz", old_rng)
        if step == 150:  # each side resumes from the other's checkpoint
            new, old = (
                resumed(MLP, old.state_dict(), seed=5),
                resumed(oracle.MLP, new.state_dict(), seed=6),
            )
        assert_same(new, old)
        assert_same(new_target, old_target)


def test_resumes_a_checkpoint_in_the_per_array_format():
    old = build(oracle.MLP)
    data = np.random.default_rng(3)

    def train(net, steps):
        for _ in range(steps):
            states = data.uniform(size=(BATCH, INPUTS))
            net.train_on_targets(
                states, data.integers(ACTIONS, size=BATCH), data.normal(size=BATCH)
            )

    train(old, 5)
    state = old.state_dict()
    assert len(state["optimizer"]["m"]) == len(state["optimizer"]["v"]) == 6
    new = resumed(MLP, state, seed=9)
    assert_same(new, old)
    data_state = data.bit_generator.state
    train(new, 5)
    data.bit_generator.state = data_state
    train(old, 5)
    assert_same(new, old)


def test_fresh_network_checkpoint_matches_the_per_array_format():
    # No Adam step yet: both formats carry empty moments.
    assert build(MLP).state_dict()["optimizer"] == {"m": {}, "v": {}, "t": 0}
    assert_same(build(MLP), build(oracle.MLP))


def test_agent_generator_state_after_construction():
    config = GenTranSeqConfig(seed=4)
    agent = DQNAgent(INPUTS, ACTIONS, config=config)
    rng = np.random.default_rng(config.seed)
    q_network = oracle.MLP(INPUTS, config.hidden_layers, ACTIONS, rng,
                           learning_rate=config.gradient_learning_rate)
    target = q_network.clone(rng)
    assert agent.rng.bit_generator.state == rng.bit_generator.state
    assert_same(agent.q_network, q_network)
    assert_same(agent.target_network, target)


def test_warm_training_step_allocates_less_than_the_parameters():
    """A warm step allocates only activation-sized arrays: no gradient,
    moment or Adam temporary the size of a weight matrix."""
    network = build(MLP)
    data = np.random.default_rng(2)
    states = data.uniform(size=(BATCH, INPUTS))
    actions = data.integers(ACTIONS, size=BATCH)
    targets = data.normal(size=BATCH)
    network.train_on_targets(states, actions, targets)
    tracemalloc.start()
    try:
        network.train_on_targets(states, actions, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert network.memory_bytes() == 199_696
    assert peak < network.memory_bytes()


class TestBadCheckpoints:
    """A checkpoint that does not fit raises before anything changes."""

    @pytest.fixture
    def trained(self):
        network = build(MLP)
        data = np.random.default_rng(8)
        network.train_on_targets(
            data.uniform(size=(BATCH, INPUTS)),
            data.integers(ACTIONS, size=BATCH),
            data.normal(size=BATCH),
        )
        return network

    def assert_rejected(self, network, state):
        before = network.state_dict()
        with pytest.raises(NetworkShapeError):
            network.load_state_dict(state)
        assert_same(network, resumed(MLP, before, seed=0))

    def test_bias_of_wrong_shape(self, trained):
        state = trained.state_dict()
        state["biases"][1] = np.zeros(1)
        self.assert_rejected(trained, state)

    def test_moment_of_wrong_shape(self, trained):
        state = trained.state_dict()
        state["optimizer"]["v"][2] = np.zeros((64, 128))
        self.assert_rejected(trained, state)

    def test_moment_count(self, trained):
        state = trained.state_dict()
        del state["optimizer"]["m"][5]
        self.assert_rejected(trained, state)
