"""Tests for the replay memory buffer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.drl import ReplayBuffer, Transition
from repro.errors import DRLError


def make_transition(tag: float) -> Transition:
    return Transition(
        state=np.array([tag]),
        action=int(tag),
        reward=tag,
        next_state=np.array([tag + 1]),
        done=False,
    )


class TestPush:
    def test_grows_until_capacity(self):
        buffer = ReplayBuffer(capacity=3)
        for i in range(3):
            buffer.push(make_transition(float(i)))
        assert len(buffer) == 3
        assert buffer.is_full

    def test_ring_eviction(self):
        buffer = ReplayBuffer(capacity=2)
        for i in range(5):
            buffer.push(make_transition(float(i)))
        assert len(buffer) == 2
        states, _, rewards, _, _ = buffer.sample(2, np.random.default_rng(0))
        assert set(rewards.tolist()) == {3.0, 4.0}

    def test_nonpositive_capacity_raises(self):
        with pytest.raises(DRLError):
            ReplayBuffer(capacity=0)

    def test_clear(self):
        buffer = ReplayBuffer(capacity=4)
        buffer.push(make_transition(1.0))
        buffer.clear()
        assert len(buffer) == 0


class TestSample:
    def test_sample_shapes(self):
        buffer = ReplayBuffer(capacity=10)
        for i in range(6):
            buffer.push(make_transition(float(i)))
        states, actions, rewards, next_states, dones = buffer.sample(
            4, np.random.default_rng(1)
        )
        assert states.shape == (4, 1)
        assert actions.shape == (4,)
        assert rewards.shape == (4,)
        assert next_states.shape == (4, 1)
        assert dones.dtype == bool

    def test_sample_without_replacement(self):
        buffer = ReplayBuffer(capacity=10)
        for i in range(5):
            buffer.push(make_transition(float(i)))
        _, actions, _, _, _ = buffer.sample(5, np.random.default_rng(2))
        assert len(set(actions.tolist())) == 5

    def test_undersized_buffer_raises(self):
        buffer = ReplayBuffer(capacity=10)
        buffer.push(make_transition(1.0))
        with pytest.raises(DRLError):
            buffer.sample(2, np.random.default_rng(0))

    def test_nonpositive_batch_raises(self):
        buffer = ReplayBuffer(capacity=10)
        buffer.push(make_transition(1.0))
        with pytest.raises(DRLError):
            buffer.sample(0, np.random.default_rng(0))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=1, max_value=60))
    def test_property_size_never_exceeds_capacity(self, capacity, pushes):
        buffer = ReplayBuffer(capacity=capacity)
        for i in range(pushes):
            buffer.push(make_transition(float(i)))
        assert len(buffer) == min(capacity, pushes)


class TestLoadStateDict:
    """A checkpoint's cursor and size must fit the ring."""

    @pytest.fixture
    def buffer(self):
        buffer = ReplayBuffer(capacity=4)
        for i in range(3):
            buffer.push(make_transition(float(i)))
        return buffer

    @pytest.mark.parametrize("field, value", [
        ("next", 4), ("next", -1), ("size", 5), ("size", -1),
    ])
    def test_out_of_range_rejected_before_any_change(self, buffer, field, value):
        state = ReplayBuffer(capacity=4).state_dict()
        state[field] = value
        with pytest.raises(DRLError, match=f"{field}="):
            buffer.load_state_dict(state)
        assert len(buffer) == 3
        assert buffer.state_dict()["storage"][2] is not None
