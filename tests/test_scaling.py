"""Coarse scalability guards.

Not micro-benchmarks (the gate benches in ``benchmarks/`` and the
end-to-end ``bench/`` own those) — these are generous upper bounds that
fail only on order-of-magnitude regressions in the paths every
experiment hammers.
"""

import time

import pytest

from repro.config import GenTranSeqConfig, WorkloadConfig
from repro.core import ReorderEnv
from repro.rollup import OVM
from repro.workloads import generate_workload


@pytest.fixture(scope="module")
def big_workload():
    return generate_workload(
        WorkloadConfig(mempool_size=100, num_users=30, num_ifus=1,
                       min_ifu_involvement=10, seed=0)
    )


class TestScaling:
    def test_env_steps_at_n100(self, big_workload):
        """100 environment steps at mempool 100 stay under 10 s."""
        env = ReorderEnv(
            pre_state=big_workload.pre_state,
            transactions=big_workload.transactions,
            ifus=big_workload.ifus,
            config=GenTranSeqConfig(steps_per_episode=100, seed=0),
        )
        env.reset()
        started = time.perf_counter()
        for action in range(100):
            env.step(action % env.action_count)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0

    def test_replay_at_n100(self, big_workload):
        """A single 100-tx replay stays well under a second."""
        ovm = OVM()
        started = time.perf_counter()
        for _ in range(50):
            ovm.replay(big_workload.pre_state, big_workload.transactions)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0

    def test_action_space_at_n100(self, big_workload):
        env = ReorderEnv(
            pre_state=big_workload.pre_state,
            transactions=big_workload.transactions,
            ifus=big_workload.ifus,
        )
        assert env.action_count == 100 * 99 // 2
        assert env.observation_size == 800

    def test_workload_generation_at_n200(self):
        started = time.perf_counter()
        workload = generate_workload(
            WorkloadConfig(mempool_size=200, num_users=40, num_ifus=2,
                           min_ifu_involvement=10, seed=1)
        )
        elapsed = time.perf_counter() - started
        assert workload.mempool_size == 200
        assert elapsed < 10.0
