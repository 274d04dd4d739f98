"""Ablations of the GENTRANSEQ design choices DESIGN.md §5 calls out.

Not paper figures: these check that each design choice still exploits
the case-study fixture at a small budget (seed 3, 10 episodes of 40
steps):

* swap actions (the paper's choice) vs insertion actions;
* the penalty weight ``W`` of Eq. 8;
* the target-network update period of Table II;
* vanilla DQN vs Double DQN vs prioritized replay;
* the Eq. 9 exponential schedule vs the paper's literal (typo) form.
"""

import pytest

from repro.config import GenTranSeqConfig
from repro.core import InsertionReorderEnv, ReorderEnv
from repro.drl import (
    DoubleDQNAgent,
    DQNAgent,
    EpsilonSchedule,
    PrioritizedDQNAgent,
    train,
)
from repro.workloads import case_study_fixture
from repro.workloads.scenarios import IFU

BUDGET = dict(episodes=10, steps_per_episode=40)


def _train_on_case_study(env_cls, config, agent_cls=DQNAgent):
    workload = case_study_fixture()
    env = env_cls(
        pre_state=workload.pre_state,
        transactions=workload.transactions,
        ifus=(IFU,),
        config=config,
    )
    agent = agent_cls(env.observation_size, env.action_count, config=config)
    history = train(env, agent, config)
    return env, history


def test_ablation_swap_vs_insertion():
    """The paper's swap-action MDP vs the insertion-action variant."""
    config = GenTranSeqConfig(seed=3, **BUDGET)
    swap_env, swap = _train_on_case_study(ReorderEnv, config)
    insert_env, insert = _train_on_case_study(InsertionReorderEnv, config)
    # Both action spaces must be able to exploit the case study.
    assert swap.best_profit > 0
    assert insert.best_profit > 0
    # Insertion has the larger action space (N(N-1) vs N(N-1)/2).
    assert insert_env.action_count == 2 * swap_env.action_count


def test_ablation_penalty_weight():
    """Eq. 8's W: how hard to punish infeasible/losing orders."""
    histories = {
        weight: _train_on_case_study(
            ReorderEnv,
            GenTranSeqConfig(seed=3, penalty_weight=weight, **BUDGET),
        )[1]
        for weight in (1.0, 10.0, 50.0)
    }
    # All weights complete and the library default W=10 finds profit.
    assert all(h.best_profit >= 0 for h in histories.values())
    assert histories[10.0].best_profit > 0

    # Stronger penalties push mean episode reward down (more negative).
    def mean_reward(history):
        return sum(history.rewards) / len(history.rewards)

    assert mean_reward(histories[50.0]) <= mean_reward(histories[1.0])


def test_ablation_target_network_period():
    """Table II updates the target network every 30 steps; vary it."""
    histories = [
        _train_on_case_study(
            ReorderEnv,
            GenTranSeqConfig(
                seed=3, target_network_update_every=period, **BUDGET
            ),
        )[1]
        for period in (5, 30, 10_000)
    ]
    assert len(histories) == 3
    assert all(h.best_profit >= 0 for h in histories)


def test_ablation_dqn_variants():
    """Vanilla DQN (the paper) vs Double DQN vs prioritized replay."""
    config = GenTranSeqConfig(seed=3, **BUDGET)
    for agent_cls in (DQNAgent, DoubleDQNAgent, PrioritizedDQNAgent):
        _, history = _train_on_case_study(ReorderEnv, config, agent_cls)
        # Every variant must exploit the case study within the budget.
        assert history.best_profit > 0, agent_cls.__name__


def test_ablation_epsilon_schedule_modes():
    """Eq. 9 as printed grows above 1; the exponential fix decays."""
    episodes = (0, 25, 50, 99)
    exponential = EpsilonSchedule(
        epsilon_max=0.95, epsilon_min=0.01, decay=0.05
    )
    literal = EpsilonSchedule(
        epsilon_max=0.95, epsilon_min=0.01, decay=0.05, mode="literal"
    )
    exp_values = [exponential.value(i) for i in episodes]
    lit_values = [literal.value(i) for i in episodes]
    # The exponential schedule decays toward eps_min...
    assert exp_values[0] > exp_values[-1]
    assert exp_values[-1] == pytest.approx(0.01, abs=0.01)
    # ...while the literal formula never decays (clamps at eps_max).
    assert all(v == pytest.approx(0.95) for v in lit_values)
