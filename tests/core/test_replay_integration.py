"""Integration tests: the environments never replay from scratch.

Acceptance criterion of the replay acceleration layer: after the single
baseline replay at construction, every ``ReorderEnv.step`` (and solver
``score``) is served by an incremental resume or a permutation-cache
hit — verified through the engine counters ``replay_stats`` exposes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import GenTranSeqConfig
from repro.core import InsertionReorderEnv, ReorderEnv
from repro.solvers import HillClimbSolver, SimulatedAnnealingSolver
from repro.solvers.base import ReorderProblem
from repro.solvers.profiling import profile_solver
from repro.workloads.scenarios import IFU


def _env(case_workload, cls=ReorderEnv, **config_overrides):
    config = GenTranSeqConfig(
        steps_per_episode=20, seed=0, **config_overrides
    )
    return cls(
        pre_state=case_workload.pre_state,
        transactions=case_workload.transactions,
        ifus=(IFU,),
        config=config,
    )


class TestReorderEnvReplayBehaviour:
    def test_single_scratch_replay_only(self, case_workload):
        env = _env(case_workload)
        stats = env.replay_stats()
        assert stats["scratch_replays"] == 1  # the construction baseline
        rng = np.random.default_rng(0)
        for _ in range(3):
            env.reset()
            for _ in range(10):
                env.step(int(rng.integers(env.action_count)))
        stats = env.replay_stats()
        assert stats["scratch_replays"] == 1
        assert stats["incremental_replays"] > 0

    def test_reset_is_cache_hit(self, case_workload):
        env = _env(case_workload)
        before = env.replay_stats()
        env.reset()
        after = env.replay_stats()
        assert after["cache_hits"] == before["cache_hits"] + 1
        assert after["scratch_replays"] == before["scratch_replays"]
        assert after["incremental_replays"] == before["incremental_replays"]

    def test_revisited_order_hits_cache(self, case_workload):
        env = _env(case_workload)
        env.reset()
        env.step(0)  # swap (0, 1)
        misses_after_first = env.replay_stats()["cache_misses"]
        env.step(0)  # swap back -> identity, seeded at construction
        stats = env.replay_stats()
        assert stats["cache_misses"] == misses_after_first
        assert stats["cache_hit_rate"] > 0.0

    def test_evaluations_identical_to_fresh_env(self, case_workload):
        """Cached/incremental evaluations equal a fresh environment's."""
        env = _env(case_workload)
        fresh = _env(case_workload)
        rng = np.random.default_rng(3)
        orders = [
            tuple(int(x) for x in rng.permutation(len(case_workload.transactions)))
            for _ in range(10)
        ]
        # Evaluate twice on env (second pass all cache hits) and once on
        # the fresh env; every objective must agree exactly.
        for order in orders + orders:
            mine = env.evaluate_order(order)
            theirs = fresh.evaluate_order(order)
            assert mine["objective"] == theirs["objective"]
            assert mine["feasible"] == theirs["feasible"]
            assert mine["executed_count"] == theirs["executed_count"]

    def test_insertion_env_uses_engine_too(self, case_workload):
        env = _env(case_workload, cls=InsertionReorderEnv)
        env.reset()
        for action in range(5):
            env.step(action)
        stats = env.replay_stats()
        assert stats["scratch_replays"] == 1
        assert stats["incremental_replays"] >= 1

    def test_lru_eviction_bounded(self, case_workload):
        env = _env(case_workload, evaluation_cache_size=4)
        rng = np.random.default_rng(1)
        for _ in range(20):
            env.evaluate_order(
                tuple(int(x) for x in rng.permutation(8))
            )
        stats = env.replay_stats()
        assert stats["cache_evictions"] > 0
        assert len(env._eval_cache) <= 4


class TestSolverProfilingSurface:
    @pytest.mark.kernel
    def test_profiled_run_reports_replay_stats(self, case_workload):
        problem = ReorderProblem(
            pre_state=case_workload.pre_state,
            transactions=case_workload.transactions,
            ifus=(IFU,),
        )
        run = profile_solver(HillClimbSolver(max_rounds=3), problem)
        # Neighbourhood sweeps are batch-kernel candidates now; only the
        # per-round post-swap refresh still touches the incremental path
        # (and is usually a cache hit).
        assert run.replay_stats["batch_candidates"] > 0
        assert run.replay_stats["scratch_replays"] == 0  # baseline predates run
        assert 0.0 <= run.cache_hit_rate <= 1.0
        assert run.mean_resume_depth >= 0.0

    def test_annealing_benefits_from_cache(self, case_workload):
        problem = ReorderProblem(
            pre_state=case_workload.pre_state,
            transactions=case_workload.transactions,
            ifus=(IFU,),
        )
        SimulatedAnnealingSolver(iterations=200, seed=0).solve(problem)
        stats = problem.replay_stats()
        # Annealing revisits swap neighbours constantly; the permutation
        # cache must absorb a meaningful share of the evaluations.
        assert stats["cache_hits"] > 0
        assert stats["scratch_replays"] == 1
