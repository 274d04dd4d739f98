"""Tests for solver profiling and the DQN inference solver."""

import dataclasses
import tracemalloc

import pytest

from repro.config import GenTranSeqConfig
from repro.solvers import (
    DQNInferenceSolver,
    HillClimbSolver,
    ReorderProblem,
    SimulatedAnnealingSolver,
    profile_solver,
)
from repro.solvers.profiling import ProfiledRun
from repro.workloads.scenarios import IFU


@pytest.fixture
def problem(case_workload):
    return ReorderProblem(
        pre_state=case_workload.pre_state,
        transactions=case_workload.transactions,
        ifus=(IFU,),
    )


class TestProfiling:
    def test_profiled_run_has_time_and_memory(self, problem):
        run = profile_solver(HillClimbSolver(), problem)
        assert run.elapsed_seconds > 0
        assert run.peak_memory_bytes > 0
        assert run.peak_memory_kib == pytest.approx(
            run.peak_memory_bytes / 1024.0
        )

    def test_extra_memory_added(self, problem):
        base = profile_solver(HillClimbSolver(), problem)
        padded = profile_solver(
            HillClimbSolver(), problem, extra_memory_bytes=10**6
        )
        assert padded.peak_memory_bytes >= base.peak_memory_bytes

    def test_solver_name_passthrough(self, problem):
        run = profile_solver(HillClimbSolver(), problem)
        assert run.solver_name == "hill-climb"

    @pytest.mark.kernel
    def test_replay_stats_reported(self, problem):
        run = profile_solver(HillClimbSolver(), problem)
        # The neighbourhood sweeps ride the batch kernel; the final
        # post-swap refreshes ride the incremental engine/cache.  Either
        # way the run must report replay work.
        assert (
            run.replay_stats["steps_executed"]
            + run.replay_stats["batch_steps"]
        ) > 0
        assert run.replay_stats["batch_calls"] > 0
        assert run.replay_stats["mean_batch_size"] > 1.0
        assert 0.0 <= run.cache_hit_rate <= 1.0
        assert run.mean_resume_depth >= 0.0

    def test_nested_profiling_preserves_outer_tracemalloc(self, problem):
        tracemalloc.start()
        try:
            run = profile_solver(HillClimbSolver(), problem)
            assert tracemalloc.is_tracing()  # outer trace survived
            assert run.peak_memory_bytes > 0
        finally:
            tracemalloc.stop()

    def test_nested_peak_excludes_outer_live_memory(
        self, small_workload, traced_ballast
    ):
        problem = ReorderProblem(
            pre_state=small_workload.pre_state,
            transactions=small_workload.transactions,
            ifus=small_workload.ifus,
        )
        run = profile_solver(SimulatedAnnealingSolver(iterations=50), problem)
        assert 0 < run.peak_memory_bytes < 1024 * 1024


class TestProfiledRunImmutability:
    """Regression: replay_stats used to be a plain mutable dict on a
    frozen dataclass — freezing the fields but not the mapping."""

    def test_replay_stats_mapping_is_read_only(self, problem):
        run = profile_solver(HillClimbSolver(), problem)
        with pytest.raises(TypeError):
            run.replay_stats["steps_executed"] = 0.0
        assert not hasattr(run.replay_stats, "clear")

    def test_construction_copies_the_source_dict(self, problem):
        source = {"cache_hit_rate": 0.5}
        run = ProfiledRun(
            result=profile_solver(HillClimbSolver(), problem).result,
            elapsed_seconds=1.0,
            peak_memory_bytes=1,
            replay_stats=source,
        )
        source["cache_hit_rate"] = 0.0  # caller mutates their dict later
        assert run.replay_stats["cache_hit_rate"] == 0.5

    def test_fields_still_frozen(self, problem):
        run = profile_solver(HillClimbSolver(), problem)
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.elapsed_seconds = 0.0


class TestDQNInferenceSolver:
    def test_trains_once_then_infers(self, problem, case_workload):
        solver = DQNInferenceSolver(
            config=GenTranSeqConfig(episodes=5, steps_per_episode=30, seed=3),
            train_episodes=5,
            max_swaps=20,
        )
        result = solver.solve(problem)
        assert sorted(result.best_order) == list(range(8))
        assert result.best_objective >= result.original_objective
        assert result.peak_memory_bytes > 0

    def test_model_memory_grows_with_training(self):
        solver = DQNInferenceSolver(
            config=GenTranSeqConfig(episodes=2, steps_per_episode=10, seed=0),
            train_episodes=0,
        )
        assert solver.model_memory_bytes() == 0
