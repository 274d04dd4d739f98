"""Batch-kernel solver conversions must not change what solvers find.

Every population solver now scores candidate sets through
``ReorderProblem.score_many`` (one columnar ``evaluate_orders`` call)
instead of a serial ``score`` loop.  These tests pin the conversion
contract: under a fixed seed, the batched solver returns the *same
permutation, byte for byte*, as the identical algorithm scoring
serially — because the kernel is bit-identical and the scan order and
tie-breaks were left untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import GenTranSeqConfig, WorkloadConfig
from repro.solvers import (
    DQNInferenceSolver,
    ExhaustiveSolver,
    GreedyInsertionSolver,
    HillClimbSolver,
    RandomRestartHillClimbSolver,
    ReorderProblem,
    SimulatedAnnealingSolver,
)
from repro.workloads import generate_workload
from repro.workloads.scenarios import IFU


@pytest.fixture
def problem_factory(case_workload):
    def make():
        return ReorderProblem(
            pre_state=case_workload.pre_state,
            transactions=case_workload.transactions,
            ifus=(IFU,),
        )

    return make


def _serialise_scoring(problem):
    """Route score_many through a serial score loop (the pre-batch path)."""

    def serial(orders):
        values = []
        for order in orders:
            values.append(problem.score(order))
        return values

    problem.score_many = serial
    return problem


SOLVERS = [
    HillClimbSolver(max_rounds=4),
    RandomRestartHillClimbSolver(restarts=3, seed=0, max_rounds=3),
    SimulatedAnnealingSolver(iterations=300, seed=0),
    SimulatedAnnealingSolver(iterations=200, seed=2, restarts=3),
    GreedyInsertionSolver(),
    ExhaustiveSolver(max_size=8),
]


class TestBatchedEqualsSerial:
    @pytest.mark.parametrize(
        "solver", SOLVERS, ids=lambda s: f"{s.name}-{id(s) % 97}"
    )
    def test_same_solution_as_serial_scoring(self, solver, problem_factory):
        batched = solver.solve(problem_factory())
        serial = solver.solve(_serialise_scoring(problem_factory()))
        assert batched.best_order == serial.best_order
        assert batched.best_objective == serial.best_objective
        assert batched.original_objective == serial.original_objective

    @pytest.mark.kernel
    def test_batched_solvers_hit_the_batch_kernel(self, problem_factory):
        problem = problem_factory()
        HillClimbSolver(max_rounds=2).solve(problem)
        stats = problem.replay_stats()
        assert stats["batch_calls"] > 0
        assert stats["batch_candidates"] > stats["batch_calls"]

    def test_annealing_restarts_take_the_best_chain(self, problem_factory):
        single = SimulatedAnnealingSolver(iterations=200, seed=3).solve(
            problem_factory()
        )
        multi = SimulatedAnnealingSolver(
            iterations=200, seed=3, restarts=4
        ).solve(problem_factory())
        assert multi.best_objective >= single.best_objective
        assert multi.metadata["restarts"] == 4.0

    def test_annealing_rejects_zero_restarts(self):
        with pytest.raises(ValueError):
            SimulatedAnnealingSolver(restarts=0)

    def test_exhaustive_chunk_size_independent(self, problem_factory):
        wide = ExhaustiveSolver(max_size=8)
        narrow = ExhaustiveSolver(max_size=8)
        narrow.chunk_size = 7  # ragged, non-divisor chunking
        a = wide.solve(problem_factory())
        b = narrow.solve(problem_factory())
        assert a.best_order == b.best_order
        assert a.best_objective == b.best_objective


class TestEvaluateOrders:
    def test_matches_evaluate_order(self, problem_factory, case_workload):
        env = problem_factory()._env
        fresh = problem_factory()._env
        rng = np.random.default_rng(0)
        orders = [
            tuple(int(x) for x in rng.permutation(len(case_workload.transactions)))
            for _ in range(12)
        ]
        batch = env.evaluate_orders(orders)
        for order, mine in zip(orders, batch):
            theirs = fresh.evaluate_order(order)
            assert mine["objective"] == theirs["objective"]
            assert mine["feasible"] == theirs["feasible"]
            assert mine["executed_count"] == theirs["executed_count"]

    def test_cache_hits_skip_the_kernel(self, problem_factory):
        env = problem_factory()._env
        rng = np.random.default_rng(1)
        orders = [tuple(int(x) for x in rng.permutation(8)) for _ in range(6)]
        env.evaluate_orders(orders)
        calls_before = env.replay_stats()["batch_calls"]
        again = env.evaluate_orders(orders)  # all cached now
        stats = env.replay_stats()
        assert stats["batch_calls"] == calls_before
        assert len(again) == len(orders)

    def test_single_miss_routes_incrementally(self, problem_factory):
        env = problem_factory()._env
        rng = np.random.default_rng(2)
        known = [tuple(int(x) for x in rng.permutation(8)) for _ in range(4)]
        env.evaluate_orders(known)
        novel = tuple(int(x) for x in rng.permutation(8))
        before = env.replay_stats()
        env.evaluate_orders(known + [novel])
        after = env.replay_stats()
        # One distinct miss: the incremental engine serves it — no
        # columnar call is spun up for a population of one.
        assert after["batch_calls"] == before["batch_calls"]
        assert after["incremental_replays"] > before["incremental_replays"]

    @pytest.mark.kernel
    def test_duplicate_candidates_evaluated_once(self, problem_factory):
        env = problem_factory()._env
        order = tuple(reversed(range(8)))
        other = tuple(np.roll(np.arange(8), 3).tolist())
        before = env.replay_stats()["batch_candidates"]
        results = env.evaluate_orders([order, other, order, other])
        after = env.replay_stats()["batch_candidates"]
        assert after - before == 2  # deduplicated before the kernel
        assert results[0]["objective"] == results[2]["objective"]
        assert results[1]["objective"] == results[3]["objective"]

    @pytest.mark.parametrize("misses", [1, 2])
    @pytest.mark.parametrize("bad", [-1, 6])
    def test_out_of_range_index_rejected(self, bad, misses):
        """One miss (incremental engine) and two (batch kernel, or the
        incremental engine without it) reject the same orders, and
        nothing is scored or cached under the bad key."""
        workload = generate_workload(
            WorkloadConfig(mempool_size=6, num_users=4, num_ifus=1, seed=1)
        )
        problem = ReorderProblem(
            workload.pre_state, workload.transactions, workload.ifus
        )
        env = problem._env
        orders = [(bad, 0, 1, 2, 3, 4), (5, 4, 3, 2, 1, 0)][:misses]
        before = env.replay_stats()
        with pytest.raises(IndexError):
            problem.score_many(orders)
        after = env.replay_stats()
        assert orders[0] not in env._eval_cache
        assert len(env._eval_cache) == 1  # only the seeded identity
        assert after["steps_executed"] == before["steps_executed"]


class TestDQNBeam:
    def test_population_one_is_greedy_rollout(self, problem_factory):
        config = GenTranSeqConfig(episodes=4, steps_per_episode=20, seed=3)
        greedy = DQNInferenceSolver(
            config=config, train_episodes=4, max_swaps=10
        ).solve(problem_factory())
        assert sorted(greedy.best_order) == list(range(8))
        assert greedy.best_objective >= greedy.original_objective

    def test_beam_returns_valid_result(self, problem_factory):
        config = GenTranSeqConfig(episodes=4, steps_per_episode=20, seed=3)
        beam = DQNInferenceSolver(
            config=config, train_episodes=4, max_swaps=10, population=4
        ).solve(problem_factory())
        assert sorted(beam.best_order) == list(range(8))
        assert beam.best_objective >= beam.original_objective
        assert beam.metadata["population"] == 4.0

    def test_population_must_be_positive(self):
        with pytest.raises(ValueError):
            DQNInferenceSolver(population=0)
