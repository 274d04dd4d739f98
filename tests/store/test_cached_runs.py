"""End-to-end caching behaviour: resumable runs, warm reruns, chaos
namespace isolation and mid-training DQN checkpoint resume."""

from __future__ import annotations

import dataclasses
import pathlib

import numpy as np
import pytest

from repro.config import GenTranSeqConfig, WorkloadConfig
from repro.core import AttackCampaign, GenTranSeq
from repro.errors import ParallelError
from repro.experiments import QUICK, run_all
from repro.parallel import SerialRunner, Task, get_runner
from repro.store import ResultStore, TrainingCheckpointer, checkpoint_key
from repro.workloads import generate_workload

_FAST = ["table3", "fig5"]


# --------------------------------------------------------------------- #
# task-level caching + crash resume
# --------------------------------------------------------------------- #


def _counted(x, counter_path, *, seed=None):
    """Record every invocation on disk so cache hits are observable."""
    path = pathlib.Path(counter_path)
    path.write_text(str(int(path.read_text() or "0") + 1) if path.exists() else "1")
    return x * x


def _fails_while_sentinel(x, sentinel_path, *, seed=None):
    if x >= 2 and pathlib.Path(sentinel_path).exists():
        raise RuntimeError("simulated mid-sweep crash")
    return x + 100


class TestTaskCache:
    def _tasks(self, counter):
        return [
            Task(fn=_counted, args=(i, str(counter)), seed=0, label=f"t{i}")
            for i in range(4)
        ]

    def test_warm_batch_never_invokes_fn(self, tmp_path):
        counter = tmp_path / "count"
        store = ResultStore(tmp_path / "cache")
        cold = SerialRunner(store=store).map(self._tasks(counter))
        assert counter.read_text() == "4"
        warm = SerialRunner(store=ResultStore(tmp_path / "cache")).map(
            self._tasks(counter)
        )
        assert counter.read_text() == "4"  # zero new invocations
        assert warm == cold

    def test_killed_run_resumes_from_completed_tasks(self, tmp_path):
        """Tasks completed before a failure are persisted; a rerun only
        recomputes from the point of interruption."""
        sentinel = tmp_path / "sentinel"
        sentinel.write_text("die")
        tasks = [
            Task(
                fn=_fails_while_sentinel,
                args=(i, str(sentinel)),
                seed=0,
                label=f"t{i}",
            )
            for i in range(4)
        ]
        store = ResultStore(tmp_path / "cache")
        with pytest.raises(ParallelError):
            SerialRunner(store=store).map(tasks)
        # Tasks 0 and 1 finished before the crash and were persisted.
        assert len(store.keys()) == 2

        sentinel.unlink()
        resumed = SerialRunner(store=ResultStore(tmp_path / "cache"))
        values = resumed.map(tasks)
        assert values == [100, 101, 102, 103]
        assert resumed.store.stats.hits == 2  # only 2 and 3 recomputed
        assert resumed.store.stats.misses == 2

    def test_uncacheable_tasks_still_run(self, tmp_path):
        store = ResultStore(tmp_path)
        tasks = [Task(fn=lambda: 7)]  # lambdas are unkeyable
        assert SerialRunner(store=store).map(tasks) == [7]
        assert store.keys() == []

    def test_explicit_cache_key_wins(self, tmp_path):
        counter = tmp_path / "count"
        store = ResultStore(tmp_path / "cache")
        pinned = [
            Task(fn=_counted, args=(9, str(counter)), cache_key="task:pinned")
        ]
        SerialRunner(store=store).map(pinned)
        assert store.contains("task:pinned")


# --------------------------------------------------------------------- #
# run_all: warm reruns byte-identical, 100% hits
# --------------------------------------------------------------------- #


class TestRunAllCache:
    def test_warm_rerun_full_hits_and_byte_identical(self, tmp_path):
        cache = tmp_path / "cache"
        out_cold, out_warm = tmp_path / "cold", tmp_path / "warm"
        cold = run_all(
            out_cold, preset=QUICK, only=_FAST, store=ResultStore(cache)
        )
        assert all(r.ok for r in cold)
        assert all(not r.cache["experiment_hit"] for r in cold)

        warm = run_all(
            out_warm, preset=QUICK, only=_FAST, store=ResultStore(cache)
        )
        assert all(r.ok for r in warm)
        assert all(r.cache["experiment_hit"] for r in warm)
        assert all(r.cache["hit_ratio"] == 1.0 for r in warm)
        for experiment_id in _FAST:
            for suffix in (".txt", ".json"):
                a = (out_cold / f"{experiment_id}{suffix}").read_bytes()
                b = (out_warm / f"{experiment_id}{suffix}").read_bytes()
                assert a == b, f"{experiment_id}{suffix} differs warm vs cold"

    def test_manifest_records_hit_ratio(self, tmp_path):
        import json

        cache = tmp_path / "cache"
        run_all(tmp_path / "a", preset=QUICK, only=["table3"],
                store=ResultStore(cache))
        run_all(tmp_path / "b", preset=QUICK, only=["table3"],
                store=ResultStore(cache))
        manifest = json.loads(
            (tmp_path / "b" / "table3.manifest.json").read_text()
        )
        assert manifest["extra"]["cache"]["experiment_hit"] is True
        assert manifest["extra"]["cache"]["hit_ratio"] == 1.0

    def test_no_store_keeps_legacy_behaviour(self, tmp_path):
        records = run_all(tmp_path / "out", preset=QUICK, only=["table3"])
        assert records[0].ok
        assert records[0].cache is None


# --------------------------------------------------------------------- #
# api facade
# --------------------------------------------------------------------- #


class TestApiFacade:
    def test_run_experiment_shares_cache_with_run_all(self, tmp_path):
        from repro import api

        cache = tmp_path / "cache"
        run_all(tmp_path / "out", preset=QUICK, only=["table3"],
                store=ResultStore(cache))
        outcome = api.run_experiment(
            "table3", store=api.open_store(cache)
        )
        assert outcome.cache_hit
        assert outcome.text == (tmp_path / "out" / "table3.txt").read_text()

    def test_unknown_experiment_raises(self):
        from repro import api
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown experiment"):
            api.run_experiment("fig99")

    def test_list_experiments_matches_registry(self):
        from repro import api
        from repro.experiments import REGISTRY

        assert [e.experiment_id for e in api.list_experiments()] == [
            s.experiment_id for s in REGISTRY
        ]


# --------------------------------------------------------------------- #
# chaos namespace isolation (regression: never share entries with clean)
# --------------------------------------------------------------------- #


class TestChaosNamespace:
    def _scenario(self):
        from repro.faults import DEFAULT_MATRIX

        return [dataclasses.replace(DEFAULT_MATRIX[0], rounds=2)]

    def test_chaos_keys_are_namespaced(self, tmp_path):
        from repro.faults import run_chaos

        store = ResultStore(tmp_path)
        with get_runner(1, store=store) as runner:
            run_chaos(self._scenario(), runner=runner)
            # The clean-run store handle is restored afterwards.
            assert runner.store is store
        keys = store.keys()
        assert keys, "chaos run cached nothing"
        assert all(key.startswith("chaos:") for key in keys)

    def test_chaos_warm_rerun_hits(self, tmp_path):
        from repro.faults import run_chaos

        scenario = self._scenario()
        with get_runner(1, store=ResultStore(tmp_path)) as runner:
            cold = run_chaos(scenario, runner=runner)
        warm_store = ResultStore(tmp_path)
        with get_runner(1, store=warm_store) as runner:
            warm = run_chaos(scenario, runner=runner)
        assert warm_store.stats.hits == 1
        assert warm[0].to_json() == cold[0].to_json()


# --------------------------------------------------------------------- #
# DQN mid-training checkpoint resume
# --------------------------------------------------------------------- #


def _training_setup(episodes: int):
    config = GenTranSeqConfig(episodes=episodes, steps_per_episode=8, seed=5)
    module = GenTranSeq(config=config)
    workload = generate_workload(
        WorkloadConfig(
            mempool_size=8, num_users=8, num_ifus=1,
            min_ifu_involvement=2, seed=5,
        )
    )
    return module, workload


class TestCheckpointResume:
    def test_interrupted_training_resumes_bit_exactly(self, tmp_path):
        """3 episodes + resume to 6 == one uninterrupted 6-episode run."""
        store = ResultStore(tmp_path)
        key = checkpoint_key("test-resume", {}, 5)

        module_ref, workload = _training_setup(6)
        reference = module_ref.optimize(
            workload.pre_state, workload.transactions, workload.ifus
        )

        module_a, workload_a = _training_setup(3)
        module_a.optimize(
            workload_a.pre_state, workload_a.transactions, workload_a.ifus,
            checkpointer=TrainingCheckpointer(store, key, every=1),
        )
        assert store.contains(key)

        module_b, workload_b = _training_setup(6)
        resumed = module_b.optimize(
            workload_b.pre_state, workload_b.transactions, workload_b.ifus,
            checkpointer=TrainingCheckpointer(store, key, every=1),
        )
        assert len(resumed.history.episodes) == 6
        assert resumed.history.rewards == reference.history.rewards
        assert resumed.best_objective == reference.best_objective
        for got, want in zip(
            module_b._agent.q_network.weights,
            module_ref._agent.q_network.weights,
        ):
            assert np.array_equal(got, want)

    def test_completed_training_clears_checkpoint(self, tmp_path):
        store = ResultStore(tmp_path)
        key = checkpoint_key("test-clear", {}, 5)
        module, workload = _training_setup(4)
        module.optimize(
            workload.pre_state, workload.transactions, workload.ifus,
            checkpointer=TrainingCheckpointer(store, key, every=1),
        )
        # A full run leaves a checkpoint; the fig8 cell clears it after
        # the surrounding task result is cached.  Here we exercise the
        # explicit clear path.
        TrainingCheckpointer(store, key, every=1).clear()
        assert not store.contains(key)


# --------------------------------------------------------------------- #
# campaign memoization
# --------------------------------------------------------------------- #


class TestCampaignCache:
    def _configs(self):
        workload = WorkloadConfig(
            mempool_size=8, num_users=8, num_ifus=1,
            min_ifu_involvement=2, seed=3,
        )
        gts = GenTranSeqConfig(episodes=2, steps_per_episode=6, seed=3)
        return workload, gts

    def test_warm_campaign_returns_cached_report(self, tmp_path):
        workload, gts = self._configs()
        store = ResultStore(tmp_path)
        cold = AttackCampaign(workload, gts).run(2, store=store)
        assert store.stats.puts == 1
        warm = AttackCampaign(workload, gts).run(2, store=store)
        assert store.stats.hits == 1
        assert warm.profits() == cold.profits()
        assert warm.total_profit_eth == cold.total_profit_eth

    def test_round_count_changes_key(self, tmp_path):
        workload, gts = self._configs()
        store = ResultStore(tmp_path)
        AttackCampaign(workload, gts).run(2, store=store)
        AttackCampaign(workload, gts).run(3, store=store)
        assert store.stats.puts == 2
