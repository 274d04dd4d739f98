"""Tests for the run-everything orchestrator."""

import json

import pytest

from repro.api import run_experiment
from repro.errors import ReproError
from repro.experiments import REGISTRY, run_all
from repro.experiments.common import EffortPreset

MICRO = EffortPreset(name="micro", episodes=2, steps_per_episode=10, trials=1)


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        ids = {spec.experiment_id for spec in REGISTRY}
        assert ids >= {
            "table3", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11", "defense",
        }

    def test_ids_unique(self):
        ids = [spec.experiment_id for spec in REGISTRY]
        assert len(ids) == len(set(ids))


class TestDataclassList:
    def test_object_with_value_attribute_passes_through(self):
        """Regression: any repro-module object exposing ``.value`` used to
        be collapsed to that attribute as if it were an enum."""
        from repro.experiments.runner import _dataclass_list
        from repro.rollup.mempool import BedrockMempool

        class Holder:
            value = "not-an-enum"

        Holder.__module__ = "repro.fake"
        holder = Holder()
        assert _dataclass_list(holder) is holder
        pool = BedrockMempool()
        assert _dataclass_list(pool) is pool

    def test_enums_still_map_to_value(self):
        import enum

        from repro.experiments.runner import _dataclass_list

        class Color(enum.Enum):
            RED = "red"

        assert _dataclass_list(Color.RED) == "red"
        assert _dataclass_list({"c": [Color.RED]}) == {"c": ["red"]}


class TestRunAll:
    def test_selected_experiments_produce_artifacts(self, tmp_path):
        records = run_all(tmp_path, preset=MICRO, only=["table3", "fig5"])
        assert len(records) == 2
        assert all(record.ok for record in records)
        for record in records:
            text = (tmp_path / f"{record.experiment_id}.txt").read_text()
            assert text.strip()
            payload = json.loads(
                (tmp_path / f"{record.experiment_id}.json").read_text()
            )
            assert payload["experiment"] == record.experiment_id
            assert payload["preset"] == "micro"

    def test_fig5_json_contains_balances(self, tmp_path):
        run_all(tmp_path, preset=MICRO, only=["fig5"])
        payload = json.loads((tmp_path / "fig5.json").read_text())
        assert payload["data"]["case1"]["final_balance"] == pytest.approx(2.5)

    def test_unknown_id_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            run_all(tmp_path, only=["fig99"])

    def test_records_time_every_run(self, tmp_path):
        records = run_all(tmp_path, preset=MICRO, only=["table3"])
        assert records[0].elapsed_seconds >= 0

    def test_fig11_memory_is_each_solvers_own_peak(self, tmp_path):
        """Fig. 11(b) as run_all archives it matches a bare run row for
        row: the manifest recording around it does not count."""
        # A solver's first call in a process pays one-time lazy imports.
        run_experiment("fig11", effort=MICRO)
        run_all(tmp_path, preset=MICRO, only=["fig11"])
        archived = json.loads((tmp_path / "fig11.json").read_text())["data"]
        bare = run_experiment("fig11", effort=MICRO).result
        assert len(archived) == len(bare)
        for row, expected in zip(archived, bare):
            assert row["peak_memory_kib"] == pytest.approx(
                expected.peak_memory_kib, rel=0.1, abs=16
            )
