"""Run-manifest tests: config hashing, recorder, round-tripping."""

from __future__ import annotations

import json
import pathlib
import tracemalloc

import pytest

from repro.parallel import Task, get_runner
from repro.telemetry import (
    MANIFEST_SCHEMA,
    ManifestRecorder,
    RunManifest,
    config_hash,
    enable_metrics,
    git_revision,
)
from repro.telemetry.manifest import env_fingerprint

_PROC_STATUS = pathlib.Path("/proc/self/status")


def _vm_rss_bytes() -> int:
    for line in _PROC_STATUS.read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) * 1024  # reported in kB
    raise AssertionError("no VmRSS line in /proc/self/status")


class TestConfigHash:
    def test_stable_across_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_handles_dataclasses_and_tuples(self):
        from repro.config import TelemetryConfig

        digest = config_hash(
            {"cfg": TelemetryConfig(enabled=True), "sizes": (1, 2, 3)}
        )
        assert len(digest) == 16
        assert digest == config_hash(
            {"sizes": [1, 2, 3], "cfg": TelemetryConfig(enabled=True)}
        )


class TestGitRevision:
    def test_reads_this_checkout(self):
        rev = git_revision()
        assert rev is not None
        assert len(rev) == 40
        int(rev, 16)  # hex

    def test_none_outside_a_checkout(self, tmp_path):
        assert git_revision(tmp_path) is None


class TestRunManifest:
    def test_write_read_roundtrip(self, tmp_path):
        manifest = RunManifest(
            experiment_id="fig8",
            preset="quick",
            seed=7,
            config={"mempool": 12},
            config_digest=config_hash({"mempool": 12}),
            duration_seconds=1.5,
        )
        path = manifest.write(tmp_path / "fig8.manifest.json")
        loaded = RunManifest.read(path)
        assert loaded.experiment_id == "fig8"
        assert loaded.seed == 7
        assert loaded.config == {"mempool": 12}
        assert loaded.schema == MANIFEST_SCHEMA

    def test_env_survives_roundtrip(self, tmp_path):
        with ManifestRecorder(experiment_id="env", out_dir=tmp_path) as recorder:
            pass
        loaded = RunManifest.read(recorder.path)
        assert loaded.env == env_fingerprint()
        assert loaded.schema == MANIFEST_SCHEMA

    def test_read_ignores_unknown_fields(self, tmp_path):
        path = tmp_path / "m.json"
        payload = RunManifest(experiment_id="x").to_json()
        payload["future_field"] = True
        path.write_text(json.dumps(payload))
        assert RunManifest.read(path).experiment_id == "x"


class TestManifestRecorder:
    def test_records_run_and_writes_file(self, tmp_path):
        enable_metrics().counter("work.done").inc(5)
        with ManifestRecorder(
            experiment_id="demo",
            preset="quick",
            seed=3,
            config={"n": 10},
            out_dir=tmp_path,
        ) as recorder:
            recorder.add_artifact("text", tmp_path / "demo.txt")
            payload = [0] * 50_000  # measurable allocation
        del payload
        manifest = recorder.manifest
        assert manifest is not None
        assert manifest.seed == 3
        assert manifest.config_digest == config_hash({"n": 10})
        assert manifest.duration_seconds >= 0.0
        assert manifest.peak_memory_bytes > 0
        assert manifest.metrics["counters"]["work.done"] == 5.0
        assert manifest.artifacts["text"].endswith("demo.txt")
        assert recorder.path == tmp_path / "demo.manifest.json"
        assert recorder.path.exists()
        assert not tracemalloc.is_tracing()

    def test_nested_recorder_does_not_stop_outer_trace(self, tmp_path):
        tracemalloc.start()
        try:
            with ManifestRecorder(experiment_id="inner") as recorder:
                pass
            assert tracemalloc.is_tracing()  # outer trace survived
            assert recorder.manifest is not None
        finally:
            tracemalloc.stop()

    def test_block_runs_untraced(self):
        with ManifestRecorder(experiment_id="untraced"):
            assert not tracemalloc.is_tracing()

    def test_outer_trace_peak_survives(self):
        ballast = 4 * 1024 * 1024
        tracemalloc.start()
        try:
            block = bytearray(ballast)
            del block
            with ManifestRecorder(experiment_id="inner"):
                pass
            _, peak = tracemalloc.get_traced_memory()
            assert peak >= ballast
        finally:
            tracemalloc.stop()

    def test_fabric_workers_started_inside_do_not_trace(self):
        with ManifestRecorder(experiment_id="fabric"):
            with get_runner(2) as runner:
                tracing = runner.map(
                    [Task(fn=tracemalloc.is_tracing) for _ in range(4)]
                )
        assert tracing == [False] * 4

    @pytest.mark.skipif(
        not _PROC_STATUS.exists(), reason="needs /proc/self/status"
    )
    def test_peak_memory_is_a_byte_count(self):
        with ManifestRecorder(experiment_id="rss") as recorder:
            rss = _vm_rss_bytes()
        # getrusage can trail VmRSS by a few hundred KiB (the kernel sums
        # its per-CPU RSS counters lazily); a KiB count would be 1024x low.
        assert recorder.manifest.peak_memory_bytes > rss // 2

    def test_exception_is_archived_and_reraised(self, tmp_path):
        recorder = ManifestRecorder(experiment_id="err", out_dir=tmp_path)
        try:
            with recorder:
                raise ValueError("bad run")
        except ValueError:
            pass
        assert recorder.manifest.extra["error"] == "ValueError: bad run"
        assert (tmp_path / "err.manifest.json").exists()

    def test_no_out_dir_writes_nothing(self):
        with ManifestRecorder(experiment_id="mem") as recorder:
            pass
        assert recorder.path is None
        assert recorder.manifest is not None
