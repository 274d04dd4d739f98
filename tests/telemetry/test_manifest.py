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


_REV = "0123456789abcdef0123456789abcdef01234567"
_OTHER_REV = "fedcba9876543210fedcba9876543210fedcba98"


def _git_dir(root: pathlib.Path, head: str = "ref: refs/heads/main") -> pathlib.Path:
    """A hand-written ``.git`` directory under ``root`` with ``HEAD``."""
    git = root / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text(head + "\n")
    return git


class TestGitRevision:
    """``git_revision`` on throwaway repositories written by hand, so the
    result is the same in a checkout, a source export or a worktree."""

    def test_reads_a_loose_ref(self, tmp_path):
        git = _git_dir(tmp_path)
        (git / "refs" / "heads" / "main").write_text(_REV + "\n")
        nested = tmp_path / "src" / "pkg"
        nested.mkdir(parents=True)
        assert git_revision(nested) == _REV

    def test_reads_packed_refs(self, tmp_path):
        git = _git_dir(tmp_path)
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted\n"
            f"{_OTHER_REV} refs/heads/not/refs/heads/main\n"
            f"{_REV} refs/heads/main\n"
            f"^{_OTHER_REV}\n"
        )
        assert git_revision(tmp_path) == _REV

    def test_reads_a_detached_head(self, tmp_path):
        _git_dir(tmp_path, head=_REV)
        assert git_revision(tmp_path) == _REV

    @pytest.mark.parametrize("relative", [False, True])
    def test_follows_a_worktree_gitdir_file(self, tmp_path, relative):
        """A worktree nested in another checkout reads its own branch
        through ``gitdir:`` and the shared refs through ``commondir``,
        not the enclosing checkout's ``HEAD``."""
        main = _git_dir(tmp_path)
        (main / "refs" / "heads" / "main").write_text(_OTHER_REV + "\n")
        (main / "packed-refs").write_text(f"{_REV} refs/heads/feature\n")
        admin = main / "worktrees" / "feature"
        admin.mkdir(parents=True)
        (admin / "HEAD").write_text("ref: refs/heads/feature\n")
        (admin / "commondir").write_text("../..\n")
        tree = tmp_path / "trees" / "feature"
        tree.mkdir(parents=True)
        target = "../../.git/worktrees/feature" if relative else str(admin)
        (tree / ".git").write_text(f"gitdir: {target}\n")
        assert git_revision(tree) == _REV
        assert git_revision(tmp_path) == _OTHER_REV

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
