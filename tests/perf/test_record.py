"""BenchRecord schema: round-trips, gates, env fingerprints."""

from __future__ import annotations

import pytest

from repro.perf import (
    BENCH_RECORD_SCHEMA,
    BenchRecord,
    BenchSeries,
    GateVerdict,
    env_fingerprint,
    new_record,
    read_record,
    write_record,
)


class TestBenchSeries:
    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            BenchSeries("s", "x", (1.0,), direction="sideways")

    def test_roundtrip(self):
        series = BenchSeries(
            "throughput", "evals/s", (10.0, 12.0), meta={"N": 50}
        )
        assert BenchSeries.from_json(series.to_json()) == series


class TestGateVerdict:
    def test_unarmed_requires_reason(self):
        with pytest.raises(ValueError):
            GateVerdict(name="speedup", armed=False)

    def test_unarmed_render_carries_reason(self):
        gate = GateVerdict(
            name="speedup_4workers",
            armed=False,
            reason="cpu_count=1 < 4",
            threshold=2.0,
            observed=1.05,
        )
        text = gate.render()
        assert "UNARMED" in text
        assert "cpu_count=1" in text

    def test_pass_fail_render(self):
        passing = GateVerdict("g", armed=True, passed=True)
        failing = GateVerdict("g", armed=True, passed=False)
        assert "PASS" in passing.render()
        assert "FAIL" in failing.render()

    def test_roundtrip(self):
        gate = GateVerdict(
            "g", armed=True, passed=True, threshold=5.0, observed=9.9
        )
        assert GateVerdict.from_json(gate.to_json()) == gate


class TestEnvFingerprint:
    def test_contains_comparability_keys(self):
        fp = env_fingerprint()
        for key in ("cpu_count", "python_version", "numpy_version"):
            assert key in fp

    def test_kernel_backend_moves_the_fingerprint(self):
        c_backend = env_fingerprint(kernel_backend="c")
        assert c_backend["kernel_backend"] == "c"
        assert c_backend != env_fingerprint(kernel_backend="python")
        assert "kernel_backend" not in env_fingerprint()


class TestBenchRecord:
    def test_new_record_stamps_env_and_rev(self):
        record = new_record(
            "replay", series=[BenchSeries("speedup", "x", (5.0,))]
        )
        assert record.schema == BENCH_RECORD_SCHEMA
        assert record.env["cpu_count"] >= 1
        assert record.created_at > 0

    def test_rejects_duplicate_series_names(self):
        with pytest.raises(ValueError):
            new_record(
                "b",
                series=[
                    BenchSeries("s", "x", (1.0,)),
                    BenchSeries("s", "x", (2.0,)),
                ],
            )

    def test_json_roundtrip_preserves_everything(self):
        record = new_record(
            "parallel",
            series=[BenchSeries("speedup", "x", (1.1, 1.2))],
            gates=[
                GateVerdict(
                    "speedup_4workers", armed=False, reason="cpu_count=1 < 4"
                )
            ],
            view={"records": [{"jobs": 4}]},
            meta={"task_count": 16},
        )
        twin = BenchRecord.from_json(record.to_json())
        assert twin == record

    def test_from_json_rejects_foreign_schema(self):
        with pytest.raises(ValueError):
            BenchRecord.from_json({"schema": "BENCH_replay/v2", "bench_id": "x"})

    def test_write_read_uses_legacy_filename(self, tmp_path):
        record = new_record(
            "replay", series=[BenchSeries("speedup", "x", (5.0,))]
        )
        path = write_record(record, tmp_path)
        assert path.name == "BENCH_replay.json"
        assert read_record(path) == record
