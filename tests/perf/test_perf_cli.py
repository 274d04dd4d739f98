"""`parole perf` CLI: the export-trace round trip."""

from __future__ import annotations

import json

from repro.cli import main
from repro.telemetry import FileSink, Tracer


class TestPerfExportTrace:
    def test_export_trace_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        sink = FileSink(trace)
        tracer = Tracer(sink)
        with tracer.span("campaign.run"):
            tracer.event("store.hit", key="k")
        sink.close()
        out = tmp_path / "timeline.json"
        code = main(
            ["perf", "export-trace", str(trace), "--out", str(out)]
        )
        assert code == 0
        assert "perfetto" in capsys.readouterr().out.lower()
        payload = json.loads(out.read_text())
        assert any(
            e.get("name") == "campaign.run" for e in payload["traceEvents"]
        )
