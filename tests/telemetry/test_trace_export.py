"""Chrome-trace export: structural validity for Perfetto/chrome://tracing."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import (
    FileSink,
    Tracer,
    chrome_trace_events,
    export_chrome_trace,
)


def _write_trace(path):
    """Record a realistic trace: nested spans, an event, worker records."""
    sink = FileSink(path)
    tracer = Tracer(sink)
    with tracer.span("campaign.run", jobs=2):
        with tracer.span("solver.round", round=0):
            tracer.event("store.miss", key="experiment:a")
    # A record absorbed from a fabric worker carries worker=<pid>.
    sink.emit(
        {
            "type": "span",
            "name": "chunk.solve",
            "span_id": 900,
            "parent_id": None,
            "start": 5.0,
            "end": 6.0,
            "duration_s": 1.0,
            "attrs": {"worker": 4242},
        }
    )
    sink.emit(
        {
            "type": "metrics",
            "name": "snapshot",
            "t": 7.0,
            "metrics": {"counters": {"store.hits": 3, "store.misses": 1}},
        }
    )
    sink.close()
    return path


class TestChromeTraceEvents:
    def test_span_events_are_complete_events(self, tmp_path):
        trace = _write_trace(tmp_path / "trace.jsonl")
        out, counts = export_chrome_trace(trace)
        payload = json.loads(out.read_text())
        spans = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        assert {s["name"] for s in spans} == {
            "campaign.run",
            "solver.round",
            "chunk.solve",
        }
        for event in spans:
            for key in ("name", "ph", "ts", "dur", "pid", "tid", "args"):
                assert key in event
            assert event["dur"] >= 0
        assert counts["skipped"] == 0
        assert counts["events"] >= counts["records"]

    def test_parent_links_survive_in_args(self, tmp_path):
        trace = _write_trace(tmp_path / "trace.jsonl")
        _, _ = export_chrome_trace(trace)
        events = chrome_trace_events(json_lines(trace))
        by_name = {e["name"]: e for e in events if e.get("ph") == "X"}
        inner = by_name["solver.round"]
        outer = by_name["campaign.run"]
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]

    def test_instants_and_counters(self, tmp_path):
        trace = _write_trace(tmp_path / "trace.jsonl")
        events = chrome_trace_events(json_lines(trace))
        instants = [e for e in events if e.get("ph") == "i"]
        assert instants and instants[0]["s"] == "t"
        assert instants[0]["name"] == "store.miss"
        counters = [e for e in events if e.get("ph") == "C"]
        assert counters
        assert counters[0]["args"] == {"store.hits": 3.0, "store.misses": 1.0}

    def test_worker_records_get_their_own_named_lane(self, tmp_path):
        trace = _write_trace(tmp_path / "trace.jsonl")
        events = chrome_trace_events(json_lines(trace))
        lanes = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert lanes[0] == "main"
        assert lanes[4242] == "worker 4242"
        worker_spans = [
            e for e in events if e.get("ph") == "X" and e["pid"] == 4242
        ]
        assert [e["name"] for e in worker_spans] == ["chunk.solve"]


class TestExportChromeTrace:
    def test_default_output_path_and_strict_json(self, tmp_path):
        trace = _write_trace(tmp_path / "trace.jsonl")
        out, counts = export_chrome_trace(trace)
        assert out == tmp_path / "trace.chrome.json"
        # Strict parse: Perfetto rejects NaN/Infinity literals.
        payload = json.loads(
            out.read_text(), parse_constant=_reject_constant
        )
        assert isinstance(payload["traceEvents"], list)
        assert payload["displayTimeUnit"] == "ms"
        assert counts["records"] > 0

    def test_nan_attrs_are_sanitized_not_emitted_raw(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            json.dumps(
                {
                    "type": "span",
                    "name": "odd",
                    "span_id": 1,
                    "parent_id": None,
                    "start": 0.0,
                    "end": 1.0,
                    "duration_s": 1.0,
                    "attrs": {"ratio": float("nan")},
                },
                allow_nan=True,
            )
            + "\n"
        )
        out, _ = export_chrome_trace(trace)
        json.loads(out.read_text(), parse_constant=_reject_constant)

    def test_malformed_lines_are_skipped_counted(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        good = {
            "type": "span",
            "name": "ok",
            "span_id": 1,
            "parent_id": None,
            "start": 0.0,
            "end": 1.0,
            "duration_s": 1.0,
            "attrs": {},
        }
        trace.write_text(json.dumps(good) + "\n" + '{"truncated": \n')
        out, counts = export_chrome_trace(trace)
        assert counts["skipped"] == 1
        payload = json.loads(out.read_text())
        assert any(e["name"] == "ok" for e in payload["traceEvents"])

    @pytest.mark.parametrize(
        "record",
        [
            {"type": "span", "name": "a", "start": 0, "duration_s": 0.1,
             "attrs": [1, 2]},
            {"type": "span", "name": "a", "start": 0, "duration_s": 0.1,
             "attrs": "xy"},
            {"type": "metrics", "t": 0, "metrics": [1]},
        ],
        ids=["attrs-list", "attrs-string", "metrics-list"],
    )
    def test_non_object_fields_read_as_empty(self, tmp_path, record):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps(record) + "\n")
        out, counts = export_chrome_trace(trace)
        assert counts == {
            "records": 1,
            "events": 2 if record["type"] == "span" else 1,
            "skipped": 0,
        }
        events = json.loads(out.read_text())["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        if record["type"] == "span":
            assert [(s["name"], s["pid"], s["dur"]) for s in spans] == [
                ("a", 0, 100000.0)
            ]
            assert spans[0]["args"] == {"span_id": None, "parent_id": None}
        assert not [e for e in events if e["ph"] == "C"]


def _reject_constant(name):
    raise AssertionError(f"non-strict JSON constant in export: {name}")


def json_lines(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]
