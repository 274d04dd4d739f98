"""Reading side of the JSONL traces: summarize, tail and export.

Backs the ``parole telemetry`` CLI subcommand and ``parole perf
export-trace``.  Every reader is tolerant of in-progress files: lines
that fail to parse (e.g. a partially flushed final line) are counted
and skipped, never fatal, and a field of the wrong shape reads as
empty.

The exporter converts a trace into the Trace Event Format that
``chrome://tracing`` and https://ui.perfetto.dev load directly:

* spans become complete events (``ph="X"``) with microsecond ``ts`` /
  ``dur``, carrying their span/parent ids and attributes in ``args``;
* point events become instants (``ph="i"``, thread scope);
* metrics snapshots become counter events (``ph="C"``) so counter
  trajectories render as tracks under the timeline;
* records absorbed from fabric workers (stamped ``worker=<pid>``) land
  on their own process track, with ``process_name`` metadata naming it,
  so a ``--jobs N`` run shows one lane per worker.

The tracer emits spans at *close*, so JSONL order is children-first;
viewers sort by ``ts``, which restores the timeline, and same-track
nesting falls out of containment.
"""

from __future__ import annotations

import json
import pathlib
from collections import defaultdict
from typing import Any, Dict, List, Mapping, Tuple, Union

from ..errors import ReproError

__all__ = [
    "read_trace",
    "summarize_trace",
    "tail_trace",
    "chrome_trace_events",
    "export_chrome_trace",
]


def read_trace(
    path: Union[str, pathlib.Path],
) -> Tuple[List[Dict[str, Any]], int]:
    """Parse a JSONL trace; returns (events, unparseable-line count).

    A trace file may be mid-write (truncated final line), contain
    undecodable bytes, or carry records of the wrong shape — all of
    those are counted and skipped, never raised.  Only a missing or
    unreadable file is fatal.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise ReproError(f"trace file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise ReproError(f"cannot read trace file {path}: {exc}") from exc
    events: List[Dict[str, Any]] = []
    bad = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            bad += 1
            continue
        if isinstance(record, dict):
            events.append(record)
        else:
            bad += 1
    return events, bad


def _as_float(value: Any, default: float = 0.0) -> float:
    """Coerce a trace field to a finite float, falling back on garbage.

    Truncated or hand-edited traces can carry strings, nulls, lists or
    NaN where a number belongs; the summarizer degrades those to
    ``default`` instead of crashing mid-report.
    """
    try:
        result = float(value)
    except (TypeError, ValueError):
        return default
    if result != result or result in (float("inf"), float("-inf")):
        return default
    return result


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile over already-sorted values."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(q / 100.0 * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def summarize_trace(path: Union[str, pathlib.Path]) -> str:
    """Human-readable digest: per-span-name latency stats and event counts."""
    events, bad = read_trace(path)
    spans = [e for e in events if e.get("type") == "span"]
    points = [e for e in events if e.get("type") == "event"]
    metrics_events = [e for e in events if e.get("type") == "metrics"]

    durations: Dict[str, List[float]] = defaultdict(list)
    for record in spans:
        durations[str(record.get("name", "?"))].append(
            _as_float(record.get("duration_s", 0.0))
        )

    lines = [
        f"trace: {path}",
        f"events: {len(events)} total — {len(spans)} spans, "
        f"{len(points)} point events, {len(metrics_events)} metrics snapshots"
        + (f", {bad} unparseable lines" if bad else ""),
    ]
    if spans:
        clocks = [_as_float(e.get("end", 0.0)) for e in spans]
        lines.append(f"span clock range: 0.000s .. {max(clocks):.3f}s")
        lines.append("")
        lines.append(
            f"{'span':<32} {'count':>6} {'total s':>9} {'mean ms':>9} "
            f"{'p95 ms':>9} {'max ms':>9}"
        )
        for name in sorted(durations, key=lambda n: -sum(durations[n])):
            values = sorted(durations[name])
            total = sum(values)
            lines.append(
                f"{name:<32} {len(values):>6} {total:>9.3f} "
                f"{1000.0 * total / len(values):>9.3f} "
                f"{1000.0 * _percentile(values, 95.0):>9.3f} "
                f"{1000.0 * values[-1]:>9.3f}"
            )
    if metrics_events:
        last = metrics_events[-1].get("metrics", {})
        counters = last.get("counters", {}) if isinstance(last, dict) else {}
        if isinstance(counters, dict) and counters:
            lines.append("")
            lines.append("final counter values:")
            for key in sorted(counters, key=str):
                lines.append(f"  {key} = {_as_float(counters[key]):g}")
    return "\n".join(lines)


def _format_event(record: Dict[str, Any]) -> str:
    kind = record.get("type", "?")
    name = record.get("name", "?")
    if kind == "span":
        extra = (
            f"id={record.get('span_id')} parent={record.get('parent_id')} "
            f"dur={1000.0 * _as_float(record.get('duration_s', 0.0)):.3f}ms"
        )
    else:
        extra = f"t={_as_float(record.get('t', 0.0)):.6f}s"
    attrs = record.get("attrs")
    suffix = f" {json.dumps(attrs, default=str)}" if attrs else ""
    return f"[{kind}] {name} {extra}{suffix}"


def tail_trace(path: Union[str, pathlib.Path], count: int = 20) -> str:
    """The last ``count`` events, one formatted line each."""
    if count < 1:
        raise ReproError("tail count must be positive")
    events, _ = read_trace(path)
    return "\n".join(_format_event(record) for record in events[-count:])


_MAIN_PID = 0


def _object(value: Any) -> Mapping[str, Any]:
    """A record field that should be a JSON object, else empty."""
    return value if isinstance(value, Mapping) else {}


def _lane(attrs: Mapping[str, Any]) -> int:
    """Process lane for a record: worker pid when absorbed, else main."""
    worker = attrs.get("worker")
    if isinstance(worker, int) and worker > 0:
        return worker
    return _MAIN_PID


def _sanitize(value: Any) -> Any:
    """Make an attrs payload strict-JSON safe (no NaN/Inf, no objects)."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if value != value or abs(value) == float("inf"):
            return repr(value)
        return value
    if isinstance(value, Mapping):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    return str(value)


def chrome_trace_events(
    records: List[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Map parsed JSONL records onto Trace Event Format dicts."""
    events: List[Dict[str, Any]] = []
    lanes = {_MAIN_PID}
    for record in records:
        kind = record.get("type")
        name = str(record.get("name", "?"))
        attrs = _object(record.get("attrs"))
        pid = _lane(attrs)
        lanes.add(pid)
        if kind == "span":
            start_us = _as_float(record.get("start")) * 1e6
            dur_us = max(0.0, _as_float(record.get("duration_s")) * 1e6)
            args: Dict[str, Any] = {
                "span_id": record.get("span_id"),
                "parent_id": record.get("parent_id"),
            }
            if "error" in record:
                args["error"] = record["error"]
            args.update(_sanitize(attrs))
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": start_us,
                    "dur": dur_us,
                    "pid": pid,
                    "tid": 0,
                    "cat": name.split(".", 1)[0],
                    "args": args,
                }
            )
        elif kind == "event":
            events.append(
                {
                    "name": name,
                    "ph": "i",
                    "ts": _as_float(record.get("t")) * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "s": "t",
                    "cat": name.split(".", 1)[0],
                    "args": _sanitize(attrs),
                }
            )
        elif kind == "metrics":
            counters = _object(
                _object(record.get("metrics")).get("counters")
            )
            numeric = {
                str(k): _as_float(v)
                for k, v in counters.items()
                if isinstance(v, (int, float))
            }
            if numeric:
                events.append(
                    {
                        "name": "counters",
                        "ph": "C",
                        "ts": _as_float(record.get("t")) * 1e6,
                        "pid": pid,
                        "tid": 0,
                        "args": numeric,
                    }
                )
    # Name the process lanes so Perfetto shows "main" / "worker <pid>".
    for pid in sorted(lanes):
        label = "main" if pid == _MAIN_PID else f"worker {pid}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    return events


def export_chrome_trace(
    trace_path: Union[str, pathlib.Path],
    out_path: Union[str, pathlib.Path, None] = None,
) -> Tuple[pathlib.Path, Dict[str, int]]:
    """Convert a JSONL trace file into a Chrome-trace JSON file.

    Returns the output path and counts of converted/skipped records.
    The output is strict JSON (``allow_nan=False``) so every viewer
    accepts it.
    """
    trace_path = pathlib.Path(trace_path)
    records, bad = read_trace(trace_path)
    events = chrome_trace_events(records)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": str(trace_path),
            "format": "repro.telemetry JSONL trace",
        },
    }
    out = (
        pathlib.Path(out_path)
        if out_path is not None
        else trace_path.with_suffix(".chrome.json")
    )
    out.write_text(json.dumps(payload, allow_nan=False) + "\n")
    counts = {
        "records": len(records),
        "events": len(events),
        "skipped": bad,
    }
    return out, counts
