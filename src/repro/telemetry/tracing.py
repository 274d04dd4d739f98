"""Structured span tracing with JSONL sinks.

A *span* wraps a unit of work (``with span("aggregator.reorder",
n_txs=N):``) and emits one JSON event when it closes, carrying:

* ``name`` — dotted span name, same conventions as metric names;
* ``span_id`` / ``parent_id`` — deterministic per-tracer sequence
  numbers; nesting is per-thread, so concurrent experiments keep their
  parent chains separate;
* ``start`` / ``end`` / ``duration_s`` — monotonic seconds since the
  tracer's epoch (``time.perf_counter`` based, immune to wall-clock
  steps);
* ``attrs`` — any keyword attributes, including ones attached mid-span
  via :meth:`Span.add`.

Because events are emitted at span *close*, a child's event always
precedes its parent's in the JSONL stream — consumers can rebuild the
tree from ``parent_id`` alone, and tail-reading a live file shows
finished work first.

Sinks are pluggable: an in-memory ring buffer (tests, `parole
telemetry`) or an append-only JSONL file.  The module-level
:func:`span` / :func:`event` helpers delegate to the active tracer and
collapse to shared no-op objects when tracing is disabled, so
instrumented call sites cost almost nothing by default.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from typing import Any, Dict, IO, List, Optional, Union

from .metrics import get_metrics

__all__ = [
    "Span",
    "Tracer",
    "TraceSink",
    "NullSink",
    "RingBufferSink",
    "FileSink",
    "get_tracer",
    "set_tracer",
    "enable_tracing",
    "disable_tracing",
    "span",
    "event",
]


class TraceSink:
    """Interface every sink implements."""

    def emit(self, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class NullSink(TraceSink):
    """Swallows everything."""

    def emit(self, record: Dict[str, Any]) -> None:
        pass


class RingBufferSink(TraceSink):
    """Keeps the last ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("ring buffer capacity must be positive")
        self.capacity = capacity
        self._events: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def emit(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._events.append(record)

    def events(self) -> List[Dict[str, Any]]:
        """Buffered events, oldest first."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()


class FileSink(TraceSink):
    """Append-only JSONL file sink (opened lazily, line-buffered)."""

    def __init__(self, path: Union[str, "Any"]) -> None:
        self.path = str(path)
        self._stream: Optional[IO[str]] = None
        self._lock = threading.Lock()

    def emit(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._lock:
            if self._stream is None:
                self._stream = open(self.path, "a", buffering=1)
            self._stream.write(line + "\n")

    def close(self) -> None:
        with self._lock:
            if self._stream is not None:
                self._stream.close()
                self._stream = None


class Span:
    """One open span; emitted to the sink when the ``with`` block exits."""

    __slots__ = ("name", "span_id", "parent_id", "attrs", "_tracer", "_start")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._start = tracer.clock()

    def add(self, **attrs: Any) -> "Span":
        """Attach more attributes mid-span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self)
        end = self._tracer.clock()
        record = {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": round(self._start, 9),
            "end": round(end, 9),
            "duration_s": round(end - self._start, 9),
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        if self.attrs:
            record["attrs"] = self.attrs
        self._tracer.sink.emit(record)


class _NullSpan:
    """Inert stand-in returned when tracing is disabled."""

    __slots__ = ()
    name = ""
    span_id = 0
    parent_id = None
    attrs: Dict[str, Any] = {}

    def add(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Emits spans and point events into a sink.

    ``clock`` returns monotonic seconds relative to the tracer's epoch;
    span ids come from a deterministic per-tracer counter, so traces are
    reproducible modulo timing.
    """

    def __init__(self, sink: Optional[TraceSink] = None) -> None:
        self.sink = sink if sink is not None else NullSink()
        self.enabled = not isinstance(self.sink, NullSink)
        self._epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def clock(self) -> float:
        """Monotonic seconds since the tracer's epoch."""
        return time.perf_counter() - self._epoch

    # ------------------------------------------------------------------ #
    # Span stack (per-thread)
    # ------------------------------------------------------------------ #

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span_obj: Span) -> None:
        self._stack().append(span_obj)

    def _pop(self, span_obj: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span_obj:
            stack.pop()
        elif span_obj in stack:  # exited out of order; drop through it
            stack.remove(span_obj)

    def current_span_id(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1].span_id if stack else None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def span(self, name: str, **attrs: Any) -> Union[Span, _NullSpan]:
        """Open a span; use as a context manager."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(
            tracer=self,
            name=name,
            span_id=next(self._ids),
            parent_id=self.current_span_id(),
            attrs=attrs,
        )

    def event(self, name: str, **attrs: Any) -> None:
        """Emit a point event under the current span (if any)."""
        if not self.enabled:
            return
        record: Dict[str, Any] = {
            "type": "event",
            "name": name,
            "parent_id": self.current_span_id(),
            "t": round(self.clock(), 9),
        }
        if attrs:
            record["attrs"] = attrs
        self.sink.emit(record)

    def absorb(self, records: List[Dict[str, Any]], **attrs: Any) -> int:
        """Re-emit span/event records captured in another process.

        Worker processes trace into a :class:`RingBufferSink`; the parent
        calls ``absorb`` with the buffered records to splice them into its
        own trace.  Span ids are remapped into this tracer's id sequence
        (keeping parent/child chains intact within the absorbed batch);
        records whose parent lies outside the batch are re-parented under
        the parent process's current span.  Extra ``attrs`` (e.g.
        ``worker=<pid>``) are stamped onto every absorbed record.
        Returns the number of records emitted.
        """
        if not self.enabled:
            return 0
        id_map: Dict[int, int] = {}
        for record in records:
            old_id = record.get("span_id")
            if isinstance(old_id, int):
                id_map[old_id] = next(self._ids)
        anchor = self.current_span_id()
        emitted = 0
        for record in records:
            copy = dict(record)
            old_id = copy.get("span_id")
            if isinstance(old_id, int):
                copy["span_id"] = id_map[old_id]
            parent = copy.get("parent_id")
            copy["parent_id"] = id_map.get(parent, anchor)
            if attrs:
                merged = dict(copy.get("attrs") or {})
                merged.update(attrs)
                copy["attrs"] = merged
            self.sink.emit(copy)
            emitted += 1
        return emitted

    def emit_metrics(self, name: str = "metrics") -> None:
        """Attach a snapshot of the active metrics registry to the trace."""
        if not self.enabled:
            return
        self.sink.emit(
            {
                "type": "metrics",
                "name": name,
                "parent_id": self.current_span_id(),
                "t": round(self.clock(), 9),
                "metrics": get_metrics().snapshot(),
            }
        )

    def close(self) -> None:
        self.sink.close()


#: Process-wide active tracer (disabled by default).
_ACTIVE_TRACER = Tracer()
_TRACER_LOCK = threading.Lock()


def get_tracer() -> Tracer:
    """The active tracer (a disabled one unless tracing was enabled)."""
    return _ACTIVE_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the active one; returns the previous."""
    global _ACTIVE_TRACER
    with _TRACER_LOCK:
        previous = _ACTIVE_TRACER
        _ACTIVE_TRACER = tracer
    return previous


def enable_tracing(sink: TraceSink) -> Tracer:
    """Activate (and return) a tracer writing into ``sink``."""
    return_tracer = Tracer(sink)
    set_tracer(return_tracer)
    return return_tracer


def disable_tracing() -> None:
    """Return to the no-op tracer (closing nothing; sinks are caller-owned)."""
    set_tracer(Tracer())


def span(name: str, **attrs: Any) -> Union[Span, _NullSpan]:
    """``get_tracer().span(...)`` shorthand for instrumented call sites."""
    return _ACTIVE_TRACER.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """``get_tracer().event(...)`` shorthand."""
    _ACTIVE_TRACER.event(name, **attrs)
