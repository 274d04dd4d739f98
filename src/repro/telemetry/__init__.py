"""Unified telemetry layer: metrics, span tracing, run manifests.

Three cooperating pieces, all zero-dependency and off by default:

* :mod:`~repro.telemetry.metrics` — a process-wide metrics registry
  (counters, gauges, fixed-bucket histograms with percentiles, labelled
  series).  ``get_metrics()`` returns the no-op :class:`NullMetrics`
  until enabled, so instrumented hot paths pay ~nothing when
  observability is off.
* :mod:`~repro.telemetry.tracing` — structured span tracing emitting
  JSONL events (monotonic timestamps, parent/child span ids, attached
  metric snapshots) into pluggable sinks: in-memory ring buffer or
  file.
* :mod:`~repro.telemetry.manifest` — run manifests: config hash, seed,
  git revision, host fingerprint, duration, the process's peak resident
  set (``getrusage``) and a metrics dump written next to experiment
  artifacts.

Typical session::

    from repro.config import TelemetryConfig
    from repro import telemetry

    session = telemetry.configure(
        TelemetryConfig(enabled=True, trace_path="trace.jsonl")
    )
    ...  # run experiments; layers record into the registry/tracer
    session.shutdown()  # flush + restore the no-op backends

The ``parole telemetry`` CLI subcommand summarizes or tails a JSONL
trace, and ``parole perf export-trace`` converts one into a
Chrome-trace/Perfetto timeline; see ``docs/telemetry.md`` for the event
schema and naming conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..config import TelemetryConfig
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    disable_metrics,
    enable_metrics,
    get_metrics,
    set_metrics,
)
from .tracing import (
    FileSink,
    NullSink,
    RingBufferSink,
    Span,
    TraceSink,
    Tracer,
    disable_tracing,
    enable_tracing,
    event,
    get_tracer,
    set_tracer,
    span,
)
from .manifest import (
    MANIFEST_SCHEMA,
    ManifestRecorder,
    RunManifest,
    config_hash,
    git_revision,
)
from .trace_tools import (
    chrome_trace_events,
    export_chrome_trace,
    read_trace,
    summarize_trace,
    tail_trace,
)

__all__ = [
    "TelemetryConfig",
    "TelemetrySession",
    "configure",
    "reset_for_worker",
    # metrics
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "get_metrics",
    "set_metrics",
    "enable_metrics",
    "disable_metrics",
    # tracing
    "Tracer",
    "Span",
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
    # manifests
    "MANIFEST_SCHEMA",
    "RunManifest",
    "ManifestRecorder",
    "config_hash",
    "git_revision",
    # trace tools
    "read_trace",
    "summarize_trace",
    "tail_trace",
    "chrome_trace_events",
    "export_chrome_trace",
]


def reset_for_worker() -> None:
    """Restore no-op telemetry backends in a freshly started worker.

    A forked worker inherits the parent's live registry, tracer and open
    sinks; recording into them would double-count metrics (the parent
    also merges the worker's explicit snapshot) and interleave writes on
    shared file descriptors.  Process-pool initializers call this first;
    the worker then enables its *own* registry/tracer per work chunk and
    ships the results back for the parent to merge.
    """
    disable_metrics()
    disable_tracing()


@dataclass
class TelemetrySession:
    """Handle over one configured telemetry setup."""

    config: TelemetryConfig
    metrics: Union[MetricsRegistry, NullMetrics]
    tracer: Tracer
    ring: Optional[RingBufferSink] = None

    def shutdown(self) -> None:
        """Flush sinks and restore the no-op backends."""
        self.tracer.close()
        disable_tracing()
        disable_metrics()


def configure(config: Optional[TelemetryConfig] = None) -> TelemetrySession:
    """Install the backends ``config`` asks for and return the session.

    With ``enabled=False`` (the default config) this restores the no-op
    backends — useful to tear down a previous session deterministically.
    """
    cfg = config or TelemetryConfig()
    if not cfg.enabled:
        disable_metrics()
        disable_tracing()
        return TelemetrySession(
            config=cfg, metrics=get_metrics(), tracer=get_tracer(), ring=None
        )
    registry = enable_metrics()
    ring: Optional[RingBufferSink] = None
    sink: TraceSink
    if cfg.trace_path is not None:
        sink = FileSink(cfg.trace_path)
    else:
        ring = RingBufferSink(capacity=cfg.ring_buffer_size)
        sink = ring
    tracer = enable_tracing(sink)
    return TelemetrySession(
        config=cfg, metrics=registry, tracer=tracer, ring=ring
    )
