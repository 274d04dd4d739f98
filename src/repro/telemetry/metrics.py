"""Zero-dependency metrics registry: counters, gauges, histograms.

Design constraints, in order of priority:

1. **Hot paths pay ~nothing when telemetry is off.**  The default active
   backend is :class:`NullMetrics`, whose instruments are shared inert
   singletons — ``counter(...).inc()`` is a single no-op method call
   with no lock, no dict lookup, no allocation.  Callers on true hot
   loops (the incremental replay engine) keep their own plain-int
   counters and *publish* snapshots at span boundaries instead.
2. **Thread-safe when on.**  :class:`MetricsRegistry` guards instrument
   creation and every update with locks; experiments that shard work
   across threads can share one registry.
3. **Self-describing snapshots.**  ``snapshot()`` renders every
   instrument into plain JSON-able dicts (histograms include fixed-
   bucket percentile estimates), which is what run manifests and the
   span tracer attach.

Metric names are dotted paths ``<layer>.<thing>`` (``mempool.submitted``,
``drl.episode_reward``); optional labels qualify a series
(``counter("verifier.outcomes", outcome="challenged")``).  See
``docs/telemetry.md`` for the naming conventions.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "get_metrics",
    "set_metrics",
    "enable_metrics",
    "disable_metrics",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds: exponential decade/half-decade
#: ladder from 1 microsecond to 100 seconds — wide enough for both
#: latencies (seconds) and small magnitudes (ETH deltas, swap counts).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3,
    1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
)

LabelValue = Union[str, int, float, bool]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Point-in-time value (set freely, up or down)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with interpolated percentile estimates.

    Buckets are defined by sorted upper bounds; observations above the
    last bound land in a +Inf overflow bucket.  Percentiles interpolate
    linearly inside the winning bucket (clamped by the observed min/max,
    so single-observation histograms report exact values).

    **Empty histograms**: with zero observations there is no meaningful
    central value or extremum, so :attr:`mean`, :attr:`min`, :attr:`max`
    and :meth:`percentile` all return ``NaN`` (never a fake ``0.0`` that
    could be mistaken for a real measurement).  :meth:`summary` of an
    empty histogram reports only ``count``/``sum`` and omits the NaN
    statistics, keeping snapshots strict-JSON safe.
    """

    __slots__ = ("bounds", "_lock", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        ordered = tuple(float(b) for b in bounds)
        if not ordered:
            raise ValueError("histogram needs at least one bucket bound")
        if list(ordered) != sorted(set(ordered)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = ordered
        self._lock = threading.Lock()
        self._counts = [0] * (len(ordered) + 1)  # +1: overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        """Mean of all observations; ``NaN`` when empty."""
        return self._sum / self._count if self._count else float("nan")

    @property
    def min(self) -> float:
        """Smallest observation; ``NaN`` when empty."""
        return self._min if self._count else float("nan")

    @property
    def max(self) -> float:
        """Largest observation; ``NaN`` when empty."""
        return self._max if self._count else float("nan")

    def bucket_counts(self) -> Tuple[int, ...]:
        """Per-bucket observation counts (last entry is the overflow)."""
        return tuple(self._counts)

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (``q`` in [0, 100]).

        Walks the cumulative bucket counts to the target rank, then
        interpolates linearly between the bucket's lower and upper
        bounds.  The overflow bucket reports the observed maximum; every
        estimate is clamped into ``[min, max]``.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if not self._count:
            return float("nan")
        rank = q / 100.0 * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.bounds):  # overflow bucket
                    return self._max
                upper = self.bounds[index]
                lower = self.bounds[index - 1] if index else min(self._min, upper)
                within = (rank - (cumulative - bucket_count)) / bucket_count
                estimate = lower + (upper - lower) * max(0.0, min(1.0, within))
                return max(self._min, min(self._max, estimate))
        return self._max

    def summary(self) -> Dict[str, float]:
        """JSON-able digest used by snapshots and manifests.

        An empty histogram reports only ``count`` and ``sum`` — its
        other statistics are ``NaN`` (see the class docstring) and NaN
        is not valid strict JSON, so they are omitted rather than faked.
        """
        if not self._count:
            return {"count": 0.0, "sum": 0.0}
        return {
            "count": float(self._count),
            "sum": self._sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }

    def state(self) -> Dict[str, Any]:
        """Lossless serializable state (bucket counts, not percentiles).

        Unlike :meth:`summary`, two histograms can be exactly recombined
        from their states — the basis of cross-process metric merging.
        """
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
            }

    def merge_state(self, state: Mapping[str, Any]) -> None:
        """Fold another histogram's :meth:`state` into this one.

        The bucket bounds must match exactly; merging is equivalent to
        having observed the union of both histograms' samples (bucket
        counts, totals and extrema combine losslessly — only the exact
        sample order, which percentile estimates never see, is lost).
        """
        bounds = tuple(float(b) for b in state["bounds"])
        if bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{bounds} != {self.bounds}"
            )
        counts = list(state["counts"])
        if len(counts) != len(self._counts):
            raise ValueError("bucket count vectors differ in length")
        with self._lock:
            for index, count in enumerate(counts):
                self._counts[index] += int(count)
            self._count += int(state["count"])
            self._sum += float(state["sum"])
            self._min = min(self._min, float(state["min"]))
            self._max = max(self._max, float(state["max"]))


class _NullCounter:
    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    bounds: Tuple[float, ...] = ()
    count = 0
    sum = 0.0
    mean = 0.0
    min = 0.0
    max = 0.0

    def observe(self, value: float) -> None:
        pass

    def bucket_counts(self) -> Tuple[int, ...]:
        return ()

    def percentile(self, q: float) -> float:
        return 0.0

    def summary(self) -> Dict[str, float]:
        return {}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


def _series_key(name: str, labels: Dict[str, LabelValue]) -> str:
    """Canonical series key: ``name`` or ``name{k=v,...}`` (sorted)."""
    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """Thread-safe home of every live instrument.

    Instruments are created on first use and shared thereafter — calling
    ``registry.counter("x")`` twice returns the same object, so call
    sites can either cache the instrument (hot paths) or re-resolve it
    each time (cold paths).
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, **labels: LabelValue) -> Counter:
        key = _series_key(name, labels)
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: LabelValue) -> Gauge:
        key = _series_key(name, labels)
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self,
        name: str,
        bounds: Optional[Sequence[float]] = None,
        **labels: LabelValue,
    ) -> Histogram:
        key = _series_key(name, labels)
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(
                    bounds if bounds is not None else DEFAULT_BUCKETS
                )
        return instrument

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Flat JSON-able view of every instrument's current state."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {key: c.value for key, c in sorted(counters.items())},
            "gauges": {key: g.value for key, g in sorted(gauges.items())},
            "histograms": {
                key: h.summary() for key, h in sorted(histograms.items())
            },
        }

    def series_names(self) -> List[str]:
        """Every live series key, sorted."""
        with self._lock:
            return sorted(
                list(self._counters)
                + list(self._gauges)
                + list(self._histograms)
            )

    def dump_state(self) -> Dict[str, Dict[str, Any]]:
        """Lossless, picklable view of every instrument.

        Counters and gauges dump their raw values; histograms dump full
        bucket states (:meth:`Histogram.state`).  A worker process sends
        this back to the parent, which folds it in via :meth:`merge` —
        ``registry.merge(other.dump_state())`` leaves ``registry`` exactly
        as if it had recorded both processes' observations itself.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {key: c.value for key, c in sorted(counters.items())},
            "gauges": {key: g.value for key, g in sorted(gauges.items())},
            "histograms": {
                key: h.state() for key, h in sorted(histograms.items())
            },
        }

    def merge(self, state: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold a :meth:`dump_state` payload into this registry.

        Counters add, histograms combine bucket-for-bucket, and gauges
        take the incoming value (last merge wins — callers that need
        deterministic gauges must merge worker states in a fixed order,
        which the parallel fabric does by folding chunks in task order).  Series keys already carry their labels, so labelled
        series merge like any other.
        """
        for key, value in state.get("counters", {}).items():
            self._counter_by_key(key).inc(float(value))
        for key, value in state.get("gauges", {}).items():
            self._gauge_by_key(key).set(float(value))
        for key, hist_state in state.get("histograms", {}).items():
            bounds = tuple(float(b) for b in hist_state["bounds"])
            with self._lock:
                instrument = self._histograms.get(key)
                if instrument is None:
                    instrument = self._histograms[key] = Histogram(bounds)
            instrument.merge_state(hist_state)

    def _counter_by_key(self, key: str) -> Counter:
        """Counter lookup by full series key (merging path)."""
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter()
        return instrument

    def _gauge_by_key(self, key: str) -> Gauge:
        """Gauge lookup by full series key (merging path)."""
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge()
        return instrument

    def reset(self) -> None:
        """Drop every instrument (tests and fresh experiment runs)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


class NullMetrics:
    """No-op backend: every instrument is a shared inert singleton."""

    enabled = False

    def counter(self, name: str, **labels: LabelValue) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels: LabelValue) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(
        self,
        name: str,
        bounds: Optional[Sequence[float]] = None,
        **labels: LabelValue,
    ) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def series_names(self) -> List[str]:
        return []

    def dump_state(self) -> Dict[str, Dict[str, Any]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge(self, state: Mapping[str, Mapping[str, Any]]) -> None:
        pass

    def reset(self) -> None:
        pass


Metrics = Union[MetricsRegistry, NullMetrics]

#: Process-wide active backend.  Swapped atomically (name rebinding) by
#: :func:`set_metrics`; readers grab it once per object lifetime.
_ACTIVE: Metrics = NullMetrics()
_ACTIVE_LOCK = threading.Lock()
#: PID that installed the active backend.  A forked worker inherits the
#: parent's live registry object; recording into it would double-count
#: once the parent merges the worker's own snapshot back in, so
#: :func:`get_metrics` demotes inherited registries to ``NullMetrics``.
_ACTIVE_PID: int = os.getpid()


def get_metrics() -> Metrics:
    """The active metrics backend (``NullMetrics`` unless enabled).

    Fork-safe: when called in a child process that inherited a *live*
    parent registry, the child's backend is reset to ``NullMetrics``
    first (the parallel fabric gives workers their own registry and
    merges it back explicitly — see ``repro.parallel``).
    """
    if _ACTIVE.enabled and os.getpid() != _ACTIVE_PID:
        set_metrics(NullMetrics())
    return _ACTIVE


def set_metrics(backend: Metrics) -> Metrics:
    """Install ``backend`` as the active one; returns the previous."""
    global _ACTIVE, _ACTIVE_PID
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = backend
        _ACTIVE_PID = os.getpid()
    return previous


def enable_metrics(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Activate (and return) a live registry."""
    live = registry if registry is not None else MetricsRegistry()
    set_metrics(live)
    return live


def disable_metrics() -> None:
    """Return to the no-op backend."""
    set_metrics(NullMetrics())
