"""Versioned bench-record schema: what every benchmark emits.

A :class:`BenchRecord` is the one JSON shape all ``benchmarks/bench_*``
scripts produce:

* an **environment fingerprint** — cpu count, python/numpy versions,
  platform, optional kernel backend — saying which machine measured it;
* the **git revision** and a wall-clock ``created_at`` stamp;
* named **series** of samples with units and a better-direction flag
  (``higher`` for throughput/speedups, ``lower`` for latencies);
* machine-readable **gate verdicts** — every acceptance gate states
  whether it *armed*, and when it could not (``cpu_count=1``), why.
  A gate that never ran is never a silent green check;
* an optional free-form ``view`` block carrying the bench's legacy
  detail payload, so the rendered ``BENCH_*.json`` files stay rich.

The shared writer (:func:`write_record`) renders the record to the
bench's historical ``BENCH_<id>.json`` filename, and :func:`read_record`
parses it back.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from ..telemetry.manifest import env_fingerprint, git_revision

__all__ = [
    "BENCH_RECORD_SCHEMA",
    "BenchSeries",
    "GateVerdict",
    "BenchRecord",
    "env_fingerprint",
    "new_record",
    "write_record",
    "read_record",
]

#: Bump when the record anatomy changes; :meth:`BenchRecord.from_json`
#: reads any ``repro.perf/bench-record/`` version.
BENCH_RECORD_SCHEMA = "repro.perf/bench-record/v1"


@dataclass(frozen=True)
class BenchSeries:
    """One named series of samples with a unit and a better-direction."""

    name: str
    unit: str
    values: Tuple[float, ...]
    #: ``higher`` (throughput, speedup, profit) or ``lower`` (latency).
    direction: str = "higher"
    #: Free-form qualifiers (``{"N": 50}``, ``{"K": 32}``).
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise ValueError(
                f"series {self.name!r}: direction must be 'higher' or "
                f"'lower', not {self.direction!r}"
            )
        object.__setattr__(
            self, "values", tuple(float(v) for v in self.values)
        )
        object.__setattr__(self, "meta", dict(self.meta))

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "unit": self.unit,
            "values": list(self.values),
            "direction": self.direction,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "BenchSeries":
        return cls(
            name=str(payload["name"]),
            unit=str(payload.get("unit", "")),
            values=tuple(float(v) for v in payload.get("values", ())),
            direction=str(payload.get("direction", "higher")),
            meta=dict(payload.get("meta", {})),
        )


@dataclass(frozen=True)
class GateVerdict:
    """Machine-readable state of one acceptance gate.

    ``armed=False`` means the environment could not support the gate
    (e.g. a multi-core speedup gate on a 1-core machine); ``reason``
    says why and ``passed`` is ``None``.  CI renders unarmed gates
    loudly instead of letting them read as green.
    """

    name: str
    armed: bool
    passed: Optional[bool] = None
    reason: str = ""
    threshold: Optional[float] = None
    observed: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.armed and not self.reason:
            raise ValueError(
                f"gate {self.name!r}: an unarmed gate must state a reason"
            )

    def render(self) -> str:
        detail = ""
        if self.observed is not None and self.threshold is not None:
            detail = f" (observed {self.observed:g} vs {self.threshold:g})"
        if not self.armed:
            return f"gate {self.name}: UNARMED — {self.reason}{detail}"
        if self.passed is None:
            return f"gate {self.name}: armed, no verdict{detail}"
        state = "PASS" if self.passed else "FAIL"
        return f"gate {self.name}: {state}{detail}"

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "armed": self.armed,
            "passed": self.passed,
            "reason": self.reason,
            "threshold": self.threshold,
            "observed": self.observed,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "GateVerdict":
        return cls(
            name=str(payload["name"]),
            armed=bool(payload.get("armed", False)),
            passed=payload.get("passed"),
            reason=str(payload.get("reason", "")),
            threshold=payload.get("threshold"),
            observed=payload.get("observed"),
        )


@dataclass(frozen=True)
class BenchRecord:
    """One bench run: environment, series, gates, and a rendered view."""

    bench_id: str
    created_at: float
    git_rev: Optional[str]
    env: Mapping[str, Any]
    series: Tuple[BenchSeries, ...]
    gates: Tuple[GateVerdict, ...] = ()
    view: Mapping[str, Any] = field(default_factory=dict)
    meta: Mapping[str, Any] = field(default_factory=dict)
    schema: str = BENCH_RECORD_SCHEMA

    def __post_init__(self) -> None:
        if not self.bench_id:
            raise ValueError("bench_id must be non-empty")
        names = [s.name for s in self.series]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate series names in {self.bench_id}")

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "bench_id": self.bench_id,
            "created_at": self.created_at,
            "git_rev": self.git_rev,
            "env": dict(self.env),
            "series": [s.to_json() for s in self.series],
            "gates": [g.to_json() for g in self.gates],
            "view": dict(self.view),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "BenchRecord":
        schema = str(payload.get("schema", ""))
        if not schema.startswith("repro.perf/bench-record/"):
            raise ValueError(f"not a bench record: schema={schema!r}")
        return cls(
            bench_id=str(payload["bench_id"]),
            created_at=float(payload.get("created_at", 0.0)),
            git_rev=payload.get("git_rev"),
            env=dict(payload.get("env", {})),
            series=tuple(
                BenchSeries.from_json(s) for s in payload.get("series", ())
            ),
            gates=tuple(
                GateVerdict.from_json(g) for g in payload.get("gates", ())
            ),
            view=dict(payload.get("view", {})),
            meta=dict(payload.get("meta", {})),
            schema=schema,
        )


def new_record(
    bench_id: str,
    series: Sequence[BenchSeries],
    gates: Sequence[GateVerdict] = (),
    view: Optional[Mapping[str, Any]] = None,
    meta: Optional[Mapping[str, Any]] = None,
    kernel_backend: Optional[str] = None,
    env_extra: Optional[Mapping[str, Any]] = None,
    created_at: Optional[float] = None,
    git_rev: Optional[str] = None,
) -> BenchRecord:
    """Assemble a record with the current environment and git revision."""
    return BenchRecord(
        bench_id=bench_id,
        created_at=time.time() if created_at is None else float(created_at),
        git_rev=git_rev if git_rev is not None else git_revision(),
        env=env_fingerprint(kernel_backend=kernel_backend, extra=env_extra),
        series=tuple(series),
        gates=tuple(gates),
        view=dict(view or {}),
        meta=dict(meta or {}),
    )


def write_record(
    record: BenchRecord, results_dir: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Render the record to its ``BENCH_<id>.json`` view file."""
    results_dir = pathlib.Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"BENCH_{record.bench_id}.json"
    path.write_text(json.dumps(record.to_json(), indent=2) + "\n")
    return path


def read_record(path: Union[str, pathlib.Path]) -> BenchRecord:
    """Parse a rendered ``BENCH_*.json`` view back into a record."""
    payload = json.loads(pathlib.Path(path).read_text())
    return BenchRecord.from_json(payload)
