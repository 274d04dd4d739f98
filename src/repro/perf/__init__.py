"""Bench records: the one schema every ``benchmarks/bench_*`` emits.

:mod:`~repro.perf.record` defines the versioned :class:`BenchRecord`
(environment fingerprint, git revision, named series with units,
machine-readable gate verdicts) and the shared writer/reader pair
:func:`write_record`/:func:`read_record` behind every ``BENCH_*.json``.
Each bench asserts its own armed gates; the end-to-end regression rule
is ``bench/compare.py``.  The Perfetto exporter behind ``parole perf
export-trace`` lives with the other trace readers in
:mod:`repro.telemetry`.  See ``docs/perf.md``.
"""

from .record import (
    BENCH_RECORD_SCHEMA,
    BenchRecord,
    BenchSeries,
    GateVerdict,
    env_fingerprint,
    new_record,
    read_record,
    write_record,
)

__all__ = [
    "BENCH_RECORD_SCHEMA",
    "BenchRecord",
    "BenchSeries",
    "GateVerdict",
    "env_fingerprint",
    "new_record",
    "read_record",
    "write_record",
]
