"""Shared helpers for the benchmark suite.

Every bench renders what it measured as a text table; tables are
printed (visible with ``pytest -s``) and archived under
``benchmarks/results/`` so a bench run leaves its artifacts on disk.
The paper's qualitative claims are checked in Tier-1
(``tests/conformance/``); the benches here time things.

Numbers flow through one shared writer: the :func:`emit_bench` fixture
builds a versioned :class:`repro.perf.BenchRecord` (environment
fingerprint, named series, machine-readable gate verdicts, the bench's
legacy payload as the ``view``), renders it to the historical
``BENCH_<id>.json`` filename and prints every gate verdict.  Each bench
asserts its own armed gates; the end-to-end regression rule lives in
``bench/compare.py``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.perf import BenchSeries, GateVerdict, new_record, write_record

__all__ = ["RESULTS_DIR", "BenchSeries", "GateVerdict"]

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def save_artifact():
    """Persist one regenerated table/figure and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, content: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(content + "\n")
        print(f"\n===== {name} =====\n{content}\n")

    return _save


@pytest.fixture()
def emit_bench():
    """The one shared writer behind every ``BENCH_*.json`` artifact."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(
        bench_id: str,
        series=(),
        gates=(),
        view=None,
        meta=None,
        kernel_backend=None,
    ):
        record = new_record(
            bench_id,
            series=series,
            gates=gates,
            view=view,
            meta=meta,
            kernel_backend=kernel_backend,
        )
        path = write_record(record, RESULTS_DIR)
        for gate in record.gates:
            print(gate.render())
        print(f"bench record: {path.name}")
        return record

    return _emit
