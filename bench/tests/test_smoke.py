"""Smoke test of the benchmark harness (outside the tier-1 test paths).

Run with ``PYTHONPATH=src python -m pytest bench/tests -q``.  Every
workload runs once at its smoke size without tracing and once under the
ledger, in this process.
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys
from types import SimpleNamespace

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _declared(section: str):
    return {metric["name"] for metric in run.SPEC[section]}


def test_every_wrapper_target_exists():
    found, missing = ledger.resolve_targets()
    assert missing == []
    assert {layer for layer, _, _ in found} == {
        layer.name for layer in ledger.LAYERS
    }


def test_failed_stream_intervals_are_counted_per_lane_and_batch():
    report = SimpleNamespace(lanes=[
        SimpleNamespace(lane=0, violations=(
            "batch 3: inventory negative", "batch 3: root mismatch",
            "batch 7: inventory negative",
        )),
        SimpleNamespace(lane=1, violations=("batch 3: inventory negative",)),
    ])
    assert workloads.violating_intervals(report) == 3


@pytest.mark.parametrize("name", list(run.WORKLOAD_WHY))
def test_traced_digest_equals_untraced(name, tmp_path):
    session = workloads.open_session(name, 0, "smoke", tmp_path)
    try:
        untraced = session.rep()
        extras = child._reference_extras(name, session, [untraced], 1.0)
    finally:
        session.close()
    assert untraced.failed == 0 and untraced.problems == []
    rep = dataclasses.asdict(untraced)
    assert set(run.end_to_end_values([1.0], [rep], 100.0)) == _declared(
        "end_to_end"
    )

    book = ledger.Ledger(name)
    from repro.rollup.node import RollupNode

    original = RollupNode.run_round
    book.install()
    try:
        session = workloads.open_session(name, 0, "smoke", tmp_path, serial=True)
        try:
            traced = book.run_rep(session.rep)
        finally:
            session.close()
    finally:
        book.uninstall()
    assert RollupNode.run_round is original

    assert traced.digest == untraced.digest
    metrics = book.metrics()
    assert set(run.per_layer_values(metrics, extras)) == _declared("per_layer")
    assert 0.0 <= metrics["unattributed_share"] < 1.0
