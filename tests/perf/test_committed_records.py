"""Every committed root ``BENCH_*.json`` is a sound bench record.

Headline performance numbers are quoted from these files, so each one
must load through :func:`read_record`, name the revision and machine
that measured it, explain every gate that could not arm, and carry no
armed gate that failed.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.perf import read_record

ROOT = pathlib.Path(__file__).resolve().parents[2]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_are_committed():
    assert RECORDS, f"no BENCH_*.json under {ROOT}"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
class TestCommittedRecord:
    def test_loads_under_its_own_name(self, path):
        record = read_record(path)
        assert path.name == f"BENCH_{record.bench_id}.json"

    def test_names_revision_and_machine(self, path):
        record = read_record(path)
        assert isinstance(record.git_rev, str) and record.git_rev
        assert record.env.get("cpu_count", 0) >= 1

    def test_unarmed_gates_give_a_reason(self, path):
        for gate in read_record(path).gates:
            assert gate.armed or gate.reason.strip(), gate.name

    def test_armed_gates_pass(self, path):
        failing = [
            gate.render()
            for gate in read_record(path).gates
            if gate.armed and gate.passed is not True
        ]
        assert not failing
