"""Pinned digests of the full outputs of the three deployment configs.

Chaos scenarios, stream lanes and matrix cells each drive a rollup
deployment round by round.  These pins hold their canonical JSON byte
for byte, so a refactor of the round loop that changes any ordering,
sweep or accounting decision fails here first.  The digests do not
depend on the BLAS kernel: they read the same with
``OPENBLAS_CORETYPE`` set to Haswell, Sandybridge and Prescott.
"""

import hashlib

import pytest

from repro.faults import DEFAULT_MATRIX, ChaosHarness
from repro.matrix import matrix_config_for, run_matrix
from repro.streaming import StreamConfig, run_stream

CHAOS_PINS = {
    "crash-restart":
        "64b5644f2c50862e242e204bcbb0cfa74e4acf6f8fd9b0ab16532f69b2788e17",
    "partitions-drops":
        "0118c986cd75ff4a7d0a9b71ee8317e65d0e1efc47bf3b87333578e3a2dde2a9",
    "commit-failures":
        "8ea31dea487f90abd21c2f9da57e5365d072aa9ec7f28efe1f35f6910cb658d8",
    "mixed":
        "e8e9d6b91a7fdde3d52fea761638ffa19b819319a76e58f984e48266b6941daf",
}
STREAM_PIN = "7c2c54e753c95fdb002bf12f6379aa9650e5d60ef686503d03bd4240abe30d7c"
MATRIX_PIN = "cb712ffe6cfe29e4f9f51c8a3c0a75a1efd8b13bbb5b41619273119db5bc9521"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "scenario", DEFAULT_MATRIX, ids=[s.name for s in DEFAULT_MATRIX]
)
def test_chaos_reports_are_pinned(scenario):
    report = ChaosHarness(scenario).run()
    assert _sha256(report.to_json()) == CHAOS_PINS[scenario.name]


def test_stream_report_is_pinned():
    report = run_stream(StreamConfig(lanes=2, duration_batches=12, seed=0))
    assert _sha256(report.deterministic_json()) == STREAM_PIN


def test_matrix_report_is_pinned():
    report = run_matrix(matrix_config_for("quick", seed=0))
    assert _sha256(report.deterministic_json()) == MATRIX_PIN
