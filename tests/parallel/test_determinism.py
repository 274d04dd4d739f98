"""Backend-independence of the experiment harnesses.

The fabric's determinism contract, asserted end-to-end: the fig6/fig7/
fig9 sweeps produce **byte-identical** JSON payloads whether they run
serially or on the fabric runner with 2 or 4 workers.  (fig11 is excluded
by design — it reports wall-clock timings, which no backend can make
reproducible; its solutions and profits are covered by the cheaper
parity checks in ``test_fabric``.)
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    run_defense_eval,
    run_fig6,
    run_fig7,
    run_fig9,
)
from repro.experiments.common import QUICK
from repro.experiments.runner import _dataclass_list
from repro.parallel import SerialRunner, StealingRunner, get_runner


def _payload(result) -> bytes:
    """Render a result the way ``run_all`` archives it."""
    return json.dumps(
        _dataclass_list(result), indent=2, default=str, sort_keys=True
    ).encode()


def _run_fig6(runner):
    return run_fig6(
        adversarial_fractions=(0.1, 0.5),
        mempool_sizes=(10,),
        ifu_counts=(1, 2),
        num_aggregators=4,
        preset=QUICK,
        seed=0,
        runner=runner,
    )


def _run_fig7(runner):
    return run_fig7(
        ifu_counts=(1,),
        mempool_sizes=(10, 25),
        fractions=(0.25, 0.5),
        num_aggregators=4,
        preset=QUICK,
        seed=0,
        runner=runner,
    )


def _run_fig9(runner):
    return run_fig9(
        mempool_sizes=(10,), ifu_counts=(1, 2), preset=QUICK, seed=0,
        runner=runner,
    )


def _run_defense(runner):
    return run_defense_eval(
        thresholds=(0.01, 0.3), rounds=2, preset=QUICK, seed=0,
        runner=runner,
    )


HARNESSES = {
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig9": _run_fig9,
    "defense": _run_defense,
}


@pytest.mark.parametrize("name", sorted(HARNESSES))
def test_json_byte_identical_across_jobs_1_2_4(name):
    harness = HARNESSES[name]
    reference = _payload(harness(SerialRunner()))
    for workers in (2, 4):
        with get_runner(workers) as runner:
            payload = _payload(harness(runner))
        assert payload == reference, (
            f"{name}: --jobs {workers} JSON differs from --jobs 1"
        )


def test_chunk_size_does_not_change_results():
    """Degenerate chunking (1 task per chunk) still matches serial."""
    reference = _payload(_run_fig6(SerialRunner()))
    with StealingRunner(max_workers=2, chunk_factor=10**6) as runner:
        assert _payload(_run_fig6(runner)) == reference


def test_cached_rerun_byte_identical_to_cold(tmp_path):
    """A warm, fully store-served run renders byte-identically.

    Extends the determinism contract to the result store: cache hits
    round-trip through the codec exactly, so the archived JSON payload
    of a 100%-hit rerun equals the cold run's byte for byte.
    """
    from repro.store import ResultStore

    cold_runner = SerialRunner(store=ResultStore(tmp_path / "cache"))
    reference = _payload(_run_fig9(cold_runner))
    assert cold_runner.store.stats.hits == 0

    warm_runner = SerialRunner(store=ResultStore(tmp_path / "cache"))
    warm = _payload(_run_fig9(warm_runner))
    assert warm == reference
    assert warm_runner.store.stats.misses == 0
    assert warm_runner.store.stats.hits > 0


def test_cached_process_run_matches_cached_serial(tmp_path):
    """The store composes with the fabric runner: workers warming the
    cache and a serial rerun reading it agree byte-for-byte."""
    from repro.store import ResultStore

    with get_runner(2, store=ResultStore(tmp_path / "cache")) as runner:
        reference = _payload(_run_fig9(runner))
    warm_runner = SerialRunner(store=ResultStore(tmp_path / "cache"))
    assert _payload(_run_fig9(warm_runner)) == reference
    assert warm_runner.store.stats.misses == 0
