"""Properties of every config the one deployment loop runs.

Stream lanes, matrix cells and chaos scenarios all drive a
:class:`~repro.faults.Deployment`.  For small valid configs with drawn
seeds each must run with zero invariant violations and account for every
transaction it accepted; a config with one field out of range must fail
at construction with a typed :class:`~repro.errors.ReproError`.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.faults import ChaosHarness, ChaosScenario
from repro.matrix import MatrixConfig, run_matrix
from repro.streaming import StreamConfig, StreamTrafficConfig, run_stream

SEEDS = st.integers(min_value=0, max_value=2**16)
#: Strategies that train no DQN (parole-reorder does), and the defenses
#: that run no guard probe (guarded does).
CHEAP_STRATEGIES = ("honest", "sandwich", "revert-spam", "optimistic-backrun")
CHEAP_DEFENSES = ("none", "fcfs", "fee-auction", "encrypted")
FAULT_PLANS = ("commit-failure", "mempool-stall", "aggregator-crash")


@st.composite
def stream_configs(draw):
    seed = draw(SEEDS)
    return StreamConfig(
        lanes=draw(st.integers(1, 2)),
        duration_batches=draw(st.integers(1, 4)),
        batch_size=draw(st.integers(1, 8)),
        submit_per_batch=draw(st.integers(1, 12)),
        shards=draw(st.integers(1, 3)),
        seed=seed,
        traffic=StreamTrafficConfig(num_users=40, seed=seed),
    )


@st.composite
def matrix_configs(draw):
    strategies = tuple(draw(st.lists(
        st.sampled_from(CHEAP_STRATEGIES), min_size=1, max_size=2,
        unique=True,
    )))
    return MatrixConfig(
        strategies=strategies,
        defenses=tuple(draw(st.lists(
            st.sampled_from(CHEAP_DEFENSES), min_size=1, max_size=2,
            unique=True,
        ))),
        fault_plans=tuple(draw(st.lists(
            st.sampled_from(FAULT_PLANS), max_size=2, unique=True,
        ))),
        fault_strategy=strategies[0],
        rounds=draw(st.integers(1, 3)),
        batch_size=draw(st.integers(1, 8)),
        submit_per_batch=draw(st.integers(1, 10)),
        shards=draw(st.integers(1, 2)),
        num_users=draw(st.integers(4, 24)),
        num_ifus=draw(st.integers(1, 2)),
        seed=draw(SEEDS),
    )


@st.composite
def chaos_scenarios(draw):
    aggregator_count = draw(st.integers(1, 3))
    return ChaosScenario(
        name="property",
        seed=draw(SEEDS),
        tx_count=draw(st.integers(4, 24)),
        num_users=draw(st.integers(4, 10)),
        rounds=draw(st.integers(1, 8)),
        block_interval=draw(st.sampled_from((0.5, 1.0, 2.0, 3.0))),
        collect_size=draw(st.integers(1, 8)),
        aggregator_count=aggregator_count,
        verifier_count=draw(st.integers(0, 2)),
        corrupt_every=draw(st.integers(0, 3)),
        flaky_every=draw(st.integers(0, 3)) if aggregator_count >= 2 else 0,
        base_drop_rate=draw(st.sampled_from((0.0, 0.05, 0.2))),
        crashes=draw(st.integers(0, 2)),
        partitions=draw(st.integers(0, 1)),
        commit_failures=draw(st.integers(0, 2)),
        drop_bursts=draw(st.integers(0, 1)),
        stalls=draw(st.integers(0, 1)),
    )


@settings(max_examples=8, deadline=None)
@given(config=stream_configs())
def test_valid_stream_runs_clean(config):
    report = run_stream(config)
    assert report.total_violations == ()
    for lane in report.lanes:
        assert lane.included + lane.pending == lane.submitted


@settings(max_examples=8, deadline=None)
@given(config=matrix_configs())
def test_valid_matrix_runs_clean(config):
    report = run_matrix(config)
    assert report.total_violations == ()
    assert len(report.cells) == len(config.cells())


@settings(max_examples=25, deadline=None)
@given(scenario=chaos_scenarios())
def test_valid_chaos_scenario_runs_clean(scenario):
    report = ChaosHarness(scenario).run()
    assert report.violations == ()
    assert report.included_txs + report.pending_txs == report.accepted_txs
    assert len(report.rounds) == scenario.rounds


NON_POSITIVE = st.integers(min_value=-5, max_value=0)
NEGATIVE = st.integers(min_value=-5, max_value=-1)
#: Per config family: valid configs, and out-of-range values per field.
OUT_OF_RANGE = {
    "stream": (stream_configs(), {
        "lanes": NON_POSITIVE,
        "duration_batches": NON_POSITIVE,
        "batch_size": NON_POSITIVE,
        "submit_per_batch": NON_POSITIVE,
        "shards": NON_POSITIVE,
    }),
    "matrix": (matrix_configs(), {
        "strategies": st.sampled_from(((), ("no-such-strategy",))),
        "defenses": st.sampled_from(((), ("no-such-defense",))),
        "fault_plans": st.just(("no-such-plan",)),
        "rounds": NON_POSITIVE,
        "batch_size": NON_POSITIVE,
        "submit_per_batch": NON_POSITIVE,
        "shards": NON_POSITIVE,
        "num_users": st.integers(min_value=-5, max_value=1),
    }),
    "chaos": (chaos_scenarios(), {
        "rounds": NON_POSITIVE,
        "block_interval": st.floats(max_value=0.0, allow_nan=False),
        "collect_size": NON_POSITIVE,
        "aggregator_count": NON_POSITIVE,
        "verifier_count": NEGATIVE,
        "base_drop_rate": st.sampled_from((-0.5, 1.0, 2.0)),
        "submission_spacing": st.floats(max_value=-0.01, allow_nan=False),
        "crashes": NEGATIVE,
        "partitions": NEGATIVE,
        "commit_failures": NEGATIVE,
        "drop_bursts": NEGATIVE,
        "stalls": NEGATIVE,
        "corrupt_every": NEGATIVE,
        "flaky_every": NEGATIVE,
    }),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_out_of_range_field_fails_at_construction(data):
    family = data.draw(st.sampled_from(sorted(OUT_OF_RANGE)))
    valid_configs, bad_values = OUT_OF_RANGE[family]
    valid = data.draw(valid_configs)
    field = data.draw(st.sampled_from(sorted(bad_values)))
    with pytest.raises(ReproError):
        dataclasses.replace(valid, **{field: data.draw(bad_values[field])})
