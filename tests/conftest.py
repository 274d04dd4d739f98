"""Shared fixtures for the PAROLE reproduction test suite."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.config import GenTranSeqConfig, NFTContractConfig, WorkloadConfig
from repro.rollup.ckernel import kernel_backend
from repro.rollup.state import ExecutionMode, L2State
from repro.workloads import case_study_fixture, generate_workload


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for test reproducibility."""
    return np.random.default_rng(12345)


@pytest.fixture
def case_workload():
    """The exact Section VI case-study fixture."""
    return case_study_fixture()


@pytest.fixture
def small_workload():
    """A small generated workload (10 txs, 1 IFU)."""
    return generate_workload(
        WorkloadConfig(
            mempool_size=10, num_users=8, num_ifus=1,
            min_ifu_involvement=3, seed=42,
        )
    )


@pytest.fixture
def traced_ballast():
    """An enclosing ``tracemalloc`` trace that holds 8 MiB live; yields
    the ballast size in bytes."""
    tracemalloc.start()
    ballast = bytearray(8 * 1024 * 1024)
    try:
        yield len(ballast)
    finally:
        del ballast
        tracemalloc.stop()


@pytest.fixture
def tiny_config() -> GenTranSeqConfig:
    """Minimal DQN budget for fast training tests."""
    return GenTranSeqConfig(episodes=3, steps_per_episode=15, seed=0)


@pytest.fixture
def pt_config() -> NFTContractConfig:
    """The PAROLE Token contract parameters (Section VI-A)."""
    return NFTContractConfig(
        symbol="PT", name="ParoleToken", max_supply=10, initial_price_eth=0.2
    )


@pytest.fixture
def basic_state(pt_config) -> L2State:
    """A small L2 state: two funded users, two pre-minted tokens."""
    return L2State(
        nft_config=pt_config,
        balances={"alice": 2.0, "bob": 2.0},
        inventory={"alice": 1, "bob": 1},
        mode=ExecutionMode.BATCH,
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "kernel: needs the compiled batch replay kernel; skipped only when "
        "kernel_backend() != 'c'",
    )


def pytest_collection_modifyitems(config, items):
    """Skip ``@pytest.mark.kernel`` tests on hosts where the kernel cannot load."""
    marked = [item for item in items if item.get_closest_marker("kernel")]
    if marked and kernel_backend() != "c":
        skip = pytest.mark.skip(reason="batch replay C kernel unavailable")
        for item in marked:
            item.add_marker(skip)
