"""Index-gathered ``encode_columns`` against per-transaction rows, by bytes.

``per_transaction_rows`` is the encoding as it was before the encoder
gathered its order-independent columns by index: every transaction of
every ordering was encoded on its own.  Both must agree bit for bit on
random permutations, with fee ceilings below and above 1.0 and with
zero-fee transactions; ``encode`` and ``encode_2d``, which replay the
ordering themselves, must agree with both.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import WorkloadConfig
from repro.core import ReorderEnv, TransactionEncoder
from repro.rollup.ovm import OVM
from repro.rollup.transaction import TxKind
from repro.workloads import case_study_fixture, generate_workload


def per_transaction_rows(pre_state, ifus, transactions, prices_before,
                         remaining_after):
    count = len(transactions)
    fees = np.fromiter(
        (tx.total_fee for tx in transactions), dtype=float, count=count
    )
    fee_ceiling = max(1.0, float(fees.max())) if count else 1.0
    rows = np.empty((count, 8))
    for index, tx in enumerate(transactions):
        ifu_involved = any(tx.involves(ifu) for ifu in ifus)
        ifu_gains = tx.recipient in ifus or (
            tx.kind is TxKind.MINT and tx.sender in ifus
        )
        rows[index, :5] = np.array((
            1.0 if tx.kind is TxKind.MINT else 0.0,
            1.0 if tx.kind is TxKind.TRANSFER else 0.0,
            1.0 if tx.kind is TxKind.BURN else 0.0,
            1.0 if ifu_involved else 0.0,
            1.0 if ifu_gains else 0.0,
        ))
    rows[:, 5] = (
        np.fromiter(prices_before, dtype=float, count=count)
        / pre_state.pricing.price(1)
    )
    rows[:, 6] = (
        np.fromiter(remaining_after, dtype=float, count=count)
        / float(pre_state.nft_config.max_supply)
    )
    rows[:, 7] = fees / fee_ceiling
    return rows


def scaled_fees(transactions, factor):
    return tuple(
        dataclasses.replace(
            tx, base_fee=tx.base_fee * factor, priority_fee=tx.priority_fee * factor
        )
        for tx in transactions
    )


def zero_fees(transactions, every):
    return tuple(
        dataclasses.replace(tx, base_fee=0.0, priority_fee=0.0)
        if index % every == 0 else tx
        for index, tx in enumerate(transactions)
    )


def workloads():
    case = case_study_fixture()
    generated = generate_workload(WorkloadConfig(
        mempool_size=12, num_users=8, num_ifus=2, seed=3,
    ))
    for name, workload in (("case", case), ("generated", generated)):
        txs = tuple(workload.transactions)
        variants = {
            "fees-above-1": txs,
            "fees-below-1": scaled_fees(txs, 0.1),
            "some-zero-fees": zero_fees(txs, 3),
            "all-zero-fees": zero_fees(txs, 1),
        }
        for variant, transactions in variants.items():
            yield pytest.param(
                workload.pre_state, tuple(workload.ifus), transactions,
                id=f"{name}-{variant}",
            )


@pytest.mark.parametrize("pre_state, ifus, transactions", workloads())
def test_gathered_rows_match_per_transaction_rows(pre_state, ifus, transactions):
    encoder = TransactionEncoder(pre_state, ifus, transactions)
    data = np.random.default_rng(11)
    orders = [list(range(len(transactions)))]
    orders += [data.permutation(len(transactions)).tolist() for _ in range(8)]
    for order in orders:
        sequence = [transactions[i] for i in order]
        trace = OVM().replay(pre_state, sequence)
        prices = [step.result.price_before for step in trace.steps]
        remaining = [step.result.remaining_supply for step in trace.steps]
        gathered = encoder.encode_columns(order, prices, remaining)
        expected = per_transaction_rows(
            pre_state, ifus, sequence, prices, remaining
        ).reshape(-1)
        assert gathered.tobytes() == expected.tobytes()
        assert encoder.encode(sequence).tobytes() == expected.tobytes()
        assert encoder.encode_2d(sequence).tobytes() == expected.tobytes()


def test_environment_observations_match_per_transaction_rows():
    workload = generate_workload(WorkloadConfig(
        mempool_size=10, num_users=8, num_ifus=1, seed=42,
    ))
    env = ReorderEnv(workload.pre_state, workload.transactions, workload.ifus)
    encoder = TransactionEncoder(workload.pre_state, workload.ifus)
    data = np.random.default_rng(5)
    observation = env.reset()
    for _ in range(20):
        assert observation.tobytes() == encoder.encode(
            env.current_sequence()
        ).tobytes()
        observation, *_ = env.step(int(data.integers(env.action_count)))
