"""The honest strategy under every defense is a plain rollup.

A matrix cell hosts its strategy in a ``DefendedAggregator`` over the
sharded streaming mempool.  With the honest strategy there is nothing
to defend against, so every defense that keeps the mempool's fee order
must commit exactly what a plain ``RollupNode`` with a plain
``Aggregator`` over its default mempool commits for the same traffic:
the same batches in the same order, the same final state root, no
detections and no attack lift.  FCFS is the one defense that reorders
an honest batch: it must commit each batch in arrival order.
"""

import pytest

from repro.config import RollupConfig
from repro.crypto import hash_value
from repro.matrix import MatrixConfig, run_matrix
from repro.rollup import Aggregator, RollupNode, Verifier
from repro.rollup.state import ExecutionMode
from repro.streaming import TrafficGenerator


def _plain_rollup(config: MatrixConfig):
    """Final state root and committed batches of a plain deployment."""
    traffic = TrafficGenerator(config.traffic_config(), seed=config.seed)
    state = traffic.pre_state.copy()
    state.mode = ExecutionMode.STRICT
    node = RollupNode(
        l2_state=state,
        config=RollupConfig(
            aggregator_mempool_size=config.batch_size,
            challenge_period_blocks=2,
        ),
    )
    node.add_aggregator(Aggregator("plain-agg"))
    node.add_verifier(Verifier("plain-ver"))
    batches = []
    for _ in range(config.rounds):
        for tx in traffic.next_batch(config.submit_per_batch):
            node.submit(tx)
        report = node.run_round(config.batch_size)
        batches.extend(result.batch.transactions for result in report.results)
        node.finalize_ready_batches()
    return node.current_state_root(), batches


def _order_digest(batches) -> str:
    return hash_value([[tx.tx_hash for tx in batch] for batch in batches])


@pytest.mark.parametrize("seed", [0, 1])
def test_honest_cells_match_a_plain_rollup(seed):
    config = MatrixConfig(strategies=("honest",), fault_plans=(), seed=seed)
    report = run_matrix(config)
    root, batches = _plain_rollup(config)
    fee_order = _order_digest(batches)
    arrival_order = _order_digest(
        sorted(batch, key=lambda tx: (tx.submitted_at, tx.nonce))
        for batch in batches
    )
    # Otherwise the FCFS check below could not tell the two apart.
    assert arrival_order != fee_order

    cells = {cell.defense: cell for cell in report.cells}
    assert set(cells) == {"none", "fcfs", "fee-auction", "encrypted", "guarded"}
    for defense, cell in cells.items():
        assert cell.batches == len(batches) == config.rounds, defense
        assert cell.violations == (), defense
        assert cell.detections == 0, defense
        assert cell.attack_lift_eth == 0.0, defense
        if defense == "fcfs":
            assert cell.order_digest == arrival_order
        else:
            assert cell.order_digest == fee_order, defense
            assert cell.state_root == root, defense
