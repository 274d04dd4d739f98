"""Transaction-sequence encoding for the DQN (paper Figure 4).

Each transaction becomes an 8-element tensor: type one-hots, IFU
involvement flags, and state-dependent values (current token price,
remaining mintable supply) sampled from a dry-run replay at that
transaction's position.  Stacking the rows gives the 2D tensor the DQN
flattens into its ``8 x N`` input layer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config import TX_FEATURE_WIDTH
from ..rollup.ovm import OVM
from ..rollup.state import L2State
from ..rollup.transaction import NFTTransaction, TxKind


class TransactionEncoder:
    """Encodes transaction sequences into DQN observations.

    Normalisation constants come from the pre-state so encodings are
    comparable across candidate orderings of the same collection.
    ``transactions`` is that collection: :meth:`encode_columns` encodes
    its orderings by index.  :meth:`encode` and :meth:`encode_2d` take
    any sequence.
    """

    def __init__(
        self,
        pre_state: L2State,
        ifus: Sequence[str],
        transactions: Sequence[NFTTransaction] = (),
    ) -> None:
        self.pre_state = pre_state
        self.ifus = tuple(ifus)
        self._ovm = OVM()
        max_supply = pre_state.nft_config.max_supply
        # Price at one remaining token is the model's observable maximum.
        self._price_ceiling = pre_state.pricing.price(1)
        self._supply_ceiling = float(max_supply)
        self._fee_ceiling = 1.0
        # The collection's rows with the order-independent columns
        # filled: every ordering's rows are a gather of these.
        self._static = self._static_rows(transactions)

    @property
    def feature_width(self) -> int:
        """Features per transaction (always 8, Section V-C-2)."""
        return TX_FEATURE_WIDTH

    def observation_size(self, sequence_length: int) -> int:
        """Width of the flattened observation for ``sequence_length`` txs."""
        return TX_FEATURE_WIDTH * sequence_length

    def encode(self, transactions: Sequence[NFTTransaction]) -> np.ndarray:
        """Flattened ``8 x N`` observation for one candidate ordering."""
        return self.encode_2d(transactions).reshape(-1)

    def encode_columns(
        self,
        order: Sequence[int],
        prices_before: Sequence[float],
        remaining_after: Sequence[int],
    ) -> np.ndarray:
        """Flattened observation of an ordering of the collection.

        ``order`` indexes the constructor's ``transactions``.  The
        order-independent columns are gathered from the rows built at
        construction; the two state-dependent ones come from the
        replay engine's ``EvalSummary`` columns, so neither a second
        replay nor a per-transaction walk is needed.
        """
        rows = self._static.take(order, axis=0)
        self._fill_state_columns(rows, prices_before, remaining_after)
        return rows.reshape(-1)

    def encode_2d(self, transactions: Sequence[NFTTransaction]) -> np.ndarray:
        """The per-transaction feature matrix of shape ``(N, 8)``."""
        trace = self._ovm.replay(self.pre_state, transactions)
        rows = self._static_rows(transactions)
        self._fill_state_columns(
            rows,
            [step.result.price_before for step in trace.steps],
            [step.result.remaining_supply for step in trace.steps],
        )
        return rows

    def _static_rows(self, transactions: Sequence[NFTTransaction]) -> np.ndarray:
        """``(N, 8)`` rows with the order-independent columns filled.

        Type one-hots and IFU flags (columns 0-4), and the fee over the
        sequence's fee ceiling (column 7), which is the same for every
        permutation of the sequence.  Columns 5 and 6 are left zero.
        """
        count = len(transactions)
        rows = np.zeros((count, TX_FEATURE_WIDTH))
        for index, tx in enumerate(transactions):
            rows[index, :5] = (
                tx.kind is TxKind.MINT,
                tx.kind is TxKind.TRANSFER,
                tx.kind is TxKind.BURN,
                any(tx.involves(ifu) for ifu in self.ifus),
                tx.recipient in self.ifus
                or (tx.kind is TxKind.MINT and tx.sender in self.ifus),
            )
        fees = np.fromiter(
            (tx.total_fee for tx in transactions), dtype=float, count=count
        )
        fee_ceiling = (
            max(self._fee_ceiling, float(fees.max()))
            if count
            else self._fee_ceiling
        )
        rows[:, 7] = fees / fee_ceiling
        return rows

    def _fill_state_columns(
        self,
        rows: np.ndarray,
        prices_before: Sequence[float],
        remaining_after: Sequence[int],
    ) -> None:
        count = len(rows)
        rows[:, 5] = (
            np.fromiter(prices_before, dtype=float, count=count)
            / self._price_ceiling
        )
        rows[:, 6] = (
            np.fromiter(remaining_after, dtype=float, count=count)
            / self._supply_ceiling
        )


def encode_for_inference(
    pre_state: L2State,
    ifus: Sequence[str],
    transactions: Sequence[NFTTransaction],
) -> np.ndarray:
    """One-shot encoding helper for solver/DQN comparisons."""
    return TransactionEncoder(pre_state, ifus).encode(transactions)
