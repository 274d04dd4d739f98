"""Incremental replay acceleration for candidate-order scoring.

Every GENTRANSEQ step (Eq. 8) scores a candidate ordering by replaying it
through the OVM.  A from-scratch replay costs O(N) state transitions even
though a pairwise swap ``(i, j)`` only perturbs the suffix starting at
``min(i, j)`` — the prefix executes identically.  This module exploits
that:

* :class:`IncrementalOVM` keeps one working state (plain balance and
  inventory dicts plus O(1) supply/consistency counters) and a per-step
  **copy-on-write undo log**: before a step mutates a balance or
  inventory entry, the prior value (or its absence) is recorded.  A new
  order that shares a k-step prefix with the last one is evaluated by
  undoing the suffix back to position k and executing only the new
  suffix.  Undo restores the exact stored floats, so incremental replays
  are bit-identical to :meth:`~.ovm.OVM.replay` — a property test
  (``tests/rollup/test_replay_engine.py``) enforces this for both
  execution modes, with and without fee charging.  Indices outside the
  collection raise ``IndexError`` before any state changes.
* The per-step record is **columnar** (parallel lists of executed flags,
  validities, prices and remaining supplies) rather than per-step trace
  objects: the solver hot path (:meth:`IncrementalOVM.evaluate`) never
  allocates a ``TraceStep``/``StepResult``/``L2State``.  The
  object-shaped :meth:`IncrementalOVM.replay_order` materialises a full
  :class:`~.ovm.ReplayTrace` from the same columns for callers that want
  one.
* :class:`BatchReplayEngine` scores **K candidate orderings per call**
  (:meth:`~BatchReplayEngine.evaluate_many`) through the compiled C step
  loop (:mod:`.ckernel`) on columnar state — one balance and one
  inventory block per candidate, a per-candidate supply vector and
  executed/price/supply matrices — so population-style solvers amortise
  the Python interpreter over whole candidate sets.  Results are
  bit-identical to ``OVM.replay`` of each order (same IEEE-754
  operations in the same order; ``tests/rollup/test_batch_replay.py``
  enforces it).  Without the kernel the engine cannot be built, and
  ``ReorderEnv.evaluate_orders`` scores through :class:`IncrementalOVM`.
* :class:`PermutationCache` memoises full evaluations by order tuple —
  DQN ε-greedy rollouts, hill climbing and annealing revisit permutations
  constantly.  It is the **single authoritative evaluation cache**: the
  environment owns one instance consulted by both the serial and the
  batch path; neither engine keeps a second copy of a scored ordering.
* :class:`ReplayEngineStats` counts scratch/incremental replays, reused
  vs executed steps, batch-kernel calls/candidates and cache hits so
  callers (``solvers/profiling.py``, run manifests) can report how much
  replay work was avoided.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry import get_metrics, span
from ..tokens import TxValidity
from .ckernel import require_kernel
from .ovm import ReplayTrace, TraceStep
from .state import CountingInventory, ExecutionMode, L2State, StepResult
from .transaction import NFTTransaction, TxKind

#: Sentinel marking "key was absent before this step" in the undo log, so
#: undo deletes the entry instead of leaving a spurious zero behind
#: (state roots hash every entry, absent and zero-valued differ).
_MISSING = object()

#: One undo entry: (is_inventory, key, prior value or ``_MISSING``).
_UndoEntry = Tuple[bool, str, Any]


@dataclass
class ReplayEngineStats:
    """Counters describing how much replay work the engine avoided."""

    scratch_replays: int = 0
    incremental_replays: int = 0
    steps_executed: int = 0
    steps_reused: int = 0
    steps_undone: int = 0
    resume_depth_total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    batch_calls: int = 0
    batch_candidates: int = 0
    batch_steps: int = 0

    @property
    def replays(self) -> int:
        """Total replays served by the engine (cache hits excluded)."""
        return self.scratch_replays + self.incremental_replays + self.batch_candidates

    @property
    def mean_batch_size(self) -> float:
        """Average candidates per batch-kernel call."""
        if not self.batch_calls:
            return 0.0
        return self.batch_candidates / self.batch_calls

    @property
    def mean_resume_depth(self) -> float:
        """Average reused-prefix length of incremental replays."""
        if not self.incremental_replays:
            return 0.0
        return self.resume_depth_total / self.incremental_replays

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of evaluations answered from the permutation cache."""
        lookups = self.cache_hits + self.cache_misses
        if not lookups:
            return 0.0
        return self.cache_hits / lookups

    @property
    def step_reuse_fraction(self) -> float:
        """Fraction of replay steps served from cached prefixes."""
        total = self.steps_executed + self.steps_reused
        if not total:
            return 0.0
        return self.steps_reused / total

    def publish(self, prefix: str = "replay_engine") -> Dict[str, float]:
        """Mirror the counters into the active metrics registry.

        The engine's hot loop keeps these counters as plain ints (a
        registry instrument per step would be measurable); this method
        is the registry view of them — callers publish at natural
        boundaries (``ReorderEnv.replay_stats``, solver profiling, run
        manifests).  Values are cumulative, so they land as gauges.
        Returns the published dict for convenience.
        """
        values = self.as_dict()
        metrics = get_metrics()
        if metrics.enabled:
            for key, value in values.items():
                metrics.gauge(f"{prefix}.{key}").set(value)
        return values

    def as_dict(self) -> Dict[str, float]:
        """Flat numeric view for solver metadata / JSON artifacts."""
        return {
            "scratch_replays": float(self.scratch_replays),
            "incremental_replays": float(self.incremental_replays),
            "steps_executed": float(self.steps_executed),
            "steps_reused": float(self.steps_reused),
            "steps_undone": float(self.steps_undone),
            "mean_resume_depth": self.mean_resume_depth,
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "cache_evictions": float(self.cache_evictions),
            "cache_hit_rate": self.cache_hit_rate,
            "step_reuse_fraction": self.step_reuse_fraction,
            "batch_calls": float(self.batch_calls),
            "batch_candidates": float(self.batch_candidates),
            "batch_steps": float(self.batch_steps),
            "mean_batch_size": self.mean_batch_size,
        }


class EvalSummary:
    """Allocation-light result of scoring one candidate order.

    Everything the environment's Eq. 8 scoring and the Figure 4 encoding
    need, without materialising per-step trace objects: parallel
    ``executed`` / ``prices_before`` / ``remaining_after`` columns (one
    slot per position), the final price, the batch-end consistency flag
    and the final wealth of the engine's ``wealth_users``.  Columns are
    copies — they stay valid after the engine evaluates further orders.
    """

    __slots__ = (
        "order",
        "executed",
        "prices_before",
        "remaining_after",
        "final_price",
        "consistent",
        "executed_count",
        "wealth",
    )

    def __init__(
        self,
        order: Tuple[int, ...],
        executed: List[bool],
        prices_before: List[float],
        remaining_after: List[int],
        final_price: float,
        consistent: bool,
        executed_count: int,
        wealth: Dict[str, float],
    ) -> None:
        self.order = order
        self.executed = executed
        self.prices_before = prices_before
        self.remaining_after = remaining_after
        self.final_price = final_price
        self.consistent = consistent
        self.executed_count = executed_count
        self.wealth = wealth


class IncrementalOVM:
    """OVM replays over permutations of one fixed transaction collection.

    Bound to a pre-state and the N collected transactions;
    :meth:`evaluate` scores any index sequence into that collection,
    reusing the longest prefix shared with the previously evaluated
    order.  Behaviour (per-step results, final wealth, final state) is
    identical to ``OVM().replay`` on the materialised sequence — see
    :meth:`replay_order` for the trace-shaped view.
    """

    def __init__(
        self,
        pre_state: L2State,
        transactions: Sequence[NFTTransaction],
        mode: Optional[ExecutionMode] = None,
        stats: Optional[ReplayEngineStats] = None,
        wealth_users: Sequence[str] = (),
    ) -> None:
        self.pre_state = pre_state
        self.transactions = tuple(transactions)
        self.mode = mode
        self.stats = stats if stats is not None else ReplayEngineStats()
        #: Users whose *final* wealth :meth:`evaluate` reports (the
        #: environment passes its IFUs).
        self.wealth_users = tuple(wealth_users)
        self._mode = mode if mode is not None else pre_state.mode
        self._strict = self._mode is ExecutionMode.STRICT
        self._charge = pre_state.charge_fees
        self._max_supply = pre_state.nft_config.max_supply
        self._pricing = pre_state.pricing
        self._price_table = self._pricing.table()
        #: Per-transaction constants, pre-resolved so the hot loop does a
        #: single tuple unpack instead of four attribute reads.
        self._meta = tuple(
            (
                0 if tx.kind is TxKind.MINT else (1 if tx.kind is TxKind.TRANSFER else 2),
                tx.sender,
                tx.recipient,
                tx.total_fee,
            )
            for tx in self.transactions
        )
        self._balances: Optional[Dict[str, float]] = None
        self._inventory: Dict[str, int] = {}
        self._total = 0
        self._neg = 0
        #: Indices actually applied, kept exactly in sync with the
        #: columns below (even when a step raises mid-replay).
        self._order: List[int] = []
        self._c_exec: List[bool] = []
        self._c_validity: List[TxValidity] = []
        self._c_price: List[float] = []
        self._c_remaining: List[int] = []
        self._undos: List[Tuple[_UndoEntry, ...]] = []

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def evaluate(self, order: Sequence[int]) -> EvalSummary:
        """Score the permutation ``order`` on the allocation-light path.

        Resumes from the longest prefix shared with the previous
        evaluation and returns an :class:`EvalSummary` — no trace
        objects, no state snapshot.  This is the solver/DQN hot path.
        """
        order = tuple(order)
        self._advance(order)
        total = self._total
        table = self._price_table
        remaining = self._max_supply - total
        final_price = (
            table[remaining] if table is not None else self._pricing.price(remaining)
        )
        bget = self._balances.get
        iget = self._inventory.get
        executed = self._c_exec
        return EvalSummary(
            order=order,
            executed=executed[:],
            prices_before=self._c_price[:],
            remaining_after=self._c_remaining[:],
            final_price=final_price,
            consistent=self._neg == 0,
            executed_count=sum(executed),
            wealth={
                user: bget(user, 0.0) + iget(user, 0) * final_price
                for user in self.wealth_users
            },
        )

    def replay_order(self, order: Sequence[int]) -> ReplayTrace:
        """Replay ``order`` and materialise a full :class:`ReplayTrace`.

        Orders may be any length (prefix evaluation works); each index
        must be within the collection.  The returned trace owns an
        independent snapshot of the final state, so it stays valid after
        further evaluations.  Per-step results are bit-identical to
        ``OVM().replay`` on the materialised sequence.
        """
        order = tuple(order)
        self._advance(order)
        table = self._price_table
        price = self._pricing.price
        transactions = self.transactions
        steps: List[TraceStep] = []
        rows = zip(
            self._order, self._c_exec, self._c_validity, self._c_price, self._c_remaining
        )
        for position, (tx_index, executed, validity, before, remaining) in enumerate(rows):
            # Skipped steps leave the supply unchanged, so the price at
            # ``remaining`` equals ``before`` and this holds for both.
            after = table[remaining] if table is not None else price(remaining)
            steps.append(
                TraceStep(
                    index=position,
                    tx=transactions[tx_index],
                    result=StepResult(
                        executed=executed,
                        validity=validity,
                        price_before=before,
                        price_after=after,
                        remaining_supply=remaining,
                    ),
                    watched_wealth=(),
                )
            )
        return ReplayTrace(steps=steps, final_state=self._snapshot(), watched_users=())

    def reset(self) -> None:
        """Drop the cached working state; next replay starts from scratch."""
        self._balances = None
        self._inventory = {}
        self._total = 0
        self._neg = 0
        self._order = []
        self._c_exec = []
        self._c_validity = []
        self._c_price = []
        self._c_remaining = []
        self._undos = []

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _advance(self, order: Tuple[int, ...]) -> None:
        """Bring the working state to ``order`` (rewind + run suffix).

        The new suffix's indices are range-checked once, before anything
        changes (the shared prefix was checked when it was applied), so
        a rejected order leaves the engine exactly where it was.
        """
        fresh = self._balances is None
        prefix = 0 if fresh else self._common_prefix(order)
        if prefix < len(order):
            suffix = order[prefix:] if prefix else order
            if min(suffix) < 0 or max(suffix) >= len(self._meta):
                raise IndexError("order index outside the bound collection")
        if fresh:
            pre = self.pre_state
            self._balances = dict(pre.balances)
            self._inventory = dict(pre.inventory)
            self._total = sum(self._inventory.values())
            self._neg = sum(1 for held in self._inventory.values() if held < 0)
            self.stats.scratch_replays += 1
        else:
            self.stats.incremental_replays += 1
            self.stats.resume_depth_total += prefix
        self._rewind_to(prefix)
        self.stats.steps_reused += prefix
        if prefix < len(order):
            self._run_suffix(order, prefix)

    def _common_prefix(self, order: Tuple[int, ...]) -> int:
        current = self._order
        limit = min(len(current), len(order))
        prefix = 0
        while prefix < limit and current[prefix] == order[prefix]:
            prefix += 1
        return prefix

    def _rewind_to(self, prefix: int) -> None:
        applied = self._order
        if len(applied) <= prefix:
            return
        balances = self._balances
        inventory = self._inventory
        total = self._total
        neg = self._neg
        undos = self._undos
        c_exec, c_validity = self._c_exec, self._c_validity
        c_price, c_remaining = self._c_price, self._c_remaining
        undone = 0
        while len(applied) > prefix:
            applied.pop()
            c_exec.pop()
            c_validity.pop()
            c_price.pop()
            c_remaining.pop()
            for is_inventory, key, prior in reversed(undos.pop()):
                if is_inventory:
                    current = inventory[key]
                    total -= current
                    if current < 0:
                        neg -= 1
                    if prior is _MISSING:
                        del inventory[key]
                    else:
                        inventory[key] = prior
                        total += prior
                        if prior < 0:
                            neg += 1
                elif prior is _MISSING:
                    del balances[key]
                else:
                    balances[key] = prior
            undone += 1
        self._total = total
        self._neg = neg
        self.stats.steps_undone += undone

    def _run_suffix(self, order: Tuple[int, ...], start: int) -> None:
        """Execute ``order[start:]`` against the working state.

        The OVM transition (``L2State.check`` + ``L2State.apply``) is
        inlined over plain dicts: the per-step cost is what makes or
        breaks solver throughput, and attribute lookups, ``StepResult``
        allocation and the double validity check are all measurable at
        this call rate.  The differential property test keeps this loop
        honest against the readable reference implementation.

        If a step raises (a burn pushing global supply above max poisons
        Eq. 10, exactly as in a scratch replay), the failing step leaves
        no mutation behind and every column stays consistent, so the
        engine remains usable.
        """
        meta = self._meta
        balances = self._balances
        inventory = self._inventory
        total = self._total
        neg = self._neg
        max_supply = self._max_supply
        table = self._price_table
        price_of = self._pricing.price
        strict = self._strict
        charge = self._charge
        fee_pool = L2State.FEE_POOL
        missing = _MISSING
        bget = balances.get
        iget = inventory.get
        order_append = self._order.append
        exec_append = self._c_exec.append
        validity_append = self._c_validity.append
        price_append = self._c_price.append
        remaining_append = self._c_remaining.append
        undo_append = self._undos.append
        valid = TxValidity.VALID
        supply_exhausted = TxValidity.SUPPLY_EXHAUSTED
        insufficient = TxValidity.INSUFFICIENT_BALANCE
        not_owner = TxValidity.NOT_OWNER
        try:
            for position in range(start, len(order)):
                tx_index = order[position]
                kind, sender, recipient, fee = meta[tx_index]
                remaining = max_supply - total
                price = table[remaining] if table is not None else price_of(remaining)
                if kind == 0:  # MINT — Eq. 2
                    prior_bal = bget(sender, missing)
                    balance = 0.0 if prior_bal is missing else prior_bal
                    if remaining < 1:
                        validity = supply_exhausted
                    elif balance < price:
                        validity = insufficient
                    else:
                        validity = valid
                        balances[sender] = balance - price
                        prior_held = iget(sender, missing)
                        held = (0 if prior_held is missing else prior_held) + 1
                        inventory[sender] = held
                        total += 1
                        if prior_held is not missing and prior_held < 0:
                            neg -= 1
                        if held < 0:
                            neg += 1
                        undo = ((False, sender, prior_bal), (True, sender, prior_held))
                elif kind == 1:  # TRANSFER — Eq. 4
                    if strict and iget(sender, 0) < 1:
                        validity = not_owner
                    else:
                        prior_buyer = bget(recipient, missing)
                        buyer = 0.0 if prior_buyer is missing else prior_buyer
                        if buyer < price:
                            validity = insufficient
                        else:
                            validity = valid
                            balances[recipient] = buyer - price
                            prior_seller = bget(sender, missing)
                            balances[sender] = (
                                0.0 if prior_seller is missing else prior_seller
                            ) + price
                            prior_sold = iget(sender, missing)
                            sold = (0 if prior_sold is missing else prior_sold) - 1
                            inventory[sender] = sold
                            if prior_sold is not missing and prior_sold < 0:
                                neg -= 1
                            if sold < 0:
                                neg += 1
                            prior_bought = iget(recipient, missing)
                            bought = (0 if prior_bought is missing else prior_bought) + 1
                            inventory[recipient] = bought
                            if prior_bought is not missing and prior_bought < 0:
                                neg -= 1
                            if bought < 0:
                                neg += 1
                            undo = (
                                (False, recipient, prior_buyer),
                                (False, sender, prior_seller),
                                (True, sender, prior_sold),
                                (True, recipient, prior_bought),
                            )
                else:  # BURN — Eq. 6
                    if strict and iget(sender, 0) < 1:
                        validity = not_owner
                    else:
                        if total < 1:
                            # Burning past the global supply poisons the
                            # Eq. 10 price; raise the same TokenError a
                            # scratch replay's price read would, without
                            # committing the step.
                            price_of(max_supply - total + 1)
                        validity = valid
                        prior_burned = iget(sender, missing)
                        burned = (0 if prior_burned is missing else prior_burned) - 1
                        inventory[sender] = burned
                        total -= 1
                        if prior_burned is not missing and prior_burned < 0:
                            neg -= 1
                        if burned < 0:
                            neg += 1
                        undo = ((True, sender, prior_burned),)
                if validity is valid:
                    if charge:
                        prior_payer = bget(sender, missing)
                        balances[sender] = (
                            0.0 if prior_payer is missing else prior_payer
                        ) - fee
                        prior_pool = bget(fee_pool, missing)
                        balances[fee_pool] = (
                            0.0 if prior_pool is missing else prior_pool
                        ) + fee
                        undo += ((False, sender, prior_payer), (False, fee_pool, prior_pool))
                    remaining = max_supply - total
                    exec_append(True)
                    undo_append(undo)
                else:
                    exec_append(False)
                    undo_append(())
                validity_append(validity)
                price_append(price)
                remaining_append(remaining)
                order_append(tx_index)
        finally:
            self._total = total
            self._neg = neg
            self.stats.steps_executed += len(self._order) - start

    def _snapshot(self) -> L2State:
        """Independent :class:`L2State` view of the working state."""
        state = L2State.__new__(L2State)
        state.nft_config = self.pre_state.nft_config
        state.pricing = self._pricing
        state.balances = dict(self._balances)
        state.inventory = CountingInventory(self._inventory)
        state._price_memo = (None, 0.0)
        state.mode = self._mode
        state.charge_fees = self._charge
        return state


class BatchReplayEngine:
    """Columnar replay of K candidate orderings per call.

    Bound, like :class:`IncrementalOVM`, to one pre-state and one fixed
    transaction collection.  :meth:`evaluate_many` replays every
    candidate through the compiled C step loop (``_batch_replay.c``,
    loaded by :mod:`.ckernel`) on column-major state (cell
    ``candidate * rows + row`` — each candidate owns one contiguous
    state block):

    * ``balances``  — ``(K * rows,)`` float64;
    * ``inventory`` — ``(K * rows,)`` int64 with the same layout;
    * ``remaining`` — ``(K,)`` live supply counters (Eq. 10);
    * executed / price / remaining matrices — ``(L, K)``, one row per
      position, exactly the serial engine's per-step columns.

    The kernel's step is kind-agnostic: each transaction is pre-compiled
    to *payer / payee / inventory-increment / inventory-decrement / fee*
    row indices (dummy rows absorb the roles a kind doesn't have — the
    payer dummy holds ``+inf`` so "no payment required" never fails the
    balance check, the owner dummy keeps mints owner-valid, the sink row
    absorbs dead writes and is excluded from the consistency scan).

    Bit-identity with ``OVM.replay`` is a hard contract: the kernel is
    built with ``-ffp-contract=off`` so every FLOP stays a plain
    IEEE-754 double op, runs each candidate's steps in the OVM's exact
    operation order (including the buyer-write-before-seller-read
    sequencing that makes self-transfers exact), indexes the same Eq. 10
    price table, and a burn past the global supply raises the same
    ``TokenError`` a serial replay's price read would.
    ``tests/rollup/test_batch_replay.py`` enforces equivalence
    property-wise, reverting candidates included.

    Construction raises :class:`~repro.errors.KernelUnavailableError`
    when the kernel cannot load; ``ReorderEnv.evaluate_orders`` then
    scores every candidate through :class:`IncrementalOVM` instead.

    The engine is stateless between calls and keeps **no cache**: the
    environment's :class:`PermutationCache` is the single authority for
    memoised evaluations (see ``ReorderEnv.evaluate_orders``).
    """

    #: Inventory level granted to the owner-check dummy row so strict
    #: ownership checks always pass for kinds that have none (mints).
    _OWNER_OK = 1 << 30

    def __init__(
        self,
        pre_state: L2State,
        transactions: Sequence[NFTTransaction],
        mode: Optional[ExecutionMode] = None,
        stats: Optional[ReplayEngineStats] = None,
        wealth_users: Sequence[str] = (),
    ) -> None:
        self._ckernel = require_kernel()
        self.pre_state = pre_state
        self.transactions = tuple(transactions)
        self.stats = stats if stats is not None else ReplayEngineStats()
        self.wealth_users = tuple(wealth_users)
        self._mode = mode if mode is not None else pre_state.mode
        self._strict = self._mode is ExecutionMode.STRICT
        self._charge = pre_state.charge_fees
        self._max_supply = pre_state.nft_config.max_supply
        self._pricing = pre_state.pricing
        table = self._pricing.table()
        self._table = (
            np.asarray(table, dtype=np.float64) if table is not None else None
        )
        self._initial_price = pre_state.nft_config.initial_price_eth

        # ---- user-row layout ------------------------------------------- #
        # Real users first (balances, inventory, tx participants, wealth
        # users), then the three dummy rows the kind-agnostic step loop
        # scatters through.
        rows: Dict[str, int] = {}
        for user in pre_state.balances:
            rows.setdefault(user, len(rows))
        for user in pre_state.inventory:
            rows.setdefault(user, len(rows))
        for tx in self.transactions:
            rows.setdefault(tx.sender, len(rows))
            if tx.recipient is not None:
                rows.setdefault(tx.recipient, len(rows))
        rows.setdefault(L2State.FEE_POOL, len(rows))
        for user in self.wealth_users:
            rows.setdefault(user, len(rows))
        self._n_real = len(rows)
        self._pay_dummy = self._n_real        # +inf balance: payment always ok
        self._own_dummy = self._n_real + 1    # huge inventory: ownership always ok
        self._sink = self._n_real + 2         # absorbs dead writes, never read
        self._n_rows = self._n_real + 3
        self._pool_row = rows[L2State.FEE_POOL]
        self._wealth_rows = np.asarray(
            [rows[user] for user in self.wealth_users], dtype=np.intp
        )

        # ---- pre-state columns ----------------------------------------- #
        self._base_balances = np.zeros(self._n_rows, dtype=np.float64)
        for user, value in pre_state.balances.items():
            self._base_balances[rows[user]] = value
        self._base_balances[self._pay_dummy] = np.inf
        self._base_inventory = np.zeros(self._n_rows, dtype=np.int64)
        for user, held in pre_state.inventory.items():
            self._base_inventory[rows[user]] = held
        self._base_inventory[self._own_dummy] = self._OWNER_OK
        self._initial_total = int(sum(pre_state.inventory.values()))

        # ---- per-transaction role compilation -------------------------- #
        n = len(self.transactions)
        self._pay_row = np.empty(n, dtype=np.intp)   # debited by `price`
        self._recv_row = np.empty(n, dtype=np.intp)  # credited by `price`
        self._inc_row = np.empty(n, dtype=np.intp)   # inventory + 1
        self._dec_row = np.empty(n, dtype=np.intp)   # inventory - 1, ownership
        self._fee_row = np.empty(n, dtype=np.intp)   # debited by `total_fee`
        self._is_mint = np.zeros(n, dtype=bool)
        self._is_burn = np.zeros(n, dtype=bool)
        self._dsupply = np.zeros(n, dtype=np.int64)
        self._fees = np.empty(n, dtype=np.float64)
        for i, tx in enumerate(self.transactions):
            sender = rows[tx.sender]
            self._fee_row[i] = sender
            self._fees[i] = tx.total_fee
            if tx.kind is TxKind.MINT:
                self._is_mint[i] = True
                self._pay_row[i] = sender
                self._recv_row[i] = self._sink
                self._inc_row[i] = sender
                # Decrement the owner dummy rather than the sink: the
                # strict ownership check reads the dec row, and the
                # dummy's huge stock keeps mints owner-valid for any
                # batch horizon.
                self._dec_row[i] = self._own_dummy
                self._dsupply[i] = 1
            elif tx.kind is TxKind.TRANSFER:
                recipient = rows[tx.recipient]
                self._pay_row[i] = recipient
                self._recv_row[i] = sender
                self._inc_row[i] = recipient
                self._dec_row[i] = sender
            else:  # BURN
                self._is_burn[i] = True
                self._pay_row[i] = self._pay_dummy
                self._recv_row[i] = self._sink
                self._inc_row[i] = self._sink
                self._dec_row[i] = sender
                self._dsupply[i] = -1

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def evaluate_many(self, orders: Sequence[Sequence[int]]) -> List[EvalSummary]:
        """Score K candidate orderings in one columnar replay.

        Returns one :class:`EvalSummary` per input order, positionally,
        each bit-identical to ``IncrementalOVM.evaluate`` (and so to
        ``OVM.replay``) on the same order.  Orders of different lengths
        are grouped and replayed per length.  A candidate whose replay
        would raise (a burn past the global supply) raises the identical
        ``TokenError`` here — the whole call fails, exactly as a serial
        scoring loop would fail at that candidate.
        """
        keys = [tuple(order) for order in orders]
        if not keys:
            return []
        self.stats.batch_calls += 1
        self.stats.batch_candidates += len(keys)
        with span("replay.batch_kernel", k=len(keys)):
            by_length: Dict[int, List[int]] = {}
            for index, key in enumerate(keys):
                by_length.setdefault(len(key), []).append(index)
            results: List[Optional[EvalSummary]] = [None] * len(keys)
            for length, indices in by_length.items():
                for slot, summary in zip(
                    indices, self._replay([keys[i] for i in indices], length)
                ):
                    results[slot] = summary
            return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _prices(self, remaining: np.ndarray) -> np.ndarray:
        """Eq. 10 prices for a vector of remaining supplies.

        Table indexing when the supply is table-sized, else the closed
        form with the serial engine's exact operation order
        (``max_supply / max(S, 1) * P0``).
        """
        if self._table is not None:
            return self._table[remaining]
        return self._max_supply / np.maximum(remaining, 1) * self._initial_price

    def _replay(self, keys: List[Tuple[int, ...]], length: int) -> List[EvalSummary]:
        """Run one group of equal-length orders through the kernel."""
        k = len(keys)
        self.stats.batch_steps += length * k
        flat = np.fromiter(
            chain.from_iterable(keys), dtype=np.intp, count=k * length
        )
        if flat.size and (
            flat.min() < 0 or flat.max() >= len(self.transactions)
        ):
            raise IndexError("order index outside the bound collection")
        max_supply = self._max_supply
        bal = np.tile(self._base_balances, k)
        inv = np.tile(self._base_inventory, k)
        rem = np.full(k, max_supply - self._initial_total, dtype=np.int64)
        exec_mat = np.empty((length, k), dtype=np.uint8)
        price_mat = np.empty((length, k), dtype=np.float64)
        rem_mat = np.empty((length, k), dtype=np.int64)
        table = self._table
        bad = self._ckernel.parole_batch_replay(
            length,
            k,
            self._n_rows,
            flat.ctypes.data,
            self._pay_row.ctypes.data,
            self._recv_row.ctypes.data,
            self._dec_row.ctypes.data,
            self._inc_row.ctypes.data,
            self._fee_row.ctypes.data,
            self._dsupply.ctypes.data,
            self._fees.ctypes.data,
            self._is_mint.ctypes.data,
            self._is_burn.ctypes.data,
            table.ctypes.data if table is not None else None,
            float(max_supply),
            self._initial_price,
            max_supply,
            int(self._strict),
            int(self._charge),
            self._pool_row,
            bal.ctypes.data,
            inv.ctypes.data,
            rem.ctypes.data,
            exec_mat.ctypes.data,
            price_mat.ctypes.data,
            rem_mat.ctypes.data,
        )
        if bad >= 0:
            # Identical failure to the serial engine: the Eq. 10 read one
            # past max supply raises TokenError (`rem[bad]` still holds
            # the poisoned candidate's pre-step remaining supply).
            dead = max_supply - int(rem[bad])
            self._pricing.price(max_supply - dead + 1)
        return self._summarise(
            keys, exec_mat.view(bool), price_mat, rem_mat, bal, inv, rem
        )

    def _summarise(
        self,
        keys: List[Tuple[int, ...]],
        exec_mat: np.ndarray,
        price_mat: np.ndarray,
        rem_mat: np.ndarray,
        bal: np.ndarray,
        inv: np.ndarray,
        rem: np.ndarray,
    ) -> List[EvalSummary]:
        """One :class:`EvalSummary` per candidate from the kernel outputs."""
        k = len(keys)
        final_price = self._prices(rem)
        bal_mat = bal.reshape(k, self._n_rows)
        inv_mat = inv.reshape(k, self._n_rows)
        consistent = (~(inv_mat[:, : self._n_real] < 0).any(axis=1)).tolist()
        executed_counts = exec_mat.sum(axis=0).tolist()
        wealth_cols = (
            bal_mat[:, self._wealth_rows]
            + inv_mat[:, self._wealth_rows] * final_price[:, None]
        ).tolist()
        exec_cols = exec_mat.T.tolist()
        price_cols = price_mat.T.tolist()
        rem_cols = rem_mat.T.tolist()
        final_prices = final_price.tolist()
        users = self.wealth_users
        summaries = []
        for col, key in enumerate(keys):
            summaries.append(
                EvalSummary(
                    order=key,
                    executed=exec_cols[col],
                    prices_before=price_cols[col],
                    remaining_after=rem_cols[col],
                    final_price=final_prices[col],
                    consistent=consistent[col],
                    executed_count=executed_counts[col],
                    wealth=dict(zip(users, wealth_cols[col])),
                )
            )
        return summaries


class PermutationCache:
    """LRU cache of order-tuple evaluations (hit/miss/eviction counted)."""

    def __init__(
        self,
        maxsize: int = 4096,
        stats: Optional[ReplayEngineStats] = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = maxsize
        self.stats = stats if stats is not None else ReplayEngineStats()
        self._entries: "OrderedDict[Tuple[int, ...], Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Sequence[int]) -> bool:
        return tuple(key) in self._entries

    def get(self, key: Sequence[int]) -> Optional[Any]:
        """Cached value for ``key`` (marks it most-recently used)."""
        key = tuple(key)
        value = self._entries.get(key)
        if value is None:
            self.stats.cache_misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.cache_hits += 1
        return value

    def put(self, key: Sequence[int], value: Any) -> None:
        """Insert without counting a hit or miss (seeding included)."""
        key = tuple(key)
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.cache_evictions += 1

    def clear(self) -> None:
        self._entries.clear()
