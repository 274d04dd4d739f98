"""Replay acceleration for candidate-order scoring.

Every GENTRANSEQ step (Eq. 8) scores a candidate ordering by replaying it
through the OVM.  A from-scratch replay costs O(N) state transitions even
though a pairwise swap ``(i, j)`` only perturbs the suffix starting at
``min(i, j)`` — the prefix executes identically.  Both engines here run
the compiled step of ``_batch_replay.c`` (loaded by :mod:`.ckernel`)
over the same role tables (:class:`_RoleTables`):

* :class:`IncrementalOVM` scores **one ordering per call** through the
  kernel's prefix-resume entry point: the kernel keeps one working state
  and a per-position undo record, rewinds to the prefix the new order
  shares with the previous one and executes only the new suffix.  The
  per-step record is **columnar** (executed flags, prices, remaining
  supplies), so the solver hot path never allocates a
  ``TraceStep``/``StepResult``/``L2State``.  Indices outside the
  collection raise ``IndexError`` before any state changes.  Without the
  kernel, each ordering is scored by a from-scratch ``OVM.replay`` — the
  oracle itself.
* :class:`BatchReplayEngine` scores **K candidate orderings per call**
  (:meth:`~BatchReplayEngine.evaluate_many`) through the kernel's
  lockstep entry point on columnar state — one balance and one inventory
  block per candidate, a per-candidate supply vector and
  executed/price/supply matrices — so population-style solvers amortise
  the Python interpreter over whole candidate sets.  Without the kernel
  the engine cannot be built, and ``ReorderEnv.evaluate_orders`` scores
  through :class:`IncrementalOVM`.

Both are bit-identical to :meth:`~.ovm.OVM.replay` of each order (same
IEEE-754 operations in the same order); ``tests/rollup/test_replay_engine.py``
and ``tests/rollup/test_batch_replay.py`` enforce it in both execution
modes, with and without fee charging.

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

import ctypes
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry import get_metrics, span
from ..tokens import ScarcityPricing
from .ckernel import Cursor, Tables, load_kernel, require_kernel
from .ovm import OVM
from .state import ExecutionMode, L2State
from .transaction import NFTTransaction, TxKind


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


@lru_cache(maxsize=8)
def _price_table(
    max_supply: int, initial_price_eth: float
) -> Tuple[Optional[np.ndarray], Optional[int]]:
    """The Eq. 10 price table as float64 and its address, or ``None``s
    above the table limit.

    Built once per distinct ``(max_supply, initial_price_eth)`` and shared
    (read-only) by every engine over such a collection; keying on the
    values keeps the cache bounded however many states are built.
    """
    table = ScarcityPricing(max_supply, initial_price_eth).table()
    if table is None:
        return None, None
    prices = np.array(table, dtype=np.float64)
    prices.flags.writeable = False
    return prices, prices.ctypes.data


def _address(buffer: array) -> int:
    return buffer.buffer_info()[0]


class _RoleTables:
    """One pre-state and transaction collection, compiled for the kernel.

    Rows are laid out only for the users a replay can touch or report —
    transaction participants, the fee pool and the wealth users — then
    three dummy rows the kind-agnostic step scatters through: the payer
    dummy holds ``+inf`` so "no payment required" never fails the balance
    check, the owner dummy keeps mints owner-valid under strict checks,
    and the sink absorbs dead writes.  Every other user's inventory never
    changes during a replay, so a negative one among them is folded into
    :attr:`negative_elsewhere`.

    Each transaction compiles to one row of :attr:`roles`: the rows it
    debits by the price (payer), credits by it (payee), takes a token
    from (also the strict ownership row) and gives one to, the row its
    fee is charged to, its supply delta and its mint/burn flags.  Engines
    are built on every environment's hot path, so the tables are plain
    :class:`array.array` buffers, which hand the kernel their addresses
    for free.
    """

    #: Inventory level granted to the owner-check dummy row so strict
    #: ownership checks always pass for kinds that have none (mints).
    OWNER_OK = 1 << 30

    def __init__(
        self,
        pre_state: L2State,
        transactions: Sequence[NFTTransaction],
        mode: Optional[ExecutionMode],
        wealth_users: Sequence[str],
    ) -> None:
        rows: Dict[str, int] = {}
        for tx in transactions:
            rows.setdefault(tx.sender, len(rows))
            if tx.recipient is not None:
                rows.setdefault(tx.recipient, len(rows))
        rows.setdefault(L2State.FEE_POOL, len(rows))
        for user in wealth_users:
            rows.setdefault(user, len(rows))
        self.n_real = len(rows)
        pay_dummy = self.n_real
        own_dummy = self.n_real + 1
        sink = self.n_real + 2
        self.n_rows = self.n_real + 3

        balances, inventory = pre_state.balances, pre_state.inventory
        held = [inventory.get(user, 0) for user in rows]
        self.base_balances = array(
            "d", [balances.get(user, 0.0) for user in rows]
        )
        self.base_balances.extend((np.inf, 0.0, 0.0))
        self.base_inventory = array("q", held)
        self.base_inventory.extend((0, self.OWNER_OK, 0))
        self.negative_elsewhere = inventory.negative_count > sum(
            1 for count in held if count < 0
        )
        config = pre_state.nft_config
        self.max_supply = config.max_supply
        #: Remaining supply of the pre-state (Eq. 10's ``S``).
        self.remaining = config.max_supply - pre_state.minted_count
        self.pool_row = rows[L2State.FEE_POOL]
        self.wealth_rows = array("q", [rows[user] for user in wealth_users])

        roles: List[int] = []
        for tx in transactions:
            sender = rows[tx.sender]
            kind = tx.kind
            if kind is TxKind.MINT:
                # Decrement the owner dummy rather than the sink: the
                # strict ownership check reads that row.
                roles += (sender, sink, own_dummy, sender, sender, 1, 1, 0)
            elif kind is TxKind.TRANSFER:
                recipient = rows[tx.recipient]
                roles += (recipient, sender, sender, recipient, sender, 0, 0, 0)
            else:  # BURN
                roles += (pay_dummy, sink, sender, sink, sender, -1, 0, 1)
        self.roles = array("q", roles)
        self.fees = array("d", [tx.total_fee for tx in transactions])
        self.table, table_address = _price_table(
            config.max_supply, config.initial_price_eth
        )
        mode = mode if mode is not None else pre_state.mode
        self.struct = Tables(
            roles=_address(self.roles),
            fees=_address(self.fees),
            table=table_address,
            initial_price=config.initial_price_eth,
            max_supply=config.max_supply,
            strict=int(mode is ExecutionMode.STRICT),
            charge=int(pre_state.charge_fees),
            pool_row=self.pool_row,
            n_tx=len(transactions),
            n_rows=self.n_rows,
            n_real=self.n_real,
        )
        self.address = ctypes.addressof(self.struct)


class IncrementalOVM:
    """OVM replays over permutations of one fixed transaction collection.

    Bound to a pre-state and the N collected transactions;
    :meth:`evaluate` scores any index sequence into that collection —
    any length, repeats allowed — resuming from the longest prefix
    shared with the previously evaluated order.  Results are identical
    to ``OVM(mode).replay`` on the materialised sequence.
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
        self._fresh = True
        kernel = load_kernel()
        self._cursor: Optional[Cursor] = None
        if kernel is None:
            return
        self._resume = kernel.parole_resume
        self._tables = tables = _RoleTables(
            pre_state, self.transactions, mode, self.wealth_users
        )
        self._bal = array("d", tables.base_balances)
        self._inv = array("q", tables.base_inventory)
        self._wealth = array("d", bytes(8 * len(self.wealth_users)))
        self._cursor = Cursor(
            bal=_address(self._bal),
            inv=_address(self._inv),
            rem0=tables.remaining,
            rem=tables.remaining,
            wealth_rows=_address(tables.wealth_rows),
            n_wealth=len(self.wealth_users),
            wealth=_address(self._wealth),
        )
        self._cursor_address = ctypes.addressof(self._cursor)
        self._capacity = 0
        self._allocate(max(len(self.transactions), 1))

    def evaluate(self, order: Sequence[int]) -> EvalSummary:
        """Score the permutation ``order`` on the allocation-light path.

        Resumes from the longest prefix shared with the previous
        evaluation and returns an :class:`EvalSummary` — no trace
        objects, no state snapshot.  This is the solver/DQN hot path.
        A burn past the global supply raises the ``TokenError`` of
        ``OVM.replay``; the engine stays at the valid prefix before it.
        """
        order = tuple(order)
        cursor = self._cursor
        if cursor is None:
            return self._replay(order)
        length = len(order)
        if length > self._capacity:
            self._allocate(length)
        indices = array("q", order)  # alive until the call returns
        status = self._resume(
            self._tables.address, self._cursor_address, _address(indices), length
        )
        if status == -2:
            raise IndexError("order index outside the bound collection")
        self._count(cursor.prefix, cursor.undone, cursor.executed)
        if status >= 0:
            # The Eq. 10 read one past max supply: OVM.replay's TokenError.
            self.pre_state.pricing.price(cursor.rem + 1)
        return EvalSummary(
            order=order,
            executed=self._exec[:length].tolist(),
            prices_before=self._price[:length].tolist(),
            remaining_after=self._rem_after[:length].tolist(),
            final_price=cursor.final_price,
            consistent=bool(cursor.consistent)
            and not self._tables.negative_elsewhere,
            executed_count=cursor.executed_count,
            wealth=dict(zip(self.wealth_users, self._wealth.tolist())),
        )

    def _count(self, prefix: int, undone: int, executed: int) -> None:
        """Record one replay: the first starts from the pre-state, every
        later one resumes at ``prefix`` (0 when nothing is shared)."""
        stats = self.stats
        if self._fresh:
            self._fresh = False
            stats.scratch_replays += 1
        else:
            stats.incremental_replays += 1
            stats.resume_depth_total += prefix
        stats.steps_reused += prefix
        stats.steps_undone += undone
        stats.steps_executed += executed

    def _allocate(self, capacity: int) -> None:
        """(Re)size the per-position buffers, keeping the applied prefix.

        ``_exec``, ``_price`` and ``_rem_after`` are memoryviews (bool,
        float64, int64) whose slices list the summary columns.
        """
        cursor = self._cursor
        kept = cursor.length
        buffers = {}
        for name, code, size in (
            ("order", "q", 8),
            ("exec", "B", 1),
            ("price", "d", 8),
            ("rem_after", "q", 8),
            ("undo", "d", 32),  # four prior balance cells per position
        ):
            fresh = array(code, bytes(capacity * size))
            if self._capacity:
                used = kept * size // fresh.itemsize
                fresh[:used] = self._buffers[name][:used]
            buffers[name] = fresh
            setattr(cursor, name, _address(fresh))
        self._buffers = buffers
        self._exec = memoryview(buffers["exec"]).cast("?")
        self._price = memoryview(buffers["price"])
        self._rem_after = memoryview(buffers["rem_after"])
        self._capacity = capacity

    def _replay(self, order: Tuple[int, ...]) -> EvalSummary:
        """The summary of ``order`` from a from-scratch ``OVM.replay``.

        Counted as the kernel path counts a replay that shares no prefix.
        """
        if order and (min(order) < 0 or max(order) >= len(self.transactions)):
            raise IndexError("order index outside the bound collection")
        trace = OVM(self.mode).replay(
            self.pre_state, [self.transactions[i] for i in order]
        )
        self._count(0, 0, len(order))
        final = trace.final_state
        return EvalSummary(
            order=order,
            executed=[step.executed for step in trace.steps],
            prices_before=[step.result.price_before for step in trace.steps],
            remaining_after=[
                step.result.remaining_supply for step in trace.steps
            ],
            final_price=final.unit_price,
            consistent=trace.consistent(),
            executed_count=trace.executed_count,
            wealth={user: final.wealth(user) for user in self.wealth_users},
        )


class BatchReplayEngine:
    """Columnar replay of K candidate orderings per call.

    Bound, like :class:`IncrementalOVM`, to one pre-state and one fixed
    transaction collection, compiled to the same :class:`_RoleTables`.
    :meth:`evaluate_many` replays every candidate through the kernel's
    lockstep entry point on column-major state (cell
    ``candidate * rows + row`` — each candidate owns one contiguous
    state block):

    * ``balances``  — ``(K * rows,)`` float64;
    * ``inventory`` — ``(K * rows,)`` int64 with the same layout;
    * ``remaining`` — ``(K,)`` live supply counters (Eq. 10);
    * executed / price / remaining matrices — ``(L, K)``, one row per
      position, exactly the serial engine's per-step columns.

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
        self._tables = _RoleTables(
            pre_state, self.transactions, mode, self.wealth_users
        )

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
        form with the kernel's exact operation order
        (``max_supply / max(S, 1) * P0``).
        """
        tables = self._tables
        if tables.table is not None:
            return tables.table[remaining]
        return (
            tables.max_supply
            / np.maximum(remaining, 1)
            * self.pre_state.nft_config.initial_price_eth
        )

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
        tables = self._tables
        bal = np.tile(tables.base_balances, k)
        inv = np.tile(tables.base_inventory, k)
        rem = np.full(k, tables.remaining, dtype=np.int64)
        exec_mat = np.empty((length, k), dtype=np.bool_)
        price_mat = np.empty((length, k), dtype=np.float64)
        rem_mat = np.empty((length, k), dtype=np.int64)
        bad = self._ckernel.parole_batch_replay(
            tables.address,
            length,
            k,
            flat.ctypes.data,
            bal.ctypes.data,
            inv.ctypes.data,
            rem.ctypes.data,
            exec_mat.ctypes.data,
            price_mat.ctypes.data,
            rem_mat.ctypes.data,
        )
        if bad >= 0:
            # The Eq. 10 read one past max supply: OVM.replay's TokenError
            # (`rem[bad]` still holds the poisoned candidate's pre-step
            # remaining supply).
            self.pre_state.pricing.price(int(rem[bad]) + 1)
        return self._summarise(keys, exec_mat, price_mat, rem_mat, bal, inv, rem)

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
        tables = self._tables
        final_price = self._prices(rem)
        bal_mat = bal.reshape(k, tables.n_rows)
        inv_mat = inv.reshape(k, tables.n_rows)
        wealth_rows = np.asarray(tables.wealth_rows)
        consistent = (~(inv_mat[:, : tables.n_real] < 0).any(axis=1)).tolist()
        if tables.negative_elsewhere:
            consistent = [False] * k
        executed_counts = exec_mat.sum(axis=0).tolist()
        wealth_cols = (
            bal_mat[:, wealth_rows]
            + inv_mat[:, wealth_rows] * final_price[:, None]
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
