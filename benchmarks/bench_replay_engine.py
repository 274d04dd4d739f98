"""Replay-engine throughput: scratch vs incremental candidate scoring.

The hot path of every solver and DQN episode is "apply one swap, rescore
the order".  This bench measures that exact operation — replay the
candidate and derive the Eq. 8 scoring inputs (executed set, batch-end
consistency, IFU wealth) — four ways:

* ``scratch_seed``      — ``OVM.replay`` against a state with the seed's
  O(users)-per-read aggregate scans (the cost model this PR replaced);
* ``scratch``           — ``OVM.replay`` against the current state with
  O(1) counters (the optimised from-scratch path);
* ``incremental``       — ``IncrementalOVM.evaluate``, resuming from the
  shared prefix in the C kernel's cursor;
* ``env_memoized``      — the full ``ReorderEnv.evaluate_order`` with the
  permutation LRU in front.

A second sweep measures the columnar batch kernel
(``BatchReplayEngine.evaluate_many``) at K ∈ {8, 32, 128} candidates per
call — the population-solver hot path — against two K = 1 rows over the
same pool: :class:`InterpretedK1`, the interpreted Python loop that
scored single orderings before the kernel did (a fixed yardstick, like
:class:`SeedCostState`), and the compiled ``IncrementalOVM``.  Where the
C kernel cannot load (``kernel_backend() == "python"``) only the K = 1
rows run.

A JSON record (``BENCH_replay.json``) is archived — including the host
``cpu_count``, the numpy version, the compiled-kernel backend and the
swept batch sizes — so future PRs can track the perf trajectory.

Acceptance: incremental single-swap re-evaluation at N = 50 must be at
least 5x faster than from-scratch replay (measured against the stronger,
already-optimised scratch baseline; the seed-cost speedup is reported
alongside), and the batch kernel at K = 32 must deliver at least 5x the
aggregate throughput of the interpreted K = 1 yardstick (armed wherever
the kernel loads; recorded UNARMED with the reason where it does not).
The compiled K = 1 rate and the K = 32 kernel's ratio to it are recorded
as plain series.

A second bench (``BENCH_telemetry.json``) measures what the telemetry
instrumentation costs on the same hot path: the disabled no-op backends
must stay within 5% of a fully uninstrumented scoring loop, and the
enabled-path overhead is archived for the record.  Both are medians of
per-pair ratios over walks timed in alternating order, so host-load
drift lands on both sides of a pair.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import GenTranSeqConfig, WorkloadConfig
from repro.core import ReorderEnv
from repro.rollup import BatchReplayEngine, IncrementalOVM, L2State, OVM
from repro.rollup.ckernel import kernel_backend
from repro.rollup.replay_engine import EvalSummary, ReplayEngineStats
from repro.rollup.state import ExecutionMode
from repro.rollup.transaction import NFTTransaction, TxKind
from repro.tokens import TxValidity
from repro.telemetry import (
    RingBufferSink,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
)
from repro.workloads import generate_workload

from conftest import BenchSeries, GateVerdict

SIZES = (10, 20, 50, 100)
SWAPS_PER_SIZE = 300

BATCH_N = 50
BATCH_SIZES = (8, 32, 128)
BATCH_POOL = 512
BATCH_REPEATS = 3
BATCH_MIN_SPEEDUP_AT_32 = 5.0

BENCH_SCHEMA = "BENCH_replay/v2"
TELEMETRY_BENCH_SCHEMA = "BENCH_telemetry/v2"
TELEMETRY_SIZES = (20, 50)
TELEMETRY_PAIRS = 40
MAX_DISABLED_OVERHEAD = 0.05


class SeedCostState(L2State):
    """L2State with the seed's O(users) aggregate reads.

    Before this PR, every ``unit_price`` / ``remaining_supply`` /
    ``inventory_is_consistent`` read re-scanned the inventory dict.  This
    subclass restores those costs (bit-identical values) so the bench can
    report how much of the speedup comes from the O(1) counters vs the
    incremental engine.
    """

    @property
    def minted_count(self) -> int:
        return sum(self.inventory.values())

    @property
    def remaining_supply(self) -> int:
        return self.nft_config.max_supply - self.minted_count

    @property
    def unit_price(self) -> float:
        remaining = self.remaining_supply
        return (
            self.nft_config.max_supply
            / max(remaining, 1)
            * self.nft_config.initial_price_eth
        )

    def inventory_is_consistent(self) -> bool:
        return all(count >= 0 for count in self.inventory.values())


#: Sentinel marking "key was absent before this step" in the undo log, so
#: undo deletes the entry instead of leaving a spurious zero behind
#: (state roots hash every entry, absent and zero-valued differ).
_MISSING = object()

#: One undo entry: (is_inventory, key, prior value or ``_MISSING``).
_UndoEntry = Tuple[bool, str, Any]


class InterpretedK1:
    """The interpreted K=1 replay loop, kept as a fixed yardstick.

    Until the kernel's prefix-resume entry point replaced it, this was
    ``IncrementalOVM``: one working state in plain dicts, a per-step
    copy-on-write undo log, and the Eq. 1-6 transition inlined in
    Python.  It stays here unchanged (like :class:`SeedCostState`) so
    ``batch_speedup_K32`` keeps measuring the K=32 kernel against the
    same K=1 rate it always did.  Bit-identical to ``OVM.replay``
    (``test_incremental_results_match_scratch``).
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


def _workload(size: int):
    return generate_workload(
        WorkloadConfig(
            mempool_size=size,
            num_users=max(8, size // 3),
            num_ifus=1,
            seed=42,
        )
    )


def _swap_orders(rng: np.random.Generator, size: int, count: int):
    """A random walk of single swaps from the identity order."""
    order = list(range(size))
    orders = []
    for _ in range(count):
        i, j = rng.choice(size, size=2, replace=False)
        order[i], order[j] = order[j], order[i]
        orders.append(tuple(order))
    return orders


def _time_scratch(pre_state, workload, orders) -> float:
    """From-scratch scoring: replay + executed set + consistency + wealth."""
    ovm = OVM()
    ifus = workload.ifus
    started = time.perf_counter()
    for order in orders:
        sequence = tuple(workload.transactions[i] for i in order)
        trace = ovm.replay(pre_state, sequence)
        frozenset(
            index
            for index, step in zip(order, trace.steps)
            if step.executed
        )
        trace.consistent()
        {user: trace.final_state.wealth(user) for user in ifus}
    return time.perf_counter() - started


def _bench_size(size: int) -> dict:
    workload = _workload(size)
    rng = np.random.default_rng(7)
    orders = _swap_orders(rng, size, SWAPS_PER_SIZE)
    pre = workload.pre_state

    seed_pre = SeedCostState(
        pre.nft_config,
        balances=pre.balances,
        inventory=pre.inventory,
        mode=pre.mode,
        charge_fees=pre.charge_fees,
    )
    scratch_seed_seconds = _time_scratch(seed_pre, workload, orders)
    scratch_seconds = _time_scratch(pre, workload, orders)

    # Incremental resume from the shared prefix (the solver hot path).
    engine = IncrementalOVM(
        pre, workload.transactions, wealth_users=workload.ifus
    )
    engine.evaluate(range(size))  # the one-time baseline
    started = time.perf_counter()
    for order in orders:
        engine.evaluate(order)
    incremental_seconds = time.perf_counter() - started
    engine_stats = engine.stats

    # Full environment scoring with permutation memoization: the second
    # pass over the same walk is answered entirely from the LRU.
    env = ReorderEnv(
        pre_state=pre,
        transactions=workload.transactions,
        ifus=workload.ifus,
        config=GenTranSeqConfig(steps_per_episode=SWAPS_PER_SIZE, seed=0),
    )
    started = time.perf_counter()
    for order in orders + orders:
        env.evaluate_order(order)
    env_seconds = time.perf_counter() - started
    stats = env.replay_stats()

    return {
        "size": size,
        "swaps": SWAPS_PER_SIZE,
        "scratch_seed_seconds": scratch_seed_seconds,
        "scratch_seconds": scratch_seconds,
        "incremental_seconds": incremental_seconds,
        "speedup": scratch_seconds / incremental_seconds,
        "speedup_vs_seed": scratch_seed_seconds / incremental_seconds,
        "scratch_evals_per_second": SWAPS_PER_SIZE / scratch_seconds,
        "incremental_evals_per_second": SWAPS_PER_SIZE / incremental_seconds,
        "env_memoized_seconds": env_seconds,
        "mean_resume_depth": engine_stats.mean_resume_depth,
        "step_reuse_fraction": engine_stats.step_reuse_fraction,
        "cache_hit_rate": stats["cache_hit_rate"],
    }


def _time_k1(engine_cls, workload, pool) -> float:
    """Best-of-``BATCH_REPEATS`` seconds to score ``pool`` one by one."""
    best = float("inf")
    for _ in range(BATCH_REPEATS):
        engine = engine_cls(
            workload.pre_state, workload.transactions, wealth_users=workload.ifus
        )
        engine.evaluate(range(BATCH_N))  # the one-time baseline
        started = time.perf_counter()
        for order in pool:
            engine.evaluate(order)
        best = min(best, time.perf_counter() - started)
    return best


def _bench_batch_kernel(backend: str) -> dict:
    """Aggregate candidate throughput of evaluate_many across K.

    The same 512-candidate pool is scored one by one by the interpreted
    K = 1 yardstick and by the compiled ``IncrementalOVM``, and (only
    when ``backend`` is ``"c"``) in K-candidate ``evaluate_many`` chunks.
    Best-of-``BATCH_REPEATS`` per configuration suppresses scheduler
    noise; throughput is candidates scored per second.
    """
    workload = _workload(BATCH_N)
    rng = np.random.default_rng(13)
    pool = [
        tuple(int(x) for x in rng.permutation(BATCH_N))
        for _ in range(BATCH_POOL)
    ]

    yardstick_rate = BATCH_POOL / _time_k1(InterpretedK1, workload, pool)
    compiled_rate = BATCH_POOL / _time_k1(IncrementalOVM, workload, pool)
    records = []
    for k in BATCH_SIZES if backend == "c" else ():
        best = float("inf")
        for _ in range(BATCH_REPEATS):
            engine = BatchReplayEngine(
                workload.pre_state, workload.transactions,
                wealth_users=workload.ifus,
            )
            started = time.perf_counter()
            for lo in range(0, BATCH_POOL, k):
                engine.evaluate_many(pool[lo : lo + k])
            best = min(best, time.perf_counter() - started)
        rate = BATCH_POOL / best
        records.append(
            {
                "batch_size": k,
                "candidates": BATCH_POOL,
                "seconds": best,
                "evals_per_second": rate,
                "speedup_vs_incremental": rate / yardstick_rate,
                "speedup_vs_compiled_k1": rate / compiled_rate,
            }
        )
    return {
        "size": BATCH_N,
        "pool": BATCH_POOL,
        "repeats": BATCH_REPEATS,
        "kernel_backend": backend,
        "interpreted_k1_evals_per_second": yardstick_rate,
        "compiled_k1_evals_per_second": compiled_rate,
        "records": records,
    }


def test_replay_engine_throughput(save_artifact, emit_bench):
    """Scratch vs incremental replay across N; archives BENCH_replay.json."""
    records = [_bench_size(size) for size in SIZES]
    batch = _bench_batch_kernel(kernel_backend())
    interpreted = batch["interpreted_k1_evals_per_second"]
    compiled = batch["compiled_k1_evals_per_second"]

    lines = [
        "Replay engine: single-swap re-evaluation throughput",
        "",
        f"{'N':>4}  {'scratch ev/s':>13}  {'incremental ev/s':>17}  "
        f"{'speedup':>8}  {'vs seed':>8}  {'resume depth':>13}  "
        f"{'cache hit%':>10}",
    ]
    for rec in records:
        lines.append(
            f"{rec['size']:>4}  {rec['scratch_evals_per_second']:>13.0f}  "
            f"{rec['incremental_evals_per_second']:>17.0f}  "
            f"{rec['speedup']:>7.1f}x  {rec['speedup_vs_seed']:>7.1f}x  "
            f"{rec['mean_resume_depth']:>13.1f}  "
            f"{rec['cache_hit_rate'] * 100:>9.1f}%"
        )
    lines += [
        "",
        f"Batch kernel ({batch['kernel_backend']} backend): aggregate "
        f"candidate throughput at N = {BATCH_N}",
        "",
        f"{'K':>15}  {'evals/s':>10}  {'vs interp.':>10}  {'vs compiled':>11}",
        f"{'1 interpreted':>15}  {interpreted:>10.0f}  {1.0:>9.2f}x",
        f"{'1 compiled':>15}  {compiled:>10.0f}  "
        f"{compiled / interpreted:>9.2f}x  {1.0:>10.2f}x",
    ]
    for rec in batch["records"]:
        lines.append(
            f"{rec['batch_size']:>15}  {rec['evals_per_second']:>10.0f}  "
            f"{rec['speedup_vs_incremental']:>9.2f}x  "
            f"{rec['speedup_vs_compiled_k1']:>10.2f}x"
        )
    save_artifact("bench_replay_engine", "\n".join(lines))

    at_50 = next(rec for rec in records if rec["size"] == 50)
    at_32 = next(
        (rec for rec in batch["records"] if rec["batch_size"] == 32), None
    )
    if at_32 is None:
        batch_gate = GateVerdict(
            name="batch_speedup_K32",
            armed=False,
            reason=(
                f"kernel_backend={batch['kernel_backend']}: the C kernel "
                "did not load, so no K>1 sweep ran"
            ),
            threshold=BATCH_MIN_SPEEDUP_AT_32,
        )
        batch_series = []
    else:
        batch_gate = GateVerdict(
            name="batch_speedup_K32",
            armed=True,
            passed=(
                at_32["speedup_vs_incremental"] >= BATCH_MIN_SPEEDUP_AT_32
            ),
            threshold=BATCH_MIN_SPEEDUP_AT_32,
            observed=at_32["speedup_vs_incremental"],
        )
        batch_series = [
            BenchSeries(
                "batch_evals_per_s_K32",
                "evals/s",
                (at_32["evals_per_second"],),
            ),
            BenchSeries(
                "batch_speedup_K32", "x", (at_32["speedup_vs_incremental"],)
            ),
            BenchSeries(
                "batch_speedup_K32_vs_compiled_K1",
                "x",
                (at_32["speedup_vs_compiled_k1"],),
            ),
        ]
    series = [
        BenchSeries(
            f"incremental_evals_per_s_N{rec['size']}",
            "evals/s",
            (rec["incremental_evals_per_second"],),
            meta={"N": rec["size"]},
        )
        for rec in records
    ] + [
        BenchSeries("incremental_speedup_N50", "x", (at_50["speedup"],)),
        BenchSeries(
            "compiled_k1_evals_per_s",
            "evals/s",
            (compiled,),
            meta={"N": BATCH_N},
        ),
        *batch_series,
    ]
    emit_bench(
        "replay",
        series=series,
        gates=[
            GateVerdict(
                name="incremental_speedup_N50",
                armed=True,
                passed=at_50["speedup"] >= 5.0,
                threshold=5.0,
                observed=at_50["speedup"],
            ),
            batch_gate,
        ],
        view={
            "schema": BENCH_SCHEMA,
            "swaps_per_size": SWAPS_PER_SIZE,
            "environment": {
                "cpu_count": os.cpu_count(),
                "numpy_version": np.__version__,
                "python_version": platform.python_version(),
                "kernel_backend": batch["kernel_backend"],
            },
            "batch_sizes": list(BATCH_SIZES),
            "records": records,
            "batch": batch,
        },
        kernel_backend=batch["kernel_backend"],
    )

    assert at_50["speedup"] >= 5.0, (
        f"incremental replay only {at_50['speedup']:.1f}x faster at N=50 "
        "(acceptance requires >= 5x)"
    )
    assert not batch_gate.armed or batch_gate.passed, (
        f"batch kernel only {batch_gate.observed:.1f}x the interpreted "
        f"K=1 yardstick at K=32 (acceptance requires >= "
        f"{BATCH_MIN_SPEEDUP_AT_32:.0f}x)"
    )


def test_incremental_results_match_scratch():
    """The bench's paths must agree on what they compute."""
    workload = _workload(20)
    rng = np.random.default_rng(3)
    ifus = workload.ifus
    engine = IncrementalOVM(
        workload.pre_state, workload.transactions, wealth_users=ifus
    )
    yardstick = InterpretedK1(
        workload.pre_state, workload.transactions, wealth_users=ifus
    )
    scratch = OVM()
    for order in _swap_orders(rng, 20, 25):
        sequence = tuple(workload.transactions[i] for i in order)
        theirs = scratch.replay(workload.pre_state, sequence)
        executed = [s.executed for s in theirs.steps]
        prices = [s.result.price_before for s in theirs.steps]
        wealth = {user: theirs.final_state.wealth(user) for user in ifus}
        for summary in (engine.evaluate(order), yardstick.evaluate(order)):
            assert summary.executed == executed
            assert summary.prices_before == prices
            assert summary.final_price == theirs.final_state.unit_price
            assert summary.consistent == theirs.consistent()
            assert summary.wealth == wealth


class UninstrumentedEnv(ReorderEnv):
    """The pre-telemetry scoring loop: no counter call at all.

    Serves as the bench's true baseline — the disabled no-op backends
    are compared against code with zero instrumentation, not against
    themselves.
    """

    def evaluate_order(self, order):
        key = tuple(order)
        cached = self._eval_cache.get(key)
        if cached is None:
            summary = self._engine.evaluate(key)
            cached = self._evaluation_from_summary(key, summary)
            self._eval_cache.put(key, cached)
        return dict(cached)


def _time_env_walk(env_cls, workload, orders) -> float:
    """Wall time of scoring the swap walk once.

    A fresh environment per walk, so every configuration starts from
    the same (empty) cache state.
    """
    env = env_cls(
        pre_state=workload.pre_state,
        transactions=workload.transactions,
        ifus=workload.ifus,
        config=GenTranSeqConfig(steps_per_episode=len(orders), seed=0),
    )
    started = time.perf_counter()
    for order in orders:
        env.evaluate_order(order)
    return time.perf_counter() - started


def _time_enabled_walk(workload, orders) -> float:
    enable_metrics()
    enable_tracing(RingBufferSink(capacity=4096))
    try:
        return _time_env_walk(ReorderEnv, workload, orders)
    finally:
        disable_metrics()
        disable_tracing()


def _bench_telemetry_size(size: int) -> dict:
    """Median per-pair overheads of the disabled and enabled walks.

    Each of ``TELEMETRY_PAIRS`` pairs times the uninstrumented and the
    disabled-telemetry walk back to back, alternating which runs first,
    then one enabled walk; an overhead is the median over pairs of
    ``instrumented / uninstrumented - 1``.
    """
    workload = _workload(size)
    rng = np.random.default_rng(11)
    orders = _swap_orders(rng, size, SWAPS_PER_SIZE)

    disable_metrics()
    disable_tracing()
    uninstrumented, disabled, enabled = [], [], []
    for pair in range(TELEMETRY_PAIRS):
        if pair % 2 == 0:
            uninstrumented.append(
                _time_env_walk(UninstrumentedEnv, workload, orders)
            )
            disabled.append(_time_env_walk(ReorderEnv, workload, orders))
        else:
            disabled.append(_time_env_walk(ReorderEnv, workload, orders))
            uninstrumented.append(
                _time_env_walk(UninstrumentedEnv, workload, orders)
            )
        enabled.append(_time_enabled_walk(workload, orders))

    def overhead(timings):
        return statistics.median(
            t / u for t, u in zip(timings, uninstrumented)
        ) - 1.0

    return {
        "size": size,
        "swaps": SWAPS_PER_SIZE,
        "pairs": TELEMETRY_PAIRS,
        "uninstrumented_seconds": statistics.median(uninstrumented),
        "disabled_seconds": statistics.median(disabled),
        "enabled_seconds": statistics.median(enabled),
        "disabled_overhead": overhead(disabled),
        "enabled_overhead": overhead(enabled),
    }


def test_telemetry_overhead(save_artifact, emit_bench):
    """Disabled telemetry must cost <= 5% on single-swap re-evaluation."""
    records = [_bench_telemetry_size(size) for size in TELEMETRY_SIZES]

    lines = [
        "Telemetry overhead on ReorderEnv.evaluate_order (single-swap walk)",
        f"medians over {TELEMETRY_PAIRS} alternating pairs",
        "",
        f"{'N':>4}  {'uninstr ms':>11}  {'disabled ms':>12}  "
        f"{'enabled ms':>11}  {'off ovh%':>9}  {'on ovh%':>8}",
    ]
    for rec in records:
        lines.append(
            f"{rec['size']:>4}  {rec['uninstrumented_seconds'] * 1e3:>11.2f}  "
            f"{rec['disabled_seconds'] * 1e3:>12.2f}  "
            f"{rec['enabled_seconds'] * 1e3:>11.2f}  "
            f"{rec['disabled_overhead'] * 100:>8.2f}%  "
            f"{rec['enabled_overhead'] * 100:>7.2f}%"
        )
    save_artifact("bench_telemetry_overhead", "\n".join(lines))

    emit_bench(
        "telemetry",
        series=[
            BenchSeries(
                f"disabled_overhead_N{rec['size']}",
                "fraction",
                (rec["disabled_overhead"],),
                direction="lower",
                meta={"N": rec["size"]},
            )
            for rec in records
        ]
        + [
            BenchSeries(
                f"enabled_overhead_N{rec['size']}",
                "fraction",
                (rec["enabled_overhead"],),
                direction="lower",
                meta={"N": rec["size"]},
            )
            for rec in records
        ],
        gates=[
            GateVerdict(
                name=f"disabled_overhead_N{rec['size']}",
                armed=True,
                passed=rec["disabled_overhead"] <= MAX_DISABLED_OVERHEAD,
                threshold=MAX_DISABLED_OVERHEAD,
                observed=rec["disabled_overhead"],
            )
            for rec in records
        ],
        view={
            "schema": TELEMETRY_BENCH_SCHEMA,
            "swaps_per_size": SWAPS_PER_SIZE,
            "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
            "records": records,
        },
    )

    for rec in records:
        assert rec["disabled_overhead"] <= MAX_DISABLED_OVERHEAD, (
            f"disabled telemetry costs {rec['disabled_overhead']:.1%} at "
            f"N={rec['size']} (acceptance requires <= "
            f"{MAX_DISABLED_OVERHEAD:.0%})"
        )


def test_seed_cost_state_is_bit_identical():
    """The seed-cost comparator changes cost, never values."""
    workload = _workload(12)
    pre = workload.pre_state
    seed_pre = SeedCostState(
        pre.nft_config,
        balances=pre.balances,
        inventory=pre.inventory,
        mode=pre.mode,
        charge_fees=pre.charge_fees,
    )
    sequence = workload.transactions
    fast = OVM().replay(pre, sequence)
    slow = OVM().replay(seed_pre, sequence)
    assert (
        fast.final_state.canonical_items()
        == slow.final_state.canonical_items()
    )
    assert [s.result.price_after for s in fast.steps] == [
        s.result.price_after for s in slow.steps
    ]
