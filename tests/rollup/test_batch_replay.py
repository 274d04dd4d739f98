"""Differential tests for the columnar batch replay kernel.

The load-bearing property: ``BatchReplayEngine.evaluate_many(orders)``
must be *bit-identical* — objective inputs, executed set, feasibility,
final price, wealth floats — to ``OVM().replay`` of each order, in both
execution modes, with and without fee charging, including ragged,
duplicate-index, infeasible and reverting candidates.

The fixed cases also score through ``IncrementalOVM`` (the ``python``
route), which ``ReorderEnv.evaluate_orders`` takes for a single miss and,
when the compiled kernel cannot load, for every miss (it then replays
through ``OVM.replay``), so both scoring routes answer to the same
oracle.  Tests that need the kernel carry the shared ``kernel`` marker.
"""

from __future__ import annotations

import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NFTContractConfig, WorkloadConfig
from repro.core import ReorderEnv
from repro.errors import KernelUnavailableError, ReproError, TokenError
from repro.rollup import (
    OVM,
    BatchReplayEngine,
    EvalSummary,
    ExecutionMode,
    IncrementalOVM,
    L2State,
    NFTTransaction,
    ReplayEngineStats,
    TxKind,
)
from repro.rollup import ckernel
from repro.solvers import ReorderProblem, SimulatedAnnealingSolver
from repro.tokens.pricing import PRICE_TABLE_LIMIT
from repro.workloads import generate_workload


USERS = ("ifu", "u1", "u2", "u3")

#: The two scoring routes ``kernel_backend()`` can report.
ROUTES = (pytest.param("c", marks=pytest.mark.kernel), "python")


def _mint(sender, **kw):
    return NFTTransaction(kind=TxKind.MINT, sender=sender, **kw)


def _transfer(sender, recipient, **kw):
    return NFTTransaction(
        kind=TxKind.TRANSFER, sender=sender, recipient=recipient, **kw
    )


def _burn(sender, **kw):
    return NFTTransaction(kind=TxKind.BURN, sender=sender, **kw)


def _random_collection(rng: np.random.Generator, size: int):
    """Mixed mint/transfer/burn collection (burns capped below supply
    poisoning — the reverting case gets its own dedicated tests)."""
    txs = []
    burns = 0
    for nonce in range(size):
        kind = rng.choice(3)
        sender = USERS[rng.choice(len(USERS))]
        fee = float(rng.uniform(0.1, 2.0))
        if kind == 2 and burns >= 4:
            kind = 0
        if kind == 0:
            txs.append(_mint(sender, nonce=nonce, priority_fee=fee))
        elif kind == 1:
            others = [u for u in USERS if u != sender]
            recipient = others[rng.choice(len(others))]
            txs.append(
                _transfer(sender, recipient, nonce=nonce, priority_fee=fee)
            )
        else:
            burns += 1
            txs.append(_burn(sender, nonce=nonce, priority_fee=fee))
    return tuple(txs)


def _pre_state(mode: ExecutionMode, charge_fees: bool) -> L2State:
    return L2State(
        NFTContractConfig(max_supply=12),
        balances={"ifu": 4.0, "u1": 3.0, "u2": 1.0, "u3": 0.3},
        inventory={"ifu": 2, "u1": 1, "u2": 1},
        mode=mode,
        charge_fees=charge_fees,
    )


def _score(route, pre, txs, orders, **kw):
    """Score ``orders`` on one route: the batch kernel or K=1 scoring."""
    if route == "c":
        return BatchReplayEngine(pre, txs, **kw).evaluate_many(orders)
    engine = IncrementalOVM(pre, txs, **kw)
    return [engine.evaluate(order) for order in orders]


def _oracle(pre, txs, order, wealth_users=()):
    """The :class:`EvalSummary` of ``order``, derived from ``OVM().replay``."""
    trace = OVM().replay(pre, tuple(txs[i] for i in order))
    final = trace.final_state
    return EvalSummary(
        order=tuple(order),
        executed=[step.executed for step in trace.steps],
        prices_before=[step.result.price_before for step in trace.steps],
        remaining_after=[step.result.remaining_supply for step in trace.steps],
        final_price=final.unit_price,
        consistent=trace.consistent(),
        executed_count=trace.executed_count,
        wealth={user: final.wealth(user) for user in wealth_users},
    )


def _assert_summaries_identical(mine, oracle):
    """Every EvalSummary field, compared bit-for-bit (== on floats)."""
    assert mine.order == oracle.order
    assert mine.executed == oracle.executed
    assert mine.prices_before == oracle.prices_before
    assert mine.remaining_after == oracle.remaining_after
    assert mine.final_price == oracle.final_price
    assert mine.consistent == oracle.consistent
    assert mine.executed_count == oracle.executed_count
    assert mine.wealth == oracle.wealth
    for user, value in mine.wealth.items():
        # Not just == — identical IEEE-754 bit patterns.
        assert repr(value) == repr(oracle.wealth[user])


def _assert_matches_oracle(summaries, pre, txs, orders, wealth_users=()):
    assert len(summaries) == len(orders)
    for order, summary in zip(orders, summaries):
        _assert_summaries_identical(
            summary, _oracle(pre, txs, order, wealth_users)
        )


@pytest.mark.kernel
class TestDifferentialIdentity:
    """evaluate_many ≡ OVM.replay of every candidate."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        mode=st.sampled_from(list(ExecutionMode)),
        charge_fees=st.booleans(),
    )
    def test_matches_serial_engine(self, seed, mode, charge_fees):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(3, 9))
        txs = _random_collection(rng, size)
        pre = _pre_state(mode, charge_fees)
        # Mixed-length candidate set: full permutations, ragged
        # prefixes, the empty order and one with duplicate indices.
        orders = [tuple(range(size))]
        orders += [
            tuple(int(x) for x in rng.permutation(size)) for _ in range(6)
        ]
        orders += [
            tuple(int(x) for x in rng.permutation(size)[: size // 2])
            for _ in range(2)
        ]
        orders += [(), (0,) * min(3, size)]
        users = ("ifu", "u1")
        summaries = _score("c", pre, txs, orders, wealth_users=users)
        _assert_matches_oracle(summaries, pre, txs, orders, users)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1_000))
    def test_generated_workload_matches(self, seed):
        workload = generate_workload(
            WorkloadConfig(mempool_size=12, seed=seed)
        )
        pre, txs = workload.pre_state, workload.transactions
        users = tuple(sorted(pre.balances))[:3]
        rng = np.random.default_rng(seed)
        orders = [
            tuple(int(x) for x in rng.permutation(len(txs)))
            for _ in range(8)
        ]
        summaries = _score("c", pre, txs, orders, wealth_users=users)
        _assert_matches_oracle(summaries, pre, txs, orders, users)

    def test_closed_form_prices_match(self):
        """Above the price-table limit the kernel and the final prices
        take Eq. 10's closed form."""
        rng = np.random.default_rng(29)
        txs = _random_collection(rng, 7)
        pre = L2State(
            NFTContractConfig(max_supply=PRICE_TABLE_LIMIT + 7),
            balances={"ifu": 4.0, "u1": 3.0, "u2": 1.0, "u3": 0.3},
            inventory={"ifu": 2, "u1": 1, "u2": 1},
            mode=ExecutionMode.BATCH,
            charge_fees=True,
        )
        orders = [tuple(int(x) for x in rng.permutation(7)) for _ in range(6)]
        summaries = _score("c", pre, txs, orders, wealth_users=USERS)
        _assert_matches_oracle(summaries, pre, txs, orders, USERS)


class TestInfeasibleAndReverting:
    """Candidates that fail must fail exactly as OVM.replay does."""

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_infeasible_candidates_report_inconsistent(self, route, mode):
        # u3 cannot afford a mint in STRICT, and double-spends of the
        # same token mark the batch inconsistent — both must round-trip.
        pre = _pre_state(mode, False)
        txs = (
            _mint("u3", nonce=0),
            _transfer("u1", "u2", nonce=1),
            _transfer("u1", "u3", nonce=2),
            _mint("ifu", nonce=3),
        )
        orders = [
            (0, 1, 2, 3),
            (1, 2, 0, 3),
            (3, 2, 1, 0),
            (2, 1, 3, 0),
        ]
        summaries = _score(route, pre, txs, orders, wealth_users=("ifu",))
        _assert_matches_oracle(summaries, pre, txs, orders, ("ifu",))

    @pytest.mark.parametrize("route", ROUTES)
    def test_supply_exhaustion_matches(self, route):
        pre = L2State(
            NFTContractConfig(max_supply=3),
            balances={u: 50.0 for u in USERS},
            inventory={"ifu": 1, "u1": 1},
            mode=ExecutionMode.BATCH,
        )
        txs = tuple(
            _mint(USERS[i % len(USERS)], nonce=i) for i in range(4)
        ) + (_transfer("ifu", "u2", nonce=4),)
        rng = np.random.default_rng(0)
        orders = [
            tuple(int(x) for x in rng.permutation(5)) for _ in range(20)
        ]
        summaries = _score(route, pre, txs, orders, wealth_users=("ifu",))
        _assert_matches_oracle(summaries, pre, txs, orders, ("ifu",))

    @pytest.mark.parametrize("route", ROUTES)
    def test_burn_poisoning_raises_identically(self, route):
        """Burning the supply past ``max_supply`` reverts (TokenError) —
        the call must raise the identical error ``OVM.replay`` raises, as
        a serial scoring loop would fail at that candidate."""
        pre = L2State(
            NFTContractConfig(max_supply=4),
            balances={u: 50.0 for u in USERS},
            inventory={"ifu": 2, "u1": 1, "u2": 1},
            mode=ExecutionMode.BATCH,
        )
        txs = (
            _burn("ifu", nonce=0),
            _burn("u1", nonce=1),
            _burn("u2", nonce=2),
            _burn("ifu", nonce=3),
            _burn("u3", nonce=4),
        )
        poison = (0, 1, 2, 3, 4)  # fifth burn pushes supply past max
        with pytest.raises(TokenError) as mine:
            _score(route, pre, txs, [(0, 1, 2, 3), poison])
        with pytest.raises(TokenError) as oracle:
            OVM().replay(pre, tuple(txs[i] for i in poison))
        assert str(mine.value) == str(oracle.value)


class TestBatchBookkeeping:
    @pytest.mark.parametrize("route", ROUTES)
    def test_stats_counters(self, route):
        rng = np.random.default_rng(1)
        txs = _random_collection(rng, 6)
        stats = ReplayEngineStats()
        orders = [tuple(int(x) for x in rng.permutation(6)) for _ in range(5)]
        _score(
            route, _pre_state(ExecutionMode.BATCH, False), txs, orders,
            stats=stats,
        )
        if route == "c":
            assert stats.batch_calls == 1
            assert stats.batch_candidates == 5
            assert stats.batch_steps == 30
            assert stats.mean_batch_size == 5.0
        else:
            # Every step of every candidate is counted exactly once, on
            # the route that ran it: executed or reused, never batched.
            assert stats.batch_calls == 0
            assert stats.scratch_replays + stats.incremental_replays == 5
            assert stats.steps_executed + stats.steps_reused == 30
        assert "mean_batch_size" in stats.as_dict()

    @pytest.mark.kernel
    def test_empty_candidate_set(self):
        rng = np.random.default_rng(2)
        txs = _random_collection(rng, 4)
        engine = BatchReplayEngine(_pre_state(ExecutionMode.BATCH, False), txs)
        assert engine.evaluate_many([]) == []

    @pytest.mark.kernel
    def test_out_of_range_index_rejected(self):
        rng = np.random.default_rng(4)
        txs = _random_collection(rng, 4)
        engine = BatchReplayEngine(_pre_state(ExecutionMode.BATCH, False), txs)
        with pytest.raises(IndexError):
            engine.evaluate_many([(0, 1), (0, 99)])


@contextlib.contextmanager
def _failed_kernel(monkeypatch):
    """The loader forced to fail (``CC=false``); reset before and after."""
    ckernel._reset_for_tests()
    try:
        with monkeypatch.context() as patch:
            patch.setenv("CC", "false")
            yield
    finally:
        ckernel._reset_for_tests()


def _fallback_workload():
    return generate_workload(
        WorkloadConfig(mempool_size=10, num_users=6, num_ifus=1, seed=5)
    )


class TestKernelLoader:
    def test_loader_is_cached(self):
        assert ckernel.load_kernel() is ckernel.load_kernel()

    def test_failed_load_warns_once_and_falls_back(self, monkeypatch):
        workload = _fallback_workload()
        with _failed_kernel(monkeypatch), warnings.catch_warnings(
            record=True
        ) as caught:
            warnings.simplefilter("always")
            assert ckernel.load_kernel() is None
            assert ckernel.kernel_backend() == "python"
            with pytest.raises(KernelUnavailableError) as error:
                BatchReplayEngine(workload.pre_state, workload.transactions)
            assert ckernel.load_kernel() is None
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        message = str(runtime[0].message)
        assert "'false'" in message and "exit status 1" in message
        assert isinstance(error.value, ReproError)
        assert "exit status 1" in str(error.value)

    @pytest.mark.kernel
    def test_fallback_scores_like_the_kernel(self, monkeypatch):
        workload = _fallback_workload()
        pre, txs, ifus = (
            workload.pre_state, workload.transactions, workload.ifus,
        )
        rng = np.random.default_rng(9)
        orders = [
            tuple(int(x) for x in rng.permutation(len(txs)))
            for _ in range(12)
        ]
        annealer = SimulatedAnnealingSolver(iterations=150, seed=1, restarts=4)

        def run():
            env = ReorderEnv(pre, txs, ifus)
            evaluations = env.evaluate_orders(orders)
            solved = annealer.solve(ReorderProblem(pre, txs, ifus))
            return evaluations, env.replay_stats(), solved

        kernel_evals, kernel_stats, kernel_solved = run()
        assert kernel_stats["batch_calls"] == 1
        with _failed_kernel(monkeypatch), pytest.warns(
            RuntimeWarning, match="unavailable"
        ):
            fallback_evals, fallback_stats, fallback_solved = run()
        assert fallback_stats["batch_calls"] == 0
        assert fallback_stats["batch_candidates"] == 0
        for mine, theirs in zip(fallback_evals, kernel_evals):
            assert repr(mine["objective"]) == repr(theirs["objective"])
            assert mine["feasible"] == theirs["feasible"]
            assert mine["executed_count"] == theirs["executed_count"]
            assert mine["final_price"] == theirs["final_price"]
            _assert_summaries_identical(mine["summary"], theirs["summary"])
        assert fallback_solved.best_order == kernel_solved.best_order
        assert fallback_solved.best_objective == kernel_solved.best_objective
