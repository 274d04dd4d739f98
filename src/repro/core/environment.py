"""The GENTRANSEQ MDP (paper Section V-C-1).

* **State** — the current ordering of the N collected transactions,
  observed as the flattened ``8 x N`` encoding of Figure 4.
* **Action** — swapping two transactions: :math:`\\binom{N}{2}` actions.
* **Reward** — Eq. 8: ``r_k = W * (B_IFU^{N,k} - B_IFU^{N,0})`` where
  both balances are *final* balances after a full OVM replay; ``W`` is a
  high positive penalty weight for penalizable actions (orders that break
  an originally-executable transaction or decrease the final balance) and
  1 otherwise.

The environment also tracks, per episode, the first swap count at which a
profitable and *feasible* order appeared (Figure 9's "solution size") and
the best order seen so far.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, compress
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import GenTranSeqConfig
from ..drl.env_base import Environment
from ..errors import DRLError
from ..rollup.ckernel import kernel_backend
from ..rollup.replay_engine import (
    BatchReplayEngine,
    EvalSummary,
    IncrementalOVM,
    PermutationCache,
    ReplayEngineStats,
)
from ..rollup.state import L2State
from ..rollup.transaction import NFTTransaction
from ..telemetry import get_metrics
from .encoding import TransactionEncoder
from .multi_ifu import Objective, mean_wealth


@lru_cache(maxsize=None)
def swap_action_table(sequence_length: int) -> Tuple[Tuple[int, int], ...]:
    """Enumerate the ``N choose 2`` swap actions as (i, j) index pairs.

    Cached: every env/solver instantiation for the same N shares one
    table instead of rebuilding the O(N²) tuple.
    """
    return tuple(combinations(range(sequence_length), 2))


class ReorderEnv(Environment):
    """Transaction-reordering MDP for one aggregator's collection."""

    def __init__(
        self,
        pre_state: L2State,
        transactions: Sequence[NFTTransaction],
        ifus: Sequence[str],
        config: Optional[GenTranSeqConfig] = None,
        objective: Objective = mean_wealth,
    ) -> None:
        if len(transactions) < 2:
            raise DRLError("need at least two transactions to reorder")
        self.config = config or GenTranSeqConfig()
        self.pre_state = pre_state
        self.transactions = tuple(transactions)
        self.ifus = tuple(ifus)
        self.objective = objective
        #: Shared counters for the replay engine and permutation cache,
        #: surfaced through :meth:`replay_stats` / ``solvers/profiling``.
        self._stats = ReplayEngineStats()
        self._engine = IncrementalOVM(
            pre_state,
            self.transactions,
            stats=self._stats,
            wealth_users=self.ifus,
        )
        # Single authoritative evaluation cache.  The batch engine below
        # is stateless and `IncrementalOVM` only keeps its resume prefix,
        # so a scored ordering is held exactly once — here.
        self._eval_cache = PermutationCache(
            maxsize=self.config.evaluation_cache_size, stats=self._stats
        )
        # Columnar batch kernel, built lazily on the first multi-miss
        # population when the compiled kernel loads (shares the stats
        # object, so batch counters land in the same `replay_stats()`
        # surface).
        self._batch_engine: Optional[BatchReplayEngine] = None
        self._encoder = TransactionEncoder(pre_state, ifus, self.transactions)
        self._actions = swap_action_table(len(transactions))
        self._order: List[int] = list(range(len(transactions)))
        self._steps = 0
        # Bound once at construction: a shared no-op unless a metrics
        # registry was enabled beforehand, so the hot scoring path pays
        # a single inert method call when telemetry is off.
        self._m_evaluations = get_metrics().counter("env.evaluations")

        identity = tuple(self._order)
        baseline = self._engine.evaluate(identity)
        #: Final objective value of the original ordering — ``B^{N,0}``.
        self.original_objective = self.objective(baseline.wealth)
        #: Which positions executed under the original ordering; a candidate
        #: order must keep all of these executable to be feasible.
        self._original_executed = frozenset(
            compress(identity, baseline.executed)
        )
        # Seed the cache so reset() never replays the identity order again.
        self._eval_cache.put(
            identity, self._evaluation_from_summary(identity, baseline)
        )
        self.best_order: Tuple[int, ...] = tuple(self._order)
        self.best_objective = self.original_objective
        self.first_profit_swaps: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Environment protocol
    # ------------------------------------------------------------------ #

    @property
    def observation_size(self) -> int:
        """Flattened observation width (``8 x N``)."""
        return self._encoder.observation_size(len(self.transactions))

    @property
    def action_count(self) -> int:
        """``N choose 2`` pairwise swaps."""
        return len(self._actions)

    @property
    def sequence_length(self) -> int:
        """N — the aggregator's "Mempool" size."""
        return len(self.transactions)

    def action_pair(self, action: int) -> Tuple[int, int]:
        """The (position i, position j) swap an action index denotes."""
        return self._actions[action]

    def current_order(self) -> Tuple[int, ...]:
        """Current permutation as indices into the original sequence."""
        return tuple(self._order)

    def current_sequence(self) -> Tuple[NFTTransaction, ...]:
        """Current candidate ordering as transactions."""
        return tuple(self.transactions[i] for i in self._order)

    def sequence_for(self, order: Sequence[int]) -> Tuple[NFTTransaction, ...]:
        """Materialise a permutation into transactions."""
        return tuple(self.transactions[i] for i in order)

    def reset(self) -> np.ndarray:
        """Restart from the original fee-priority ordering."""
        self._order = list(range(len(self.transactions)))
        self._steps = 0
        self.first_profit_swaps = None
        # The identity evaluation is seeded at construction, so this is a
        # cache hit: no replay happens on reset.
        evaluation = self.evaluate_order(self._order)
        return self._observe(evaluation["summary"])

    def step(self, action: int) -> Tuple[np.ndarray, float, bool, Dict[str, Any]]:
        """Swap two transactions and score the resulting full replay."""
        if not 0 <= action < len(self._actions):
            raise DRLError(
                f"action {action} outside [0, {len(self._actions)})"
            )
        i, j = self._actions[action]
        self._order[i], self._order[j] = self._order[j], self._order[i]
        self._steps += 1
        reward, info = self._score()
        done = self._steps >= self.config.steps_per_episode
        observation = self._observe(info.pop("summary"))
        return observation, reward, done, info

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #

    def evaluate_order(self, order: Sequence[int]) -> Dict[str, Any]:
        """Score a permutation, reusing cached prefixes and evaluations.

        Repeated orders are answered from an LRU cache; fresh orders are
        replayed incrementally from the longest prefix shared with the
        previous evaluation (see :mod:`repro.rollup.replay_engine`).  The
        engine's :class:`~repro.rollup.replay_engine.EvalSummary` is kept
        in ``info["summary"]`` so the observation encoding can reuse its
        price/supply columns instead of replaying a second time.
        """
        key = tuple(order)
        self._m_evaluations.inc()
        cached = self._eval_cache.get(key)
        if cached is None:
            summary = self._engine.evaluate(key)
            cached = self._evaluation_from_summary(key, summary)
            self._eval_cache.put(key, cached)
        # Shallow copy: callers mutate the info dict (e.g. pop the summary).
        return dict(cached)

    def evaluate_orders(
        self, orders: Sequence[Sequence[int]]
    ) -> List[Dict[str, Any]]:
        """Score a population of permutations in one columnar replay.

        LRU-aware batch scoring: candidates already held by the
        evaluation cache are answered from it; a *single* miss routes
        through the incremental engine (which resumes from the shared
        prefix); two or more distinct misses are scored by the columnar
        batch kernel in one :meth:`BatchReplayEngine.evaluate_many`
        call.  When the compiled kernel cannot load
        (``kernel_backend() == "python"``), every miss routes through the
        incremental engine, which then replays each one with
        ``OVM.replay`` — bit-identical, only slower.  Duplicate misses
        within the population replay once.

        Returns one evaluation dict per input order, positionally, each
        identical to what :meth:`evaluate_order` returns for that order
        — population solvers call this with whole candidate sets
        (neighbourhoods, restart chains, insertion frontiers) instead of
        looping over ``evaluate_order``.
        """
        keys = [tuple(order) for order in orders]
        results: List[Optional[Dict[str, Any]]] = [None] * len(keys)
        misses: Dict[Tuple[int, ...], List[int]] = {}
        for index, key in enumerate(keys):
            self._m_evaluations.inc()
            cached = self._eval_cache.get(key)
            if cached is not None:
                results[index] = dict(cached)
            else:
                misses.setdefault(key, []).append(index)
        if misses:
            miss_keys = list(misses)
            if len(miss_keys) > 1 and kernel_backend() == "c":
                if self._batch_engine is None:
                    self._batch_engine = BatchReplayEngine(
                        self.pre_state,
                        self.transactions,
                        stats=self._stats,
                        wealth_users=self.ifus,
                    )
                summaries = self._batch_engine.evaluate_many(miss_keys)
            else:
                summaries = [self._engine.evaluate(key) for key in miss_keys]
            for key, summary in zip(miss_keys, summaries):
                cached = self._evaluation_from_summary(key, summary)
                self._eval_cache.put(key, cached)
                for index in misses[key]:
                    results[index] = dict(cached)
        return results  # type: ignore[return-value]

    def replay_stats(self) -> Dict[str, float]:
        """Replay-engine and evaluation-cache counters for profiling.

        Also mirrors the counters into the active metrics registry (a
        no-op when telemetry is disabled), so trace snapshots and run
        manifests see the replay work avoided.
        """
        return self._stats.publish()

    def _evaluation_from_summary(
        self, order: Tuple[int, ...], summary: EvalSummary
    ) -> Dict[str, Any]:
        executed = frozenset(compress(order, summary.executed))
        feasible = (
            self._original_executed <= executed and summary.consistent
        )
        value = self.objective(summary.wealth)
        return {
            "objective": value,
            "delta": value - self.original_objective,
            "feasible": feasible,
            "executed_count": summary.executed_count,
            "final_price": summary.final_price,
            "summary": summary,
        }

    def _score(self) -> Tuple[float, Dict[str, Any]]:
        evaluation = self.evaluate_order(self._order)
        delta = evaluation["delta"]
        feasible = evaluation["feasible"]
        scale = self.config.reward_scale
        if not feasible:
            # Breaking an originally-executable transaction is the
            # penalizable case: W amplifies a guaranteed-negative reward.
            magnitude = max(
                abs(delta), self.pre_state.nft_config.initial_price_eth
            )
            reward = -self.config.penalty_weight * magnitude * scale
            profit = 0.0
        elif delta < 0.0:
            reward = self.config.penalty_weight * delta * scale
            profit = 0.0
        else:
            reward = delta * scale
            profit = delta
        if profit > 0.0:
            if self.first_profit_swaps is None:
                self.first_profit_swaps = self._steps
            if evaluation["objective"] > self.best_objective:
                self.best_objective = evaluation["objective"]
                self.best_order = tuple(self._order)
        info = dict(evaluation)
        info["profit"] = profit
        info["swaps"] = self._steps
        return reward, info

    def _observe(self, summary: EvalSummary) -> np.ndarray:
        return self._encoder.encode_columns(
            self._order, summary.prices_before, summary.remaining_after
        )
