"""DQN inference wrapped as a :class:`ReorderSolver` (Figure 11's subject).

The IFU trains the model offline (Section VII-F); the adversarial
aggregator only pays the *inference* cost online.  This wrapper trains
once on construction (or accepts a pre-trained module) and exposes
greedy rollout through the common solver interface so it can be profiled
head-to-head with the NLP stand-ins.
"""

from __future__ import annotations

import time
from typing import Optional

from ..config import GenTranSeqConfig
from ..core.gentranseq import GenTranSeq
from .base import ReorderProblem, ReorderSolver, SolverResult


class DQNInferenceSolver(ReorderSolver):
    """Greedy rollout of a (pre)trained GENTRANSEQ Q-network."""

    name = "DQN (inference)"

    def __init__(
        self,
        gentranseq: Optional[GenTranSeq] = None,
        config: Optional[GenTranSeqConfig] = None,
        train_episodes: int = 0,
        max_swaps: int = 50,
    ) -> None:
        self.gentranseq = gentranseq or GenTranSeq(config=config)
        self.train_episodes = train_episodes
        self.max_swaps = max_swaps
        self._trained = gentranseq is not None

    def ensure_trained(self, problem: ReorderProblem) -> None:
        """Offline training pass (not counted against inference cost)."""
        if self._trained or self.train_episodes <= 0:
            return
        offline = self.gentranseq.config.with_overrides(
            episodes=self.train_episodes
        )
        trainer = GenTranSeq(config=offline, objective=self.gentranseq.objective)
        trainer.optimize(problem.pre_state, problem.transactions, problem.ifus)
        self.gentranseq = trainer
        self._trained = True

    def solve(self, problem: ReorderProblem) -> SolverResult:
        """Rollout; cost is what Figure 11 measures."""
        self.ensure_trained(problem)
        started = time.perf_counter()
        inference = self.gentranseq.infer(
            problem.pre_state,
            problem.transactions,
            problem.ifus,
            max_swaps=self.max_swaps,
        )
        elapsed = time.perf_counter() - started
        order = tuple(
            problem.transactions.index(tx) for tx in inference.best_sequence
        )
        return SolverResult(
            solver_name=self.name,
            best_order=order,
            best_objective=inference.best_objective,
            original_objective=inference.original_objective,
            elapsed_seconds=elapsed,
            evaluations=self.max_swaps,
            peak_memory_bytes=self.gentranseq.inference_memory_bytes(),
        )

    def model_memory_bytes(self) -> int:
        """Constant Q-network footprint for profiling."""
        return self.gentranseq.inference_memory_bytes()
