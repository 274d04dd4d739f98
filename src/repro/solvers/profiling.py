"""Time and peak-memory profiling of solver runs (Figure 11).

Wraps a solver invocation in ``tracemalloc`` so the Figure 11(b) memory
comparison reflects actual allocation peaks, and wall-clocks the run for
Figure 11(a).  Since every solver scores candidates through the problem's
incremental replay engine, each profiled run also reports the engine's
counters (scratch vs incremental replays, prefix-step reuse, permutation
cache hit rate) — the replay work the engine avoided.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from ..telemetry import get_metrics, span
from .base import ReorderProblem, ReorderSolver, SolverResult


@dataclass(frozen=True)
class ProfiledRun:
    """A solver result annotated with measured time and memory."""

    result: SolverResult
    elapsed_seconds: float
    peak_memory_bytes: int
    #: Replay-engine counters accumulated during the run (see
    #: :class:`repro.rollup.replay_engine.ReplayEngineStats.as_dict`).
    #: Frozen at construction: exposed as a read-only mapping over a
    #: private copy, so a frozen run cannot be mutated through it.
    replay_stats: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "replay_stats", MappingProxyType(dict(self.replay_stats))
        )

    @property
    def solver_name(self) -> str:
        """The profiled solver's name."""
        return self.result.solver_name

    @property
    def peak_memory_kib(self) -> float:
        """Peak traced allocation in KiB."""
        return self.peak_memory_bytes / 1024.0

    @property
    def cache_hit_rate(self) -> float:
        """Permutation-cache hit rate over the profiled run."""
        return self.replay_stats.get("cache_hit_rate", 0.0)

    @property
    def mean_resume_depth(self) -> float:
        """Average reused-prefix length of incremental replays."""
        return self.replay_stats.get("mean_resume_depth", 0.0)


def profile_solver(
    solver: ReorderSolver,
    problem: ReorderProblem,
    extra_memory_bytes: int = 0,
) -> ProfiledRun:
    """Run ``solver`` on ``problem`` under tracemalloc.

    ``extra_memory_bytes`` adds a constant footprint the tracer cannot
    see — e.g. the DQN's pre-trained weights, which exist before the
    profiled inference call (Figure 11(b) counts them against the DQN).
    """
    stats_before = problem.replay_stats()
    # A caller may already be tracing (PYTHONTRACEMALLOC, -X tracemalloc,
    # its own profiler).  Nesting leaves that trace running but resets its
    # peak, and measures from the memory it already holds, so the reading
    # is the solver's own peak, as un-nested (where the baseline is 0).
    was_tracing = tracemalloc.is_tracing()
    if was_tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    started = time.perf_counter()
    with span("solver.profile", solver=solver.name) as current:
        try:
            result = solver.solve(problem)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            if not was_tracing:
                tracemalloc.stop()
        peak -= baseline
        elapsed = time.perf_counter() - started
        current.add(
            elapsed_s=elapsed,
            peak_bytes=peak + extra_memory_bytes,
            evaluations=result.evaluations,
        )
    stats_after = problem.replay_stats()
    # Counters are cumulative per problem; report this run's increments
    # for the additive ones and the final value for the derived rates
    # (hit rate, resume depth, reuse fraction, mean batch size).
    replay_stats = {
        key: (
            value - stats_before.get(key, 0.0)
            if not key.endswith(("_rate", "_depth", "_fraction", "_size"))
            else value
        )
        for key, value in stats_after.items()
    }
    metrics = get_metrics()
    metrics.counter("solver.profiled_runs", solver=solver.name).inc()
    metrics.histogram("solver.elapsed_seconds").observe(elapsed)
    annotated = SolverResult(
        solver_name=result.solver_name,
        best_order=result.best_order,
        best_objective=result.best_objective,
        original_objective=result.original_objective,
        elapsed_seconds=elapsed,
        evaluations=result.evaluations,
        peak_memory_bytes=peak + extra_memory_bytes,
        metadata=result.metadata,
    )
    return ProfiledRun(
        result=annotated,
        elapsed_seconds=elapsed,
        peak_memory_bytes=peak + extra_memory_bytes,
        replay_stats=replay_stats,
    )
