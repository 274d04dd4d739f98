"""Deterministic fault injection and crash recovery for the rollup pipeline.

Real L2 deployments lose batches, drop messages and crash mid-commit —
exactly where revert-based MEV and private-mempool attacks become
profitable.  This package probes the reproduction's robustness under a
seeded, fully deterministic fault schedule:

* :mod:`~repro.faults.plan` — :class:`FaultPlan`: a seeded schedule of
  fault events (crash/restart, partitions/heals, drop-rate bursts,
  commit failures, mempool stalls) on the simulation timeline;
* :mod:`~repro.faults.injector` — :class:`FaultInjector`: applies a plan
  to live components through :class:`ChaosTargets`, recording injected
  fault counts and recovery latencies;
* :mod:`~repro.faults.invariants` — :class:`InvariantChecker`: the
  conservation / no-loss / monotonicity / pending-window checks that
  must hold after every round, faults or not;
* :mod:`~repro.faults.deployment` — :class:`Deployment`: the one
  strict :class:`~repro.rollup.RollupNode` deployment and round loop
  that stream lanes, matrix cells and chaos scenarios all run through:
  fault plan on one event clock, invariant sweep after every round;
* :mod:`~repro.faults.harness` — :class:`ChaosHarness`: seeded
  end-to-end scenarios on a :class:`Deployment`, with user submissions
  sent over a lossy simulated network, reported through
  ``repro.telemetry``; :func:`run_chaos` runs a list of them.

See ``docs/faults.md`` for the fault model and how to read the output.
"""

from .plan import FaultEvent, FaultKind, FaultPlan
from .injector import ChaosTargets, FaultInjector, RecoveryRecord
from .invariants import InvariantChecker, InvariantReport
from .deployment import Deployment, DeploymentRound
from .harness import (
    DEFAULT_MATRIX,
    ChaosHarness,
    ChaosReport,
    ChaosScenario,
    RoundRecord,
    run_chaos,
)

__all__ = [
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "ChaosTargets",
    "FaultInjector",
    "RecoveryRecord",
    "InvariantChecker",
    "InvariantReport",
    "Deployment",
    "DeploymentRound",
    "ChaosHarness",
    "ChaosReport",
    "ChaosScenario",
    "RoundRecord",
    "DEFAULT_MATRIX",
    "run_chaos",
]
