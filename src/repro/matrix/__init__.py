"""Strategies × defenses × fault-plans leaderboard (``parole matrix``).

The matrix runner crosses every registered adversary strategy
(:mod:`repro.strategies`) against every sequencing defense
(:mod:`repro.matrix.defenses`) — and, for one designated strategy, a set
of chaos-harness fault plans — in isolated rollup deployments, with the
invariant checker sweeping every round.  The output is a deterministic
profit / detection-rate / revert-rate leaderboard whose canonical JSON
is byte-identical across ``--jobs`` values and cold/warm result stores.
"""

from .defenses import (
    DEFENSES,
    DefendedAggregator,
    Defense,
    DefenseRuling,
    EncryptedMempoolDefense,
    FCFSDefense,
    FeeAuctionDefense,
    GuardedDefense,
    default_defenses,
)
from .runner import (
    FAULT_PLAN_NAMES,
    CellResult,
    MatrixConfig,
    MatrixReport,
    build_fault_plan,
    matrix_config_for,
    matrix_to_json,
    render_matrix,
    run_matrix,
    run_matrix_experiment,
)

__all__ = [
    "DEFENSES",
    "DefendedAggregator",
    "Defense",
    "DefenseRuling",
    "EncryptedMempoolDefense",
    "FCFSDefense",
    "FeeAuctionDefense",
    "GuardedDefense",
    "default_defenses",
    "FAULT_PLAN_NAMES",
    "CellResult",
    "MatrixConfig",
    "MatrixReport",
    "build_fault_plan",
    "matrix_config_for",
    "matrix_to_json",
    "render_matrix",
    "run_matrix",
    "run_matrix_experiment",
]
