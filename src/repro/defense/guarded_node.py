"""Defense wired into the rollup pipeline (Section VIII, end to end).

:class:`GuardedRollupNode` extends the plain node: before each
aggregator's collection is executed, the mempool guard probes its
worst-case reordering profit; when flagged, the minimal demotion plan
runs and the demoted transactions are *requeued* — "sent to the block
behind" — instead of executed this round.  An adversarial aggregator
therefore receives a sanitised batch whose residual arbitrage is below
the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..config import DefenseConfig, GenTranSeqConfig, RollupConfig
from ..rollup.node import RollupNode, RoundReport
from ..rollup.state import L2State
from ..rollup.transaction import NFTTransaction
from .detector import MempoolGuard
from .mitigation import MitigationPlan, plan_demotion


@dataclass
class GuardedRoundReport(RoundReport):
    """Round report extended with defense telemetry."""

    plans: List[MitigationPlan] = field(default_factory=list)

    @property
    def total_demoted(self) -> int:
        """Transactions pushed to the next block this round."""
        return sum(plan.demoted_count for plan in self.plans)

    @property
    def flagged_batches(self) -> int:
        """Batches the guard flagged before sanitising."""
        return sum(1 for plan in self.plans if plan.initial_report.flagged)


class GuardedRollupNode(RollupNode):
    """A rollup node whose mempool runs the Section VIII guard."""

    report_type = GuardedRoundReport

    def __init__(
        self,
        l2_state: L2State,
        config: Optional[RollupConfig] = None,
        defense_config: Optional[DefenseConfig] = None,
        probe_config: Optional[GenTranSeqConfig] = None,
    ) -> None:
        super().__init__(l2_state, config)
        self.guard = MempoolGuard(
            config=defense_config, probe_config=probe_config
        )

    def _admit(
        self, collected: Tuple[NFTTransaction, ...], report: GuardedRoundReport
    ) -> Tuple[NFTTransaction, ...]:
        """Sanitise one collection: demoted transactions are requeued."""
        plan = plan_demotion(self.guard, self.l2_state.copy(), collected)
        report.plans.append(plan)
        if plan.demoted:
            self.mempool.requeue(plan.demoted)
        return plan.kept
