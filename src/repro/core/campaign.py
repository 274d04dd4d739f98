"""Multi-round attack campaigns (the "IFU trains the model offline" story).

Section VII-F justifies comparing DQN *inference* cost because the
colluding IFU trains the model ahead of time.  :class:`AttackCampaign`
makes that concrete: one :class:`~repro.core.parole.ParoleAttack` (and
therefore one persistent DQN agent) is run across many rollup rounds;
experience accumulates in the replay buffer, so later rounds start from
a trained policy.  The campaign records per-round profit and solution
telemetry, letting the warm-start benefit be measured (see
``tests/conformance/test_extensions.py`` and
``examples/attack_campaign.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple


from ..config import AttackConfig, GenTranSeqConfig, WorkloadConfig
from ..workloads import Workload, generate_workload
from .parole import ParoleAttack

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel import TaskRunner


@dataclass(frozen=True)
class RoundRecord:
    """Telemetry of one campaign round."""

    round_index: int
    profit_eth: float
    attacked: bool
    first_solution_swaps: Tuple[int, ...]
    elapsed_seconds: float

    @property
    def min_solution_swaps(self) -> Optional[int]:
        """Smallest swap count that reached profit this round."""
        return min(self.first_solution_swaps) if self.first_solution_swaps else None


@dataclass
class CampaignReport:
    """Aggregated campaign outcome."""

    rounds: List[RoundRecord] = field(default_factory=list)

    @property
    def total_profit_eth(self) -> float:
        """Cumulative profit across all rounds."""
        return sum(record.profit_eth for record in self.rounds)

    @property
    def hit_rate(self) -> float:
        """Fraction of rounds where the attack fired profitably."""
        if not self.rounds:
            return 0.0
        return sum(1 for r in self.rounds if r.attacked) / len(self.rounds)

    def profits(self) -> List[float]:
        """Per-round profit series."""
        return [record.profit_eth for record in self.rounds]

    def split_halves(self) -> Tuple[List[float], List[float]]:
        """(early rounds, late rounds) profit split for warm-up analysis."""
        mid = len(self.rounds) // 2
        profits = self.profits()
        return profits[:mid], profits[mid:]


class AttackCampaign:
    """Run PAROLE across many rounds with a persistent agent."""

    def __init__(
        self,
        workload_config: Optional[WorkloadConfig] = None,
        gentranseq_config: Optional[GenTranSeqConfig] = None,
        objective_name: str = "mean",
    ) -> None:
        self.workload_config = workload_config or WorkloadConfig()
        self.objective_name = objective_name
        base_gts = gentranseq_config or GenTranSeqConfig()
        ifus = tuple(f"ifu-{i}" for i in range(self.workload_config.num_ifus))
        self.attack = ParoleAttack(
            config=AttackConfig(ifu_accounts=ifus, gentranseq=base_gts),
            objective_name=objective_name,
        )

    def _round_workload(self, round_index: int) -> Workload:
        import dataclasses

        config = dataclasses.replace(
            self.workload_config,
            seed=self.workload_config.seed + 7919 * round_index,
        )
        return generate_workload(config)

    def run(self, rounds: int, store=None) -> CampaignReport:
        """Attack ``rounds`` fresh mempools with the same agent.

        With a :class:`~repro.store.ResultStore`, the whole report is
        memoized under a key derived from both configs, the objective
        and the round count — a warm rerun returns the archived report
        without retraining (the campaign is sequential, so round-level
        caching would break the warm-start experience accumulation).
        """
        key = None
        if store is not None:
            from ..store import CodecError, decode, encode, experiment_key

            key = experiment_key(
                "campaign",
                "campaign",
                {
                    "workload": self.workload_config,
                    "gentranseq": self.attack.config.gentranseq,
                    "objective": self.objective_name,
                    "rounds": rounds,
                },
                self.workload_config.seed,
            )
            payload, found = store.fetch(key)
            if found:
                try:
                    return decode(payload)
                except CodecError:
                    pass
        report = CampaignReport()
        for round_index in range(rounds):
            workload = self._round_workload(round_index)
            outcome = self.attack.run(workload.pre_state, workload.transactions)
            result = outcome.result
            report.rounds.append(
                RoundRecord(
                    round_index=round_index,
                    profit_eth=outcome.profit,
                    attacked=outcome.attacked,
                    first_solution_swaps=tuple(
                        result.first_solution_swaps if result else ()
                    ),
                    elapsed_seconds=(
                        result.elapsed_seconds if result else 0.0
                    ),
                )
            )
        if store is not None and key is not None:
            try:
                store.put(key, encode(report))
            except CodecError:
                pass
        return report


def _cold_round(
    workload_config: WorkloadConfig,
    gentranseq_config: GenTranSeqConfig,
    round_index: int,
) -> RoundRecord:
    """One fresh-agent round (module-level so the fabric can ship it)."""
    fresh = AttackCampaign(workload_config, gentranseq_config)
    workload = fresh._round_workload(round_index)
    outcome = fresh.attack.run(workload.pre_state, workload.transactions)
    result = outcome.result
    return RoundRecord(
        round_index=round_index,
        profit_eth=outcome.profit,
        attacked=outcome.attacked,
        first_solution_swaps=tuple(
            result.first_solution_swaps if result else ()
        ),
        elapsed_seconds=result.elapsed_seconds if result else 0.0,
    )


def cold_vs_warm(
    workload_config: WorkloadConfig,
    gentranseq_config: GenTranSeqConfig,
    rounds: int,
    runner: Optional["TaskRunner"] = None,
) -> Tuple[CampaignReport, CampaignReport]:
    """Compare per-round fresh agents against one persistent agent.

    The *cold* report rebuilds the campaign (hence the agent) every
    round; the *warm* report reuses one campaign across all rounds.
    Identical workload seeds make the two directly comparable.  The
    cold rounds are mutually independent, so they fan out over
    ``runner`` (serial by default); the warm campaign is inherently
    sequential (experience carries across rounds) and always runs in
    process.
    """
    from ..parallel import SerialRunner, Task

    warm = AttackCampaign(workload_config, gentranseq_config).run(rounds)
    runner = runner if runner is not None else SerialRunner()
    tasks = [
        Task(
            fn=_cold_round,
            args=(workload_config, gentranseq_config, round_index),
            label=f"cold-round#{round_index}",
        )
        for round_index in range(rounds)
    ]
    cold_report = CampaignReport()
    cold_report.rounds.extend(runner.map(tasks))
    return cold_report, warm
