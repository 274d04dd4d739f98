"""Command-line interface: ``parole <subcommand>``.

Subcommands map one-to-one onto the experiment harnesses so every paper
table and figure can be regenerated from the shell::

    parole case-studies           # Figure 5
    parole attack --mempool 20    # one end-to-end attack round
    parole table3                 # Table III
    parole fig6 / fig7 / fig8 / fig9 / fig10 / fig11
    parole defense                # Section VIII evaluation
    parole telemetry trace.jsonl  # summarize a recorded span trace

``table3``, ``fig6``-``fig11`` and ``defense`` run the same registry
entry as ``run-all`` (via :func:`repro.api.run_experiment`), so each
prints exactly the text ``run-all`` archives at the same effort.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import api, experiments
from .config import eth_to_satoshi
from .experiments import FULL, QUICK, EffortPreset
from .parallel import TaskRunner, get_runner


def _preset(args: argparse.Namespace) -> EffortPreset:
    effort = getattr(args, "effort", None)
    if effort is not None:
        return FULL if effort == "full" else QUICK
    return FULL if getattr(args, "full", False) else QUICK


def _runner(args: argparse.Namespace) -> TaskRunner:
    """The fabric backend selected by ``--jobs``."""
    return get_runner(getattr(args, "jobs", 1))


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sweep (1 = serial, the default; "
             "negative = one per core); results are identical for "
             "every value",
    )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="content-addressed result store directory; completed "
             "experiments and sweep cells are reused across runs, so a "
             "killed run resumes where it stopped",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache and run everything cold",
    )
    parser.add_argument(
        "--cache-clear", action="store_true",
        help="empty the store before running",
    )


def _store(args: argparse.Namespace):
    """The ResultStore selected by the cache flags (None when disabled)."""
    cache_dir = getattr(args, "cache", None)
    if cache_dir is None or getattr(args, "no_cache", False):
        return None
    from .store import ResultStore

    store = ResultStore(cache_dir)
    if getattr(args, "cache_clear", False):
        store.clear()
    return store


def _cmd_case_studies(args: argparse.Namespace) -> int:
    cases = experiments.run_case_studies(certify_optimum=args.certify)
    print(experiments.render_case_studies(cases))
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    outcome = experiments.attack_round(
        mempool_size=args.mempool,
        num_ifus=args.ifus,
        preset=_preset(args),
        seed=args.seed,
    )
    print(f"arbitrage opportunity: {outcome.assessment.has_opportunity}")
    if outcome.result is not None:
        print(f"original objective : {outcome.result.original_objective:.4f} ETH")
        print(f"best objective     : {outcome.result.best_objective:.4f} ETH")
        print(f"profit             : {outcome.profit:.4f} ETH "
              f"({eth_to_satoshi(outcome.profit):,.0f} satoshi)")
    for ifu, profit in outcome.per_ifu_profit.items():
        print(f"  {ifu}: {profit:+.4f} ETH")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    """One registered experiment, run exactly as ``run-all`` runs it."""
    with _runner(args) as runner:
        outcome = api.run_experiment(
            args.command, _preset(args), runner=runner
        )
    print(outcome.text, end="")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .config import WorkloadConfig
    from .core import AttackCampaign

    preset = _preset(args)
    campaign = AttackCampaign(
        WorkloadConfig(
            mempool_size=args.mempool, num_users=max(8, args.mempool // 2),
            num_ifus=args.ifus, min_ifu_involvement=max(2, args.mempool // 4),
            seed=args.seed,
        ),
        preset.config(seed=args.seed),
    )
    report = campaign.run(args.rounds, store=_store(args))
    for record in report.rounds:
        print(f"round {record.round_index}: {record.profit_eth:+.4f} ETH "
              f"(attacked: {record.attacked})")
    print(f"cumulative profit: {report.total_profit_eth:.4f} ETH, "
          f"hit rate {report.hit_rate:.0%}")
    return 0


def _cmd_bisect(args: argparse.Namespace) -> int:
    from .rollup import BisectionGame, CorruptExecutor, honest_commitment
    from .workloads import case_study_fixture

    workload = case_study_fixture()
    game = BisectionGame(workload.pre_state)

    honest = honest_commitment(workload.pre_state, workload.transactions)
    clean = game.play(honest)
    print(f"honest batch       : fraud found = {clean.fraud_found}")

    corrupt = CorruptExecutor(fault_step=args.fault_step)
    forged = corrupt.commitment(workload.pre_state, workload.transactions)
    caught = game.play(forged)
    print(f"corrupted at step {args.fault_step}: fraud found = "
          f"{caught.fraud_found}, localised to step "
          f"{caught.divergent_step} in {caught.rounds_played} rounds")
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    import pathlib

    from .config import TelemetryConfig
    from .experiments import run_all

    store = _store(args)
    telemetry = TelemetryConfig(enabled=True) if args.telemetry else None
    records = run_all(
        pathlib.Path(args.out), preset=_preset(args), only=args.only,
        telemetry=telemetry, jobs=args.jobs, store=store,
    )
    failures = 0
    for record in records:
        status = "ok" if record.ok else f"FAILED ({record.error})"
        note = ""
        if record.cache is not None:
            if record.cache["experiment_hit"]:
                note = "  [cached]"
            elif record.cache["hits"] or record.cache["misses"]:
                note = (
                    f"  [tasks cached {record.cache['hits']}/"
                    f"{record.cache['hits'] + record.cache['misses']}]"
                )
        print(f"{record.experiment_id:<10} "
              f"{record.elapsed_seconds:7.1f}s  {status}{note}")
        failures += 0 if record.ok else 1
    from .experiments import write_report

    report_path = write_report(args.out)
    print(f"artifacts in {args.out}/, report at {report_path}")
    if store is not None:
        stats = store.stats
        print(f"cache: {stats.hits} hits / {stats.misses} misses "
              f"(hit ratio {stats.hit_ratio:.0%}), "
              f"{store.size_bytes()} bytes in {args.cache}")
    return 1 if failures else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import dataclasses

    from .faults import DEFAULT_MATRIX, ChaosScenario, run_matrix

    if args.matrix:
        scenarios = [
            dataclasses.replace(scenario, seed=scenario.seed + args.seed)
            for scenario in DEFAULT_MATRIX
        ]
    else:
        scenarios = [
            ChaosScenario(
                name="cli",
                seed=args.seed,
                rounds=args.rounds,
                crashes=args.crashes,
                partitions=args.partitions,
                commit_failures=args.commit_failures,
                drop_bursts=args.drop_bursts,
                stalls=args.stalls,
                corrupt_every=args.corrupt_every,
                flaky_every=args.flaky_every,
            )
        ]
    with _runner(args) as runner:
        reports = run_matrix(scenarios, runner=runner, store=_store(args))
    failures = 0
    for report in reports:
        print(report.render())
        print()
        if not report.ok:
            failures += 1
    print(f"{len(scenarios)} scenario(s), {failures} with invariant violations")
    return 1 if failures else 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .streaming import ScannerConfig, StreamConfig, run_stream

    cache_dir = getattr(args, "cache", None)
    if getattr(args, "no_cache", False):
        cache_dir = None
    if cache_dir is not None and getattr(args, "cache_clear", False):
        from .store import ResultStore

        ResultStore(cache_dir).clear()
    config = StreamConfig(
        lanes=args.lanes,
        duration_batches=args.duration_batches,
        batch_size=args.batch_size,
        submit_per_batch=args.submit_per_batch,
        shards=args.shards,
        seed=args.seed,
        scanner=ScannerConfig(max_swaps=args.max_swaps),
        cache_dir=cache_dir,
    )
    with _runner(args) as runner:
        report = run_stream(config, runner=runner)
    if args.json:
        print(report.deterministic_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_matrix(args: argparse.Namespace) -> int:
    import pathlib

    from .matrix import matrix_config_for, run_matrix

    store = _store(args)
    config = matrix_config_for(
        _preset(args).name,
        seed=args.seed,
        strategies=tuple(args.strategies) if args.strategies else None,
        defenses=tuple(args.defenses) if args.defenses else None,
        fault_plans=(
            tuple(args.fault_plans) if args.fault_plans is not None else None
        ),
    )
    with _runner(args) as runner:
        report = run_matrix(config, runner=runner, store=store)
    if args.json:
        print(report.deterministic_json())
    else:
        print(report.render())
    if args.out:
        pathlib.Path(args.out).write_text(report.deterministic_json() + "\n")
    if store is not None:
        stats = store.stats
        # stderr so a --json stdout stays byte-comparable across runs.
        print(
            f"cache: {stats.hits} hits / {stats.misses} misses "
            f"(hit ratio {stats.hit_ratio:.0%})",
            file=sys.stderr,
        )
    return 0 if report.ok else 1


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from .telemetry import summarize_trace, tail_trace

    if args.tail is not None:
        print(tail_trace(args.path, count=args.tail))
    else:
        print(summarize_trace(args.path))
    return 0


def _cmd_perf_export_trace(args: argparse.Namespace) -> int:
    from .telemetry import export_chrome_trace

    out, counts = export_chrome_trace(args.trace, args.out)
    print(
        f"exported {counts['events']} trace events from "
        f"{counts['records']} records to {out}"
        + (
            f" ({counts['skipped']} unparseable records skipped)"
            if counts["skipped"]
            else ""
        )
    )
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="parole",
        description="PAROLE (DSN 2024) reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    cases = subparsers.add_parser(
        "case-studies", help="replay the Figure 5 case studies"
    )
    cases.add_argument(
        "--certify", action="store_true",
        help="also exhaustively certify the optimal order",
    )
    cases.set_defaults(handler=_cmd_case_studies)

    attack = subparsers.add_parser("attack", help="run one attack round")
    attack.add_argument("--mempool", type=int, default=20)
    attack.add_argument("--ifus", type=int, default=1)
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument("--full", action="store_true",
                        help="use the paper's full Table II budget")
    attack.set_defaults(handler=_cmd_attack)

    for name, help_text in (
        ("table3", "regenerate Table III"),
        ("fig6", "profit vs number of IFUs"),
        ("fig7", "profit vs adversarial fraction"),
        ("fig8", "DQN learning curves"),
        ("fig9", "solution-size KDEs"),
        ("fig10", "NFT snapshot study"),
        ("fig11", "solver comparison"),
        ("defense", "Section VIII defense evaluation"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--full", action="store_true",
                         help="use the paper's full budgets")
        if name not in ("table3", "fig10"):
            _add_jobs_flag(sub)
        sub.set_defaults(handler=_cmd_experiment)

    campaign = subparsers.add_parser(
        "campaign", help="multi-round attack with a persistent agent"
    )
    campaign.add_argument("--rounds", type=int, default=5)
    campaign.add_argument("--mempool", type=int, default=12)
    campaign.add_argument("--ifus", type=int, default=1)
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--full", action="store_true")
    _add_cache_flags(campaign)
    campaign.set_defaults(handler=_cmd_campaign)

    bisect = subparsers.add_parser(
        "bisect", help="interactive fraud-proof bisection demo"
    )
    bisect.add_argument("--fault-step", type=int, default=3)
    bisect.set_defaults(handler=_cmd_bisect)

    run_all = subparsers.add_parser(
        "run-all", help="run every experiment, archiving text+JSON artifacts"
    )
    run_all.add_argument("--out", default="experiment-artifacts")
    run_all.add_argument("--only", nargs="*", default=None,
                         help="experiment ids to run (default: all)")
    run_all.add_argument("--full", action="store_true")
    run_all.add_argument(
        "--effort", choices=("quick", "full"), default=None,
        help="effort preset (equivalent to --full when 'full')",
    )
    run_all.add_argument(
        "--telemetry", action="store_true",
        help="record metrics, per-experiment manifests and a JSONL trace",
    )
    _add_jobs_flag(run_all)
    _add_cache_flags(run_all)
    run_all.set_defaults(handler=_cmd_run_all)

    chaos = subparsers.add_parser(
        "chaos",
        help="seeded fault-injection run with per-round invariant checks",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--rounds", type=int, default=10)
    chaos.add_argument(
        "--matrix", action="store_true",
        help="run the full seeded scenario matrix instead of one scenario",
    )
    chaos.add_argument("--crashes", type=int, default=2,
                       help="aggregator/verifier crash-restart pairs")
    chaos.add_argument("--partitions", type=int, default=1)
    chaos.add_argument("--commit-failures", type=int, default=1)
    chaos.add_argument("--drop-bursts", type=int, default=1)
    chaos.add_argument("--stalls", type=int, default=0)
    chaos.add_argument("--corrupt-every", type=int, default=0, metavar="K",
                       help="aggregator 0 forges every K-th post-state root")
    chaos.add_argument("--flaky-every", type=int, default=0, metavar="K",
                       help="aggregator 1 dies on every K-th execution")
    _add_jobs_flag(chaos)
    _add_cache_flags(chaos)
    chaos.set_defaults(handler=_cmd_chaos)

    stream = subparsers.add_parser(
        "stream",
        help="bounded soak of the always-on streaming attack pipeline "
             "(traffic -> sharded mempool -> scanner -> rollup lanes)",
    )
    stream.add_argument("--lanes", type=int, default=2,
                        help="independent rollup deployments to drive")
    stream.add_argument("--duration-batches", type=int, default=50,
                        help="block intervals to serve per lane")
    stream.add_argument("--batch-size", type=int, default=16,
                        help="transactions collected per interval")
    stream.add_argument("--submit-per-batch", type=int, default=24,
                        help="transactions submitted per interval "
                             "(above --batch-size builds a backlog)")
    stream.add_argument("--shards", type=int, default=4,
                        help="mempool shards (throughput knob; drain "
                             "order is identical for every value)")
    stream.add_argument("--max-swaps", type=int, default=12,
                        help="DQN rollout depth per scanned batch")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--json", action="store_true",
                        help="print the deterministic report as JSON")
    _add_jobs_flag(stream)
    _add_cache_flags(stream)
    stream.set_defaults(handler=_cmd_stream)

    matrix = subparsers.add_parser(
        "matrix",
        help="strategies x defenses x fault-plans leaderboard "
             "(profit, detection rate, revert rate per cell)",
    )
    matrix.add_argument(
        "--strategies", nargs="*", default=None, metavar="NAME",
        help="strategy plug-ins to run (default: every registered one; "
             "see 'repro.api.list_strategies()')",
    )
    matrix.add_argument(
        "--defenses", nargs="*", default=None, metavar="NAME",
        help="sequencing defenses to cross (default: every registered one)",
    )
    matrix.add_argument(
        "--fault-plans", nargs="*", default=None, metavar="NAME",
        help="chaos fault plans for the designated fault strategy "
             "(default: commit-failure mempool-stall aggregator-crash; "
             "pass with no values to skip fault cells)",
    )
    matrix.add_argument("--seed", type=int, default=0)
    matrix.add_argument("--full", action="store_true",
                        help="use the full-effort grid (more rounds)")
    matrix.add_argument("--json", action="store_true",
                        help="print the deterministic leaderboard as JSON")
    matrix.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the deterministic JSON to FILE",
    )
    _add_jobs_flag(matrix)
    _add_cache_flags(matrix)
    matrix.set_defaults(handler=_cmd_matrix)

    telemetry = subparsers.add_parser(
        "telemetry", help="summarize or tail a recorded JSONL trace"
    )
    telemetry.add_argument("path", help="path to a trace.jsonl file")
    telemetry.add_argument(
        "--tail", type=int, default=None, metavar="N",
        help="show the last N events instead of the summary",
    )
    telemetry.set_defaults(handler=_cmd_telemetry)

    perf = subparsers.add_parser(
        "perf", help="performance tools: Perfetto timeline export"
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    perf_export = perf_sub.add_parser(
        "export-trace",
        help="convert a JSONL span trace to Chrome-trace/Perfetto JSON",
    )
    perf_export.add_argument("trace", help="path to a trace.jsonl file")
    perf_export.add_argument(
        "--out", default=None, metavar="FILE",
        help="output path (default: <trace>.chrome.json)",
    )
    perf_export.set_defaults(handler=_cmd_perf_export_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
