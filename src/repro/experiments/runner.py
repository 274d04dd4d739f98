"""Run-everything orchestration with archived artifacts.

``run_all`` executes every registered experiment at a chosen effort
preset and writes, per experiment, the rendered text (what the paper's
table/figure shows), a JSON payload with the structured results, and a
run manifest (``<id>.manifest.json`` — config hash, seed, git revision,
host fingerprint, duration, the process's peak resident set so far, and
a dump of every telemetry metric the run recorded) — so a full
reproduction run leaves a self-describing artifact directory behind.
Passing a :class:`~repro.config.TelemetryConfig` additionally records a
JSONL span trace next to the results.  The CLI exposes it as
``parole run-all``.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from ..config import SnapshotStudyConfig, TelemetryConfig
from ..errors import ReproError
from ..matrix.runner import (
    matrix_to_json,
    render_matrix,
    run_matrix_experiment,
)
from ..parallel import SerialRunner, TaskRunner, get_runner
from ..store import CodecError, ResultStore, decode, encode, experiment_key
from ..telemetry import ManifestRecorder, configure, get_metrics, get_tracer
from .common import EffortPreset, QUICK
from . import (
    defense_eval,
    fig5_cases,
    fig6_profit,
    fig7_adversarial,
    fig8_learning,
    fig9_solutions,
    fig10_snapshots,
    fig11_solvers,
    table3_gas,
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: id, runner, renderer, JSON extractor.

    ``run`` receives the effort preset, the RNG seed *and* the task
    runner, so every stochastic experiment is seeded explicitly from
    the spec (the seed lands in the run manifest) and its sweep fans
    out over the shared execution fabric.  ``seed`` is the default used
    by ``run_all``; deterministic experiments simply ignore both the
    seed and the runner.
    """

    experiment_id: str
    description: str
    run: Callable[[EffortPreset, int, TaskRunner], Any]
    render: Callable[[Any], str]
    to_json: Callable[[Any], Any]
    seed: int = 0


def _dataclass_list(items: Any) -> Any:
    if isinstance(items, list):
        return [_dataclass_list(item) for item in items]
    if isinstance(items, dict):
        return {str(k): _dataclass_list(v) for k, v in items.items()}
    if dataclasses.is_dataclass(items) and not isinstance(items, type):
        return _dataclass_list(dataclasses.asdict(items))
    if isinstance(items, (tuple, set)):
        return [_dataclass_list(item) for item in items]
    if isinstance(items, enum.Enum):
        return items.value
    return items


REGISTRY: Tuple[ExperimentSpec, ...] = (
    ExperimentSpec(
        "table3",
        "PT gas/fee behaviour in OpenSea transactions",
        table3_gas.run_table3,
        table3_gas.render_table3,
        _dataclass_list,
    ),
    ExperimentSpec(
        "fig5",
        "Section VI case studies",
        fig5_cases.run_case_studies,
        fig5_cases.render_case_studies,
        _dataclass_list,
    ),
    ExperimentSpec(
        "fig6",
        "average profit per IFU vs #IFUs",
        lambda preset, seed, runner: fig6_profit.run_fig6(
            # The paper's grid at FULL; a reduced grid for QUICK runs.
            mempool_sizes=(25, 50, 100) if preset.name == "full" else (10, 25),
            ifu_counts=(1, 2, 3, 4) if preset.name == "full" else (1, 2, 4),
            num_aggregators=10 if preset.name == "full" else 6,
            preset=preset,
            seed=seed,
            runner=runner,
        ),
        fig6_profit.render_fig6,
        _dataclass_list,
    ),
    ExperimentSpec(
        "fig7",
        "total profit vs adversarial fraction",
        lambda preset, seed, runner: fig7_adversarial.run_fig7(
            mempool_sizes=(50, 100) if preset.name == "full" else (25, 50),
            fractions=(
                (0.1, 0.2, 0.3, 0.4, 0.5) if preset.name == "full"
                else (0.25, 0.5, 0.75)
            ),
            num_aggregators=10 if preset.name == "full" else 4,
            preset=preset,
            seed=seed,
            runner=runner,
        ),
        fig7_adversarial.render_fig7,
        _dataclass_list,
    ),
    ExperimentSpec(
        "fig8",
        "DQN learning curves vs exploration",
        lambda preset, seed, runner: fig8_learning.run_fig8(
            ifu_counts=(1,), mempool_size=12, preset=preset,
            epsilon_decay=0.3 if preset.episodes < 50 else 0.05,
            seed=seed,
            runner=runner,
        ),
        fig8_learning.render_fig8,
        _dataclass_list,
    ),
    ExperimentSpec(
        "fig9",
        "KDE of solution sizes",
        lambda preset, seed, runner: fig9_solutions.run_fig9(
            mempool_sizes=(12,), ifu_counts=(1, 2), preset=preset,
            seed=seed,
            runner=runner,
        ),
        fig9_solutions.render_fig9,
        lambda curves: [
            {
                "mempool_size": c.mempool_size,
                "num_ifus": c.num_ifus,
                "solution_sizes": list(c.solution_sizes),
                "mode": c.mode,
            }
            for c in curves
        ],
    ),
    ExperimentSpec(
        "fig10",
        "NFT snapshot study",
        lambda preset, seed, runner: fig10_snapshots.run_fig10(
            SnapshotStudyConfig(seed=seed)
        ),
        fig10_snapshots.render_fig10,
        _dataclass_list,
    ),
    ExperimentSpec(
        "fig11",
        "DQN inference vs NLP solvers",
        lambda preset, seed, runner: fig11_solvers.run_fig11(
            sizes=(
                (5, 10, 25, 50, 100) if preset.name == "full"
                else (5, 10, 25)
            ),
            seed=seed,
            runner=runner,
        ),
        fig11_solvers.render_fig11,
        _dataclass_list,
    ),
    ExperimentSpec(
        "defense",
        "Section VIII detection + demotion",
        lambda preset, seed, runner: defense_eval.run_defense_eval(
            thresholds=(0.01, 0.3), rounds=2, preset=preset, seed=seed,
            runner=runner,
        ),
        defense_eval.render_defense_eval,
        _dataclass_list,
    ),
    ExperimentSpec(
        "matrix",
        "strategies x defenses x fault-plans leaderboard",
        run_matrix_experiment,
        render_matrix,
        matrix_to_json,
    ),
)


@dataclass
class SpecOutcome:
    """What one :func:`execute_spec` call produced.

    ``result`` is the live experiment result object on a cold run; on a
    cache hit it is the decoded stored result, or ``None`` when the
    result object was not storable (the rendered ``text``/``json_text``
    are always present and byte-identical to the cold run's).
    """

    result: Any
    text: str
    json_text: str
    cache_hit: bool = False


def execute_spec(
    spec: ExperimentSpec,
    preset: EffortPreset = QUICK,
    seed: Optional[int] = None,
    task_runner: Optional[TaskRunner] = None,
    store: Optional[ResultStore] = None,
) -> SpecOutcome:
    """Run one experiment through the uniform spec interface.

    The single execution path shared by :func:`run_all` and the
    :mod:`repro.api` facade.  With a ``store``, the whole experiment is
    memoized under :func:`~repro.store.keys.experiment_key` — a warm
    call returns the archived text/JSON renderings without recomputing
    anything — and the task runner's per-cell cache is pointed at the
    same store for the duration of the call.
    """
    seed = spec.seed if seed is None else seed
    runner = task_runner if task_runner is not None else SerialRunner()
    key = experiment_key(
        spec.experiment_id, preset.name, {"preset": preset}, seed
    )
    if store is not None:
        payload, found = store.fetch(key)
        if found:
            get_metrics().counter("store.experiment_hits").inc()
            result = None
            if payload.get("result") is not None:
                try:
                    result = decode(payload["result"])
                except CodecError:
                    result = None
            return SpecOutcome(
                result=result,
                text=payload["text"],
                json_text=payload["json"],
                cache_hit=True,
            )
        get_metrics().counter("store.experiment_misses").inc()
    previous_store = getattr(runner, "store", None)
    if store is not None:
        runner.store = store
    try:
        with get_tracer().span("experiment", experiment=spec.experiment_id):
            result = spec.run(preset, seed, runner)
    finally:
        runner.store = previous_store
    text = spec.render(result) + "\n"
    json_text = json.dumps(
        {
            "experiment": spec.experiment_id,
            "description": spec.description,
            "preset": preset.name,
            "seed": seed,
            "data": spec.to_json(result),
        },
        indent=2,
        default=str,
    )
    if store is not None:
        try:
            encoded = encode(result)
        except CodecError:
            encoded = None
        store.put(key, {"text": text, "json": json_text, "result": encoded})
    return SpecOutcome(result=result, text=text, json_text=json_text)


@dataclass
class RunRecord:
    """Outcome of one experiment run."""

    experiment_id: str
    elapsed_seconds: float
    text_path: str
    json_path: str
    ok: bool
    error: Optional[str] = None
    manifest_path: Optional[str] = None
    #: Per-experiment cache accounting (None when no store was active):
    #: experiment_hit flag, task hit/miss deltas and the task hit ratio.
    cache: Optional[dict] = None


def _cache_summary(
    store: ResultStore,
    before: dict,
    experiment_hit: bool,
) -> dict:
    """Task-cache deltas for one experiment, plus its hit ratio."""
    after = store.stats.snapshot()
    delta = {k: after[k] - before.get(k, 0) for k in after}
    looked_up = delta["hits"] + delta["misses"]
    return {
        "experiment_hit": experiment_hit,
        "hits": delta["hits"],
        "misses": delta["misses"],
        "puts": delta["puts"],
        "bytes_written": delta["bytes_written"],
        "bytes_read": delta["bytes_read"],
        "hit_ratio": delta["hits"] / looked_up if looked_up else 0.0,
    }


def run_all(
    output_dir: pathlib.Path,
    preset: EffortPreset = QUICK,
    only: Optional[List[str]] = None,
    telemetry: Optional[TelemetryConfig] = None,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
) -> List[RunRecord]:
    """Run every (or the selected) experiment, archiving artifacts.

    Each experiment gets a ``<id>.manifest.json`` next to its results.
    When ``telemetry`` is enabled, metrics and a JSONL span trace
    (``trace.jsonl`` in ``output_dir`` unless the config names a path)
    are recorded for the whole run, and each manifest snapshots the
    registry as of that experiment's completion.

    ``jobs`` selects the execution fabric backend each experiment's
    internal sweep fans out over: ``1`` (default) runs serially in
    process, ``N > 1`` runs a pool of N worker processes, and a
    negative value uses one per core.  Results are identical for every
    ``jobs`` value; worker telemetry is merged back into the parent
    registry, so manifests carry the complete stats either way.

    With a ``store``, completed experiments and their individual sweep
    cells are memoized content-addressed (see :mod:`repro.store`): a
    killed run resumes from the last completed task, and a warm rerun
    replays every artifact byte-identically from cache.  Each record
    (and manifest) carries its per-experiment hit accounting.
    """
    output_dir = pathlib.Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    wanted = set(only) if only else None
    unknown = (wanted or set()) - {spec.experiment_id for spec in REGISTRY}
    if unknown:
        raise ReproError(f"unknown experiment ids: {sorted(unknown)}")
    session = None
    if telemetry is not None and telemetry.enabled:
        if telemetry.trace_path is None:
            telemetry = dataclasses.replace(
                telemetry, trace_path=str(output_dir / "trace.jsonl")
            )
        session = configure(telemetry)
    records: List[RunRecord] = []
    try:
        with get_runner(jobs, store=store) as task_runner:
            for spec in REGISTRY:
                if wanted is not None and spec.experiment_id not in wanted:
                    continue
                records.append(
                    _run_one(spec, preset, output_dir, task_runner, store)
                )
        if session is not None:
            get_tracer().emit_metrics("run_all.final")
    finally:
        if session is not None:
            session.shutdown()
    return records


def _run_one(
    spec: ExperimentSpec,
    preset: EffortPreset,
    output_dir: pathlib.Path,
    task_runner: Optional[TaskRunner] = None,
    store: Optional[ResultStore] = None,
) -> RunRecord:
    text_path = output_dir / f"{spec.experiment_id}.txt"
    json_path = output_dir / f"{spec.experiment_id}.json"
    started = time.perf_counter()
    recorder = ManifestRecorder(
        experiment_id=spec.experiment_id,
        description=spec.description,
        preset=preset.name,
        seed=spec.seed,
        config={"preset": preset, "seed": spec.seed},
        out_dir=output_dir,
    )
    stats_before = store.stats.snapshot() if store is not None else {}
    cache_info: Optional[dict] = None
    try:
        with recorder:
            outcome = execute_spec(
                spec, preset, task_runner=task_runner, store=store
            )
            text_path.write_text(outcome.text)
            json_path.write_text(outcome.json_text)
            recorder.add_artifact("text", text_path)
            recorder.add_artifact("json", json_path)
            if store is not None:
                cache_info = _cache_summary(
                    store, stats_before, outcome.cache_hit
                )
                recorder.extra["cache"] = cache_info
            get_metrics().counter("experiments.completed").inc()
        return RunRecord(
            experiment_id=spec.experiment_id,
            elapsed_seconds=time.perf_counter() - started,
            text_path=str(text_path),
            json_path=str(json_path),
            ok=True,
            manifest_path=str(recorder.path) if recorder.path else None,
            cache=cache_info,
        )
    except Exception as exc:  # archive partial failures, keep going
        get_metrics().counter("experiments.failed").inc()
        if store is not None:
            cache_info = _cache_summary(store, stats_before, False)
        return RunRecord(
            experiment_id=spec.experiment_id,
            elapsed_seconds=time.perf_counter() - started,
            text_path=str(text_path),
            json_path=str(json_path),
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            manifest_path=str(recorder.path) if recorder.path else None,
            cache=cache_info,
        )
