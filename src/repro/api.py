"""The public experiment facade: one import for the whole reproduction.

Six calls cover the common workflows documented in ``docs/api.md``:

* :func:`list_experiments` — what can be run (id + description + seed);
* :func:`run_experiment` — run one registered experiment through the
  uniform ``(preset, seed, runner)`` interface, optionally memoized in
  a content-addressed :class:`~repro.store.ResultStore`;
* :func:`list_strategies` — every adversary strategy plug-in registered
  in :data:`repro.strategies.STRATEGIES`;
* :func:`list_defenses` — every sequencing defense registered in
  :data:`repro.matrix.DEFENSES`;
* :func:`run_matrix` — the strategies × defenses × fault-plans
  leaderboard (what ``parole matrix`` prints);
* :func:`open_store` — open (or create) a store for resumable runs.

Prefer this module over importing individual ``run_figN`` harnesses:
the facade routes every experiment through the same registry entry the
CLI and ``run_all`` use, so results, renderings and cache keys are
guaranteed to match the archived artifacts.

>>> from repro import api
>>> [e.experiment_id for e in api.list_experiments()][:2]
['table3', 'fig5']
>>> outcome = api.run_experiment("table3")
>>> print(outcome.text, end="")  # doctest: +SKIP
"""

from __future__ import annotations

import pathlib
from typing import List, Optional, Sequence, Union

from .errors import ReproError
from .experiments import QUICK, EffortPreset
from .experiments.runner import (
    REGISTRY,
    ExperimentSpec,
    SpecOutcome,
    execute_spec,
)
from .matrix.defenses import DEFENSES
from .matrix.runner import MatrixReport, matrix_config_for
from .matrix.runner import run_matrix as _run_matrix_grid
from .parallel import TaskRunner
from .registry import RegistryEntry
from .store import ResultStore
from .strategies.registry import STRATEGIES

__all__ = [
    "list_experiments",
    "run_experiment",
    "list_strategies",
    "list_defenses",
    "run_matrix",
    "open_store",
]


def list_experiments() -> List[ExperimentSpec]:
    """Every registered experiment, in registry (paper) order."""
    return list(REGISTRY)


def _find_spec(experiment_id: str) -> ExperimentSpec:
    for spec in REGISTRY:
        if spec.experiment_id == experiment_id:
            return spec
    known = ", ".join(spec.experiment_id for spec in REGISTRY)
    raise ReproError(
        f"unknown experiment {experiment_id!r} (known: {known})"
    )


def run_experiment(
    experiment_id: str,
    effort: EffortPreset = QUICK,
    seed: Optional[int] = None,
    runner: Optional[TaskRunner] = None,
    store: Optional[ResultStore] = None,
) -> SpecOutcome:
    """Run one experiment by id; returns its :class:`SpecOutcome`.

    ``outcome.result`` is the structured result object, ``outcome.text``
    the paper-style rendering and ``outcome.json_text`` the archived
    JSON payload — exactly what ``parole run-all`` writes to disk.

    ``seed`` defaults to the registry seed (what ``run_all`` uses, so
    cached entries are shared with it).  With a ``store``, a warm call
    is a pure read: ``outcome.cache_hit`` is True and the renderings
    are byte-identical to the cold run's.
    """
    spec = _find_spec(experiment_id)
    return execute_spec(
        spec, effort, seed=seed, task_runner=runner, store=store
    )


def list_strategies() -> List[RegistryEntry]:
    """Every registered adversary strategy plug-in, in registry order.

    Each entry carries ``name``, ``description`` and the factory the
    matrix runner uses; register additional plug-ins on
    :data:`repro.strategies.STRATEGIES` and both this listing and
    :func:`run_matrix` pick them up.
    """
    return STRATEGIES.list()


def list_defenses() -> List[RegistryEntry]:
    """Every registered sequencing defense, in registry order."""
    return DEFENSES.list()


def run_matrix(
    strategies: Optional[Sequence[str]] = None,
    defenses: Optional[Sequence[str]] = None,
    fault_plans: Optional[Sequence[str]] = None,
    preset: Union[EffortPreset, str] = QUICK,
    seed: int = 0,
    runner: Optional[TaskRunner] = None,
    store: Optional[ResultStore] = None,
) -> MatrixReport:
    """Run the strategies × defenses × fault-plans leaderboard.

    ``strategies``/``defenses``/``fault_plans`` default to every
    registered name (``None`` means "all"); pass explicit subsets to
    shrink the grid.  The returned :class:`~repro.matrix.MatrixReport`
    renders the leaderboard (``report.render()``) and serializes to
    canonical JSON (``report.deterministic_json()``) that is
    byte-identical across ``runner`` parallelism and cold/warm
    ``store`` runs.
    """
    preset_name = preset if isinstance(preset, str) else preset.name
    config = matrix_config_for(
        preset_name,
        seed=seed,
        strategies=tuple(strategies) if strategies is not None else None,
        defenses=tuple(defenses) if defenses is not None else None,
        fault_plans=tuple(fault_plans) if fault_plans is not None else None,
    )
    return _run_matrix_grid(config=config, runner=runner, store=store)


def open_store(
    path: Union[str, pathlib.Path],
    max_bytes: Optional[int] = None,
    max_age_seconds: Optional[float] = None,
) -> ResultStore:
    """Open (creating if needed) a content-addressed result store.

    Pass the handle to :func:`run_experiment`,
    :func:`repro.experiments.run_all`, chaos runs or campaigns to make
    them resumable; see ``docs/store.md`` for the key anatomy and
    invalidation rules.
    """
    return ResultStore(
        path, max_bytes=max_bytes, max_age_seconds=max_age_seconds
    )
