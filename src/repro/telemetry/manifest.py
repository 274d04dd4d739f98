"""Run manifests: the self-describing record written next to results.

A manifest answers "what exactly produced this artifact?" — experiment
id, effort preset, RNG seed, a stable hash of the config parameters, the
git revision, the host fingerprint, wall time, the process's peak
resident set, and a dump of every metric the run recorded.
``experiments/runner.run_all`` writes one per experiment
(``<id>.manifest.json``); benches and ad-hoc scripts can use
:class:`ManifestRecorder` directly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Union

from .metrics import get_metrics

__all__ = [
    "MANIFEST_SCHEMA",
    "RunManifest",
    "ManifestRecorder",
    "config_hash",
    "env_fingerprint",
    "git_revision",
]

MANIFEST_SCHEMA = "repro.telemetry/manifest/v1"


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to deterministic JSON-able primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonical(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=str)
        return [_canonical(item) for item in items]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def config_hash(params: Any) -> str:
    """Stable SHA-256 over a config mapping/dataclass (order-insensitive)."""
    payload = json.dumps(_canonical(params), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def env_fingerprint(
    kernel_backend: Optional[str] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The host properties that make two bench runs comparable.

    Everything that moves a number without a code change belongs here:
    core count, interpreter, numpy, OS/arch, and (for kernel benches)
    which compiled backend actually ran.
    """
    try:
        import numpy as np

        numpy_version = np.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep today
        numpy_version = None
    fingerprint: Dict[str, Any] = {
        "cpu_count": os.cpu_count() or 1,
        "python_version": platform.python_version(),
        "python_impl": platform.python_implementation(),
        "numpy_version": numpy_version,
        "platform": platform.system(),
        "machine": platform.machine(),
    }
    if kernel_backend is not None:
        fingerprint["kernel_backend"] = kernel_backend
    if extra:
        fingerprint.update(dict(extra))
    return fingerprint


def git_revision(root: Union[str, pathlib.Path, None] = None) -> Optional[str]:
    """Current git commit hash, read straight from ``.git`` (no subprocess).

    Walks up from ``root`` (default: this package's repository) to the
    first ``.git``.  That is a directory in a plain checkout; in a
    ``git worktree`` or submodule checkout it is a file whose
    ``gitdir:`` line names the real git directory, and a ``commondir``
    file there names the directory that holds the shared refs.  Returns
    ``None`` when not in a checkout.
    """
    start = pathlib.Path(root) if root is not None else pathlib.Path(__file__)
    for candidate in [start] + list(start.parents):
        dot_git = candidate / ".git"
        if not dot_git.exists():
            continue
        try:
            return _read_head(_git_dir(dot_git))
        except OSError:
            return None
    return None


def _git_dir(dot_git: pathlib.Path) -> pathlib.Path:
    """The git directory a ``.git`` directory or ``gitdir:`` file names."""
    if dot_git.is_dir():
        return dot_git
    pointer = dot_git.read_text().strip()
    if not pointer.startswith("gitdir:"):
        raise OSError(f"{dot_git} is neither a directory nor a gitdir file")
    # A relative pointer (submodules write one) is relative to the file.
    return dot_git.parent / pointer[len("gitdir:"):].strip()


def _read_head(git_dir: pathlib.Path) -> Optional[str]:
    """Resolve ``HEAD`` through a loose ref, then ``packed-refs``."""
    head = (git_dir / "HEAD").read_text().strip()
    if not head.startswith("ref:"):
        return head or None
    ref = head.split(None, 1)[1]
    common = git_dir
    commondir = git_dir / "commondir"
    if commondir.exists():
        common = git_dir / commondir.read_text().strip()
    for directory in (git_dir, common):
        loose = directory / ref
        if loose.is_file():
            return loose.read_text().strip()
    packed = common / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            fields = line.split()
            if len(fields) == 2 and fields[1] == ref:
                return fields[0]
    return None


def _peak_rss_bytes() -> int:
    """The process's resident-set high-water mark so far, in bytes.

    The larger of this process's ``ru_maxrss`` and that of its children;
    a child counts only once it has been waited for.  Linux reports KiB,
    macOS bytes.  0 where the platform has no ``getrusage``.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - Windows has no getrusage
        return 0
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak if sys.platform == "darwin" else peak * 1024


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce (and audit) one run."""

    experiment_id: str
    description: str = ""
    preset: str = ""
    seed: Optional[int] = None
    config: Dict[str, Any] = field(default_factory=dict)
    config_digest: str = ""
    git_rev: Optional[str] = None
    #: Host properties that move numbers without a code change
    #: (:func:`env_fingerprint`).
    env: Dict[str, Any] = field(default_factory=dict)
    started_at: str = ""
    duration_seconds: float = 0.0
    #: The process's resident-set high-water mark when the run ended, in
    #: bytes: it never falls within one process, so it is not per run.
    peak_memory_bytes: int = 0
    metrics: Dict[str, Any] = field(default_factory=dict)
    artifacts: Dict[str, str] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)
    schema: str = MANIFEST_SCHEMA

    def to_json(self) -> Dict[str, Any]:
        return _canonical(dataclasses.asdict(self))

    def write(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return path

    @classmethod
    def read(cls, path: Union[str, pathlib.Path]) -> "RunManifest":
        payload = json.loads(pathlib.Path(path).read_text())
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


class ManifestRecorder:
    """Context manager that measures a run and writes its manifest.

    Wall-clocks the block and, on exit, reads the process's peak
    resident set from ``getrusage`` (a high-water mark over the process
    and its reaped children, so it never falls within one process and
    is not specific to this block), fingerprints the host, snapshots the
    active metrics registry, and — when ``out_dir`` is given — writes
    ``<experiment_id>.manifest.json`` there.  The finished manifest is
    available as ``recorder.manifest`` afterwards.
    """

    def __init__(
        self,
        experiment_id: str,
        description: str = "",
        preset: str = "",
        seed: Optional[int] = None,
        config: Optional[Mapping[str, Any]] = None,
        out_dir: Union[str, pathlib.Path, None] = None,
        extra: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.experiment_id = experiment_id
        self.description = description
        self.preset = preset
        self.seed = seed
        self.config = dict(config or {})
        self.out_dir = pathlib.Path(out_dir) if out_dir is not None else None
        self.extra = dict(extra or {})
        self.manifest: Optional[RunManifest] = None
        self.path: Optional[pathlib.Path] = None
        self._started = 0.0
        self._started_wall = ""

    def add_artifact(self, name: str, path: Union[str, pathlib.Path]) -> None:
        """Register an output file the manifest should point at."""
        self.extra.setdefault("artifacts", {})[name] = str(path)

    def __enter__(self) -> "ManifestRecorder":
        self._started_wall = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._started
        extra = dict(self.extra)
        artifacts = {str(k): str(v) for k, v in extra.pop("artifacts", {}).items()}
        if exc_type is not None:
            extra["error"] = f"{exc_type.__name__}: {exc}"
        self.manifest = RunManifest(
            experiment_id=self.experiment_id,
            description=self.description,
            preset=self.preset,
            seed=self.seed,
            config=_canonical(self.config),
            config_digest=config_hash(self.config),
            git_rev=git_revision(),
            # No kernel_backend: finding it out compiles and loads the C kernel.
            env=env_fingerprint(),
            started_at=self._started_wall,
            duration_seconds=duration,
            peak_memory_bytes=_peak_rss_bytes(),
            metrics=get_metrics().snapshot(),
            artifacts=artifacts,
            extra=extra,
        )
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self.path = self.manifest.write(
                self.out_dir / f"{self.experiment_id}.manifest.json"
            )
