"""Outside-in layer ledger: spans around public methods of each layer.

The traced subprocess patches the public methods listed in ``LAYERS`` on
their classes (and restores them on :meth:`Ledger.uninstall`).  Every
patched call records a span — bucket, start, end, parent — while
recording is on, and its *self* time (duration minus the time its child
spans cover) is summed per bucket, one bucket per ``layer:method``.  Each
benchmark repetition is the root span, so whatever no layer claims is
the root's self time: the ``unattributed_s`` of the run.

Counts are observed where the work happens, from the wrapped call's
arguments, return value or instance.  A target that no longer exists is
reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept for the Chrome trace (plus the ancestors still open when
#: the cap is reached); self times and counts stay exact past it.
SPAN_CAP = 100_000

ROOT = "rep"


@dataclass(frozen=True)
class Layer:
    name: str
    #: (module, class, method) of every public call timed as this layer.
    targets: Tuple[Tuple[str, str, str], ...]


LAYERS: Tuple[Layer, ...] = (
    Layer("streaming.traffic", (
        ("repro.streaming.traffic", "TrafficGenerator", "next_batch"),
    )),
    Layer("streaming.mempool", (
        ("repro.streaming.mempool", "ShardedMempool", "submit"),
        ("repro.streaming.mempool", "ShardedMempool", "collect"),
        ("repro.streaming.mempool", "ShardedMempool", "pending"),
    )),
    Layer("rollup.node", (
        ("repro.rollup.node", "RollupNode", "run_round"),
        ("repro.rollup.node", "RollupNode", "finalize_ready_batches"),
    )),
    Layer("rollup.aggregator", (
        ("repro.rollup.aggregator", "Aggregator", "process"),
        ("repro.rollup.aggregator", "AdversarialAggregator",
         "order_transactions"),
    )),
    # ``observe`` of every class the strategy registry builds joins at
    # install time (``_registry_targets``); the scanner's adapter is the
    # streaming lanes' strategy.
    Layer("strategies", (
        ("repro.streaming.scanner", "ScannerStrategy", "observe"),
    )),
    Layer("matrix.defenses", ()),
    Layer("streaming.scanner", (
        ("repro.streaming.scanner", "BatchScanner", "scan"),
    )),
    Layer("solvers", (
        ("repro.solvers.dqn_solver", "DQNInferenceSolver", "solve"),
        ("repro.solvers.annealing", "SimulatedAnnealingSolver", "solve"),
        ("repro.solvers.base", "ReorderProblem", "score_many"),
    )),
    Layer("drl.network", (
        ("repro.drl.network", "MLP", "forward"),
        ("repro.drl.network", "MLP", "backward"),
        ("repro.drl.network", "AdamOptimizer", "step"),
    )),
    Layer("core.encoding", (
        ("repro.core.encoding", "TransactionEncoder", "encode_columns"),
    )),
    Layer("core.environment", (
        ("repro.core.environment", "ReorderEnv", "step"),
        ("repro.core.environment", "ReorderEnv", "evaluate_order"),
        ("repro.core.environment", "ReorderEnv", "evaluate_orders"),
    )),
    Layer("rollup.replay_engine", (
        ("repro.rollup.replay_engine", "IncrementalOVM", "evaluate"),
        ("repro.rollup.replay_engine", "BatchReplayEngine", "evaluate_many"),
    )),
    Layer("rollup.ovm", (
        ("repro.rollup.ovm", "OVM", "replay"),
    )),
    Layer("crypto.merkle", (
        ("repro.crypto.merkle", "MerkleTree", "__init__"),
    )),
    Layer("chain.orsc", (
        ("repro.chain.orsc", "OptimisticRollupContract", "commit_batch"),
        ("repro.chain.orsc", "OptimisticRollupContract", "finalize"),
        ("repro.chain.orsc", "OptimisticRollupContract", "challenge"),
    )),
    Layer("rollup.verifier", (
        ("repro.rollup.verifier", "Verifier", "inspect"),
    )),
    Layer("faults.invariants", (
        ("repro.faults.invariants", "InvariantChecker", "check"),
        ("repro.faults.invariants", "InvariantChecker", "on_report"),
    )),
)

#: Counted but not timed: the environment's evaluation-cache lookups.
PROBE = ("repro.rollup.replay_engine", "PermutationCache", "get")

#: Methods of the registry-built classes that join a layer at install.
_REGISTRY_METHODS = {
    "strategies": ("observe",),
    "matrix.defenses": ("blind", "reveal", "enforce"),
}


def _registry_targets(layer: str) -> List[Tuple[type, str]]:
    if layer == "strategies":
        from repro.strategies.registry import STRATEGIES, StrategyContext

        context = StrategyContext(ifus=("bench-ifu",))
        classes = [type(STRATEGIES.create(info.name, context))
                   for info in STRATEGIES.list()]
    else:
        from repro.matrix import DEFENSES

        classes = [info.factory for info in DEFENSES.list()]
    return [(cls, method) for cls in classes
            for method in _REGISTRY_METHODS[layer]]


def _defining_class(cls: type, method: str) -> Optional[type]:
    for klass in cls.__mro__:
        if method in vars(klass):
            return klass
    return None


def resolve_targets() -> Tuple[List[Tuple[str, type, str]], List[str]]:
    """Every (layer, class, method) to wrap, and the targets not found.

    A method several listed classes inherit is wrapped once, on the
    class that defines it.
    """
    found: List[Tuple[str, type, str]] = []
    missing: List[str] = []
    seen = set()

    def add(layer: str, cls: type, method: str, label: str) -> None:
        owner = _defining_class(cls, method)
        if owner is None:
            missing.append(label)
        elif (owner, method) not in seen:
            seen.add((owner, method))
            found.append((layer, owner, method))

    for layer in LAYERS:
        for module, cls_name, method in layer.targets:
            label = f"{module}.{cls_name}.{method}"
            try:
                cls = getattr(importlib.import_module(module), cls_name)
            except (ImportError, AttributeError):
                missing.append(label)
                continue
            add(layer.name, cls, method, label)
        if layer.name in _REGISTRY_METHODS:
            try:
                targets = _registry_targets(layer.name)
            except (ImportError, AttributeError) as exc:
                missing.append(f"{layer.name} registry ({exc})")
                continue
            for cls, method in targets:
                add(layer.name, cls, method,
                    f"{cls.__module__}.{cls.__qualname__}.{method}")
    return found, missing


class Ledger:
    """Span recorder plus the class patches that feed it."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.recording = False
        self.reps = 0
        self.wall_s = 0.0
        #: Self seconds and call counts per ``layer:method`` bucket.
        self.self_s: Dict[str, float] = {ROOT: 0.0}
        self.calls: Dict[str, int] = {ROOT: 0}
        self.counts: Dict[str, float] = {}
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.dropped = 0
        self.missing: List[str] = []
        self.engine_stats: Dict[int, Any] = {}
        self._stack: List[List[float]] = []
        self._next_id = 1
        self._patches: List[Tuple[type, str, Any]] = []
        self._origin: Optional[float] = None
        self._cutoff = float("inf")
        self._root = self._timed(ROOT, lambda fn: fn(), None)

    # -- installation --------------------------------------------------- #

    def install(self) -> None:
        targets, self.missing = resolve_targets()
        for layer, cls, method in targets:
            bucket = f"{layer}:{method}"
            self._patch(cls, method, self._timed(
                bucket, vars(cls)[method], _AFTER.get(bucket)
            ))
        module, cls_name, method = PROBE
        try:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, method, self._probe(vars(cls)[method]))
        except (ImportError, AttributeError, KeyError):
            self.missing.append(".".join(PROBE))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._patches):
            setattr(cls, method, original)
        self._patches.clear()

    def _patch(self, cls: type, method: str, wrapper: Callable) -> None:
        self._patches.append((cls, method, vars(cls)[method]))
        setattr(cls, method, wrapper)

    def _timed(self, bucket: str, fn: Callable,
               after: Optional[Callable]) -> Callable:
        ledger = self
        stack = self._stack
        spans = self.spans
        self.self_s.setdefault(bucket, 0.0)
        self.calls.setdefault(bucket, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ledger.recording:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else 0
            frame = [ledger._next_id, 0.0]
            ledger._next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                ledger.self_s[bucket] += elapsed - frame[1]
                ledger.calls[bucket] += 1
                if stack:
                    stack[-1][1] += elapsed
                # Past the cap, only spans still open at that moment (the
                # ancestors of kept spans) are kept, so no parent is lost.
                if start < ledger._cutoff:
                    spans.append((bucket, start, end, frame[0], parent))
                    if len(spans) == SPAN_CAP:
                        ledger._cutoff = end
                else:
                    ledger.dropped += 1
            if after is not None:
                after(ledger, args, result)
            return result

        return wrapper

    def _probe(self, fn: Callable) -> Callable:
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if ledger.recording:
                ledger.count("cache_misses" if result is None else "cache_hits")
            return result

        return wrapper

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    # -- repetitions ---------------------------------------------------- #

    def run_rep(self, fn: Callable[[], Any]) -> Any:
        """Run one repetition as the root span, with recording on."""
        if self._origin is None:
            self._origin = time.perf_counter()
        self.recording = True
        started = time.perf_counter()
        try:
            return self._root(fn)
        finally:
            self.wall_s += time.perf_counter() - started
            self.recording = False
            self.reps += 1

    # -- results -------------------------------------------------------- #

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics this ledger measures, per repetition.

        Shares are self time over the traced wall; counts are per
        repetition (every repetition serves identical inputs).
        """
        reps = max(self.reps, 1)
        wall = self.wall_s or float("inf")

        def matches(bucket: str, layer: str, method: str) -> bool:
            owner, _, called = bucket.partition(":")
            return owner == layer and method in ("", called)

        def self_of(layer: str, method: str = "") -> float:
            return sum(seconds for bucket, seconds in self.self_s.items()
                       if matches(bucket, layer, method))

        def calls_of(layer: str, method: str = "") -> float:
            return sum(calls for bucket, calls in self.calls.items()
                       if matches(bucket, layer, method)) / reps

        def count(key: str) -> float:
            return self.counts.get(key, 0.0) / reps

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        values = {
            f"{layer.name}.self_share": self_of(layer.name) / wall
            for layer in LAYERS
            if layer.name not in ("streaming.mempool", "rollup.replay_engine")
        }
        for method in ("submit", "collect", "pending"):
            values[f"streaming.mempool.{method}_share"] = (
                self_of("streaming.mempool", method) / wall
            )
        scans = self.counts.get("scans", 0.0)
        hits = self.counts.get("cache_hits", 0.0)
        reused = sum(getattr(s, "steps_reused", 0)
                     for s in self.engine_stats.values())
        executed = sum(getattr(s, "steps_executed", 0)
                       for s in self.engine_stats.values())
        values.update({
            "streaming.traffic.calls": calls_of("streaming.traffic"),
            "streaming.mempool.backlog_max": self.counts.get("backlog_max", 0.0),
            "rollup.node.rounds": calls_of("rollup.node", "run_round"),
            "rollup.aggregator.rejected": count("rejected"),
            "strategies.calls": calls_of("strategies"),
            "matrix.defenses.calls": calls_of("matrix.defenses"),
            "streaming.scanner.scans": count("scans"),
            "streaming.scanner.hit_rate": ratio(
                self.counts.get("reordered", 0.0), scans
            ),
            "streaming.scanner.degraded": count("degraded"),
            "solvers.evaluations": count("evaluations"),
            "drl.network.calls": calls_of("drl.network"),
            "core.encoding.calls": calls_of("core.encoding"),
            "core.environment.cache_hit_rate": ratio(
                hits, hits + self.counts.get("cache_misses", 0.0)
            ),
            "rollup.replay_engine.k1_share":
                self_of("rollup.replay_engine", "evaluate") / wall,
            "rollup.replay_engine.k1_calls":
                calls_of("rollup.replay_engine", "evaluate"),
            "rollup.replay_engine.batch_share":
                self_of("rollup.replay_engine", "evaluate_many") / wall,
            "rollup.replay_engine.batch_candidates": count("batch_candidates"),
            "rollup.replay_engine.step_reuse_fraction": ratio(
                reused, reused + executed
            ),
            "rollup.ovm.replays": calls_of("rollup.ovm"),
            "crypto.merkle.trees": calls_of("crypto.merkle"),
            "chain.orsc.commits": calls_of("chain.orsc", "commit_batch"),
            "rollup.verifier.inspections": calls_of("rollup.verifier"),
            "faults.invariants.sweeps": calls_of("faults.invariants", "check"),
            "unattributed_share": self.self_s[ROOT] / wall,
            "unattributed_s": self.self_s[ROOT] / reps,
            "traced_wall_s": self.wall_s / reps,
        })
        return values

    def write_chrome_trace(self, path: pathlib.Path,
                           meta: Dict[str, Any]) -> None:
        """Chrome Trace Event JSON (opens in Perfetto / chrome://tracing)."""
        events: List[Dict[str, Any]] = [
            {"ph": "M", "name": "process_name", "pid": 1,
             "args": {"name": self.workload}},
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
             "args": {"name": "benchmark"}},
        ]
        origin = self._origin or 0.0
        for bucket, start, end, span_id, parent in self.spans:
            events.append({
                "name": bucket, "cat": bucket.split(":", 1)[0],
                "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": span_id, "parent": parent,
                         "workload": self.workload},
            })
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(meta, workload=self.workload,
                              spans_dropped=self.dropped),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


# --------------------------------------------------------------------- #
# Counts observed at the layer boundaries, keyed by bucket.
# --------------------------------------------------------------------- #


def _after_collect(ledger: Ledger, args, result) -> None:
    backlog = len(args[0]) + len(result)
    if backlog > ledger.counts.get("backlog_max", 0.0):
        ledger.counts["backlog_max"] = float(backlog)


def _after_order(ledger: Ledger, args, result) -> None:
    # The aggregator clears ``last_action`` exactly when it rejects one.
    if getattr(args[0], "last_action", True) is None:
        ledger.count("rejected")


def _after_scan(ledger: Ledger, args, result) -> None:
    action = result[1].action
    ledger.count("scans")
    if action in ("reordered", "degraded"):
        ledger.count(action)


def _after_solve(ledger: Ledger, args, result) -> None:
    ledger.count("evaluations", result.evaluations)


def _after_replay(ledger: Ledger, args, result) -> None:
    stats = args[0].stats
    ledger.engine_stats[id(stats)] = stats


def _after_batch_replay(ledger: Ledger, args, result) -> None:
    _after_replay(ledger, args, result)
    ledger.count("batch_candidates", len(args[1]))


_AFTER: Dict[str, Callable] = {
    "streaming.mempool:collect": _after_collect,
    "rollup.aggregator:order_transactions": _after_order,
    "streaming.scanner:scan": _after_scan,
    "solvers:solve": _after_solve,
    "rollup.replay_engine:evaluate": _after_replay,
    "rollup.replay_engine:evaluate_many": _after_batch_replay,
}
