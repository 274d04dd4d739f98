"""The benchmark workloads, each driving one public entry point.

A workload is opened once per subprocess (``open_session``); that is the
set-up ``setup_s`` measures.  Each :meth:`rep` then serves one complete
repetition and returns what it measured together with the correctness
verdict of its outputs.  Every rep of a session sees the same inputs, so
its digest must repeat exactly; a rep's inputs are a pure function of the
workload seed.  ``BENCHMARK.json`` names the workloads; each session's
``ITEM`` says what ``work_per_s`` counts and ``STEP`` what one sample of
``step_p50_ms`` times.

Nothing here reaches into private ``repro`` names: the stream runs through
``run_stream``, the solver through ``ReorderProblem`` +
``SimulatedAnnealingSolver``, the grid through ``run_matrix`` on a
``get_runner`` fabric, and the paper path through ``run_all``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pathlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import api
from repro.config import WorkloadConfig
from repro.core.multi_ifu import mean_wealth
from repro.experiments import QUICK, run_all
from repro.matrix import MatrixConfig, run_matrix
from repro.parallel import Task, get_runner, spawn_task_seeds
from repro.rollup.ovm import OVM
from repro.solvers import ReorderProblem, SimulatedAnnealingSolver
from repro.streaming import StreamConfig, run_stream
from repro.workloads import generate_workload


@dataclass
class Rep:
    """What one repetition of a workload measured and checked."""

    #: The whole repetition, as the benchmark timed it from outside.
    wall_s: float
    #: Seconds of the timed public calls that ``items`` is divided by;
    #: the steps are part of it.
    work_s: float
    #: Units of work completed (the session's ``ITEM``).
    items: int
    #: Service time of every step (the session's ``STEP``), in order.
    #: Steps are short (tens of milliseconds where the entry point
    #: allows it) because the best case of a short step is what stays
    #: steady on a shared machine.
    steps_ms: List[float]
    #: Digest of the deterministic outputs; identical for every rep.
    digest: str
    attempted: int
    failed: int
    #: What each failed check found, for the report.
    problems: List[str] = field(default_factory=list)
    #: Workload-specific readings the traced pass reports per layer.
    extra: Dict[str, float] = field(default_factory=dict)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def warm_native_code() -> None:
    """Compile the batch-replay C kernel now, so set-up pays for it.

    The kernel loader is an internal module that the replay-path
    consolidation on the roadmap may move; without it the program still
    runs, so its absence only means there is nothing to warm.
    """
    try:
        from repro.rollup.ckernel import kernel_backend
    except ImportError:
        return
    kernel_backend()


# --------------------------------------------------------------------- #
# stream-backlog / stream-steady
# --------------------------------------------------------------------- #


class _WarningCounter(logging.Handler):
    """Counts the rollup's warnings: each marks a recovered round failure,
    a challenge or a rollback, none of which a clean stream produces."""

    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def violating_intervals(report) -> int:
    """Block intervals with at least one invariant violation.

    A lane's violations read ``"batch N: ..."``; one interval can report
    several, and lanes number their intervals independently.
    """
    return len({
        (lane.lane, violation.split(":", 1)[0])
        for lane in report.lanes for violation in lane.violations
    })


class StreamSession:
    ITEM = "included transaction"
    STEP = "block interval (one RollupNode.run_round)"

    def __init__(self, config: StreamConfig) -> None:
        self.config = config
        self._warnings = _WarningCounter()
        self._logger = logging.getLogger("repro.rollup")
        self._logger.addHandler(self._warnings)

    def rep(self) -> Rep:
        before = self._warnings.count
        started = time.perf_counter()
        report = run_stream(self.config)
        wall = time.perf_counter() - started
        problems = []
        if report.total_included + sum(
            lane.pending for lane in report.lanes
        ) != report.total_submitted:
            problems.append(
                f"included {report.total_included} + pending != "
                f"submitted {report.total_submitted}"
            )
        return Rep(
            wall_s=wall,
            work_s=report.elapsed_seconds,
            items=report.total_included,
            steps_ms=[ms for lane in report.lanes for ms in lane.batch_wall_ms],
            digest=_sha(report.deterministic_json()),
            attempted=self.config.lanes * self.config.duration_batches,
            failed=violating_intervals(report) + self._warnings.count - before,
            problems=problems,
        )

    def close(self) -> None:
        self._logger.removeHandler(self._warnings)


def _stream_config(seed: int, size: str, submit_per_batch: int,
                   batches: int) -> StreamConfig:
    return StreamConfig(
        lanes=1,
        duration_batches=batches if size == "full" else 6,
        batch_size=16,
        submit_per_batch=submit_per_batch,
        shards=4,
        seed=seed,
    )


# --------------------------------------------------------------------- #
# solver-k1 / solver-k32
# --------------------------------------------------------------------- #


def oracle_mismatch(workload, result) -> Optional[str]:
    """Re-score a solver's answer with a from-scratch python ``OVM.replay``.

    The python OVM is the reference every fast replay path must match:
    the best order must keep every originally executed transaction
    executable, leave inventory consistent, and reproduce the reported
    objective bit for bit.
    """
    ovm = OVM()
    txs = workload.transactions
    original = ovm.replay(workload.pre_state, txs)
    required = {i for i, step in enumerate(original.steps) if step.executed}
    order = result.best_order
    trace = ovm.replay(workload.pre_state, [txs[i] for i in order])
    executed = {order[p] for p, step in enumerate(trace.steps) if step.executed}
    if not (required <= executed and trace.consistent()):
        return "best order is infeasible under OVM.replay"
    objective = mean_wealth(
        {ifu: trace.final_wealth(ifu) for ifu in workload.ifus}
    )
    if objective != result.best_objective:
        return f"OVM.replay objective {objective!r} != {result.best_objective!r}"
    return None


class SolverSession:
    """The same four generated problems, solved on one replay path.

    ``restarts=1`` takes the incremental single-order replay (K=1);
    ``restarts=32`` scores every chain's proposal per iteration through
    the batch kernel (K=32).  Iterations are set so one solve takes
    20-40 ms on either path; the evaluation rate is the same as for
    solves ten times longer.
    """

    ITEM = "candidate ordering scored"
    STEP = "one solve"
    #: restarts -> (N of each generated problem, iterations) per size.
    SIZES = {
        1: {"full": ((25, 50, 50, 75), 400), "smoke": ((25, 50), 100)},
        32: {"full": ((25, 50, 50, 75), 40), "smoke": ((25, 50), 10)},
    }

    def __init__(self, seed: int, size: str, restarts: int) -> None:
        sizes, iterations = self.SIZES[restarts][size]
        self.workloads = [
            generate_workload(
                WorkloadConfig(
                    mempool_size=n, num_users=20, num_ifus=2, seed=problem_seed
                )
            )
            for n, problem_seed in zip(sizes, spawn_task_seeds(seed, len(sizes)))
        ]
        self.solver = SimulatedAnnealingSolver(
            iterations=iterations, restarts=restarts, seed=seed
        )

    def rep(self) -> Rep:
        started = time.perf_counter()
        solve_s = 0.0
        evaluations = 0
        steps_ms, answers, problems = [], [], []
        for workload in self.workloads:
            problem = ReorderProblem(
                pre_state=workload.pre_state,
                transactions=workload.transactions,
                ifus=workload.ifus,
            )
            solve_started = time.perf_counter()
            result = self.solver.solve(problem)
            elapsed = time.perf_counter() - solve_started
            solve_s += elapsed
            evaluations += result.evaluations
            steps_ms.append(elapsed * 1000.0)
            answers.append(
                [list(result.best_order), repr(result.best_objective),
                 result.evaluations]
            )
            mismatch = oracle_mismatch(workload, result)
            if mismatch is not None:
                problems.append(f"N={workload.mempool_size}: {mismatch}")
        return Rep(
            wall_s=time.perf_counter() - started,
            work_s=solve_s,
            items=evaluations,
            steps_ms=steps_ms,
            digest=_sha(json.dumps(answers)),
            attempted=len(answers),
            failed=len(problems),
            problems=problems,
        )

    def close(self) -> None:
        pass


# --------------------------------------------------------------------- #
# matrix-grid
# --------------------------------------------------------------------- #


class MatrixSession:
    ITEM = "matrix cell"
    STEP = "one whole grid"
    WORKERS = 2

    def __init__(self, seed: int, size: str, jobs: int) -> None:
        if size == "full":
            # The grid is the smallest unit timed here, so it is kept
            # short: two rounds is the fewest that fire every fault plan,
            # and the quick preset trains the DQN strategies for less.
            self.config = MatrixConfig(
                preset="quick", rounds=2, batch_size=10, submit_per_batch=14,
                seed=seed,
            )
        else:
            self.config = MatrixConfig(
                strategies=("honest", "revert-spam"),
                defenses=("none", "fcfs"),
                fault_plans=("commit-failure",),
                rounds=2,
                seed=seed,
            )
        self.runner = get_runner(jobs)
        # The fabric starts its workers on the first map; pay that here.
        started = time.perf_counter()
        self.runner.map([Task(fn=os.getpid, label="bench-warm-up")])
        self.pool_start_s = time.perf_counter() - started

    def rep(self, runner=None) -> Rep:
        runner = runner or self.runner
        started = time.perf_counter()
        report = run_matrix(self.config, runner=runner)
        wall = time.perf_counter() - started
        scheduler = getattr(runner, "last_scheduler", None)
        return Rep(
            wall_s=wall,
            work_s=wall,
            items=len(report.cells),
            steps_ms=[wall * 1000.0],
            digest=_sha(report.deterministic_json()),
            attempted=len(report.cells),
            failed=sum(1 for cell in report.cells if cell.violations),
            extra={"steals": float(getattr(scheduler, "steals", 0))},
        )

    def serial_rep(self) -> Rep:
        """One rep on the in-process runner: the fabric's reference."""
        with get_runner(1) as serial:
            return self.rep(serial)

    def close(self) -> None:
        self.runner.close()


# --------------------------------------------------------------------- #
# paper-quick
# --------------------------------------------------------------------- #


def artifact_digest(out_dir: pathlib.Path) -> str:
    """Digest of every artifact but the run manifests (wall-clock)."""
    return _sha(json.dumps([
        [path.name, _sha(path.read_text())]
        for path in sorted(out_dir.iterdir())
        if not path.name.endswith(".manifest.json")
    ]))


class PaperSession:
    ITEM = "experiment"
    STEP = "one experiment (RunRecord.elapsed_seconds)"
    #: Fig. 8 (DQN training) is the longest experiment that still repeats
    #: about twenty times in a run; the longer figures would leave too
    #: few repetitions for a steady best case.
    SIZES = {
        "full": ("table3", "fig5", "fig8"),
        "smoke": ("table3", "fig5"),
    }

    def __init__(self, size: str, work_dir: pathlib.Path) -> None:
        self.experiments = self.SIZES[size]
        self.work_dir = work_dir

    def rep(self) -> Rep:
        out_dir = pathlib.Path(tempfile.mkdtemp(prefix="paper-", dir=self.work_dir))
        try:
            started = time.perf_counter()
            records = run_all(out_dir, QUICK, only=list(self.experiments))
            wall = time.perf_counter() - started
            digest = artifact_digest(out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return Rep(
            wall_s=wall,
            work_s=wall,
            items=len(records),
            steps_ms=[record.elapsed_seconds * 1000.0 for record in records],
            digest=digest,
            attempted=len(self.experiments),
            failed=sum(1 for record in records if not record.ok)
            + len(self.experiments) - len(records),
        )

    def direct_compute_s(self) -> float:
        """The same experiments through ``run_experiment``: no manifests."""
        started = time.perf_counter()
        for experiment_id in self.experiments:
            api.run_experiment(experiment_id, QUICK)
        return time.perf_counter() - started

    def close(self) -> None:
        pass


def open_session(name: str, seed: int, size: str, work_dir: pathlib.Path,
                 serial: bool = False):
    """Build a workload's inputs and warm what it runs on.

    ``serial`` runs the matrix on the in-process runner (the traced pass
    must see every cell); the other workloads are in-process anyway.
    """
    warm_native_code()
    if name == "stream-backlog":
        return StreamSession(_stream_config(seed, size, 96, 10))
    if name == "stream-steady":
        return StreamSession(_stream_config(seed, size, 16, 30))
    if name == "solver-k1":
        return SolverSession(seed, size, restarts=1)
    if name == "solver-k32":
        return SolverSession(seed, size, restarts=32)
    if name == "matrix-grid":
        return MatrixSession(
            seed, size, jobs=1 if serial else MatrixSession.WORKERS
        )
    if name == "paper-quick":
        return PaperSession(size, work_dir)
    raise ValueError(f"unknown workload {name!r}")
