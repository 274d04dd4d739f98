"""Run the benchmark: each workload in fresh subprocesses, every metric by name.

Run from the repository root (``run.py`` finds ``src/`` itself)::

    python3 bench/run.py                      # every workload, seed 0
    python3 bench/run.py --workload stream-backlog --seed 1
    python3 bench/run.py --trace              # per-layer ledger instead
    python3 bench/run.py --smoke              # tiny sizes, checks the harness

``BENCHMARK.json`` at the repository root names the workloads and the
metrics, with their units and directions, and fixes the measured time per
workload (``run_seconds``).  ``--seconds`` is accepted because the
benchmark's command line carries it, but it must equal ``run_seconds``,
so a parent and a change are always measured for the same length.

Untraced (``--trace 0``, the default), every workload is set up
``SETUP_SAMPLES`` times in fresh interpreters — ``setup_s`` is their
median — and the last of them repeats the workload until ``run_seconds``
are spent.  Traced (``--trace`` / ``--trace 1``), an untraced reference
subprocess is followed by a traced one with the same repetitions; the
ledger's per-layer metrics are reported, plus the tracing overhead
between the two.  Both check the outputs (``correct``), count operations
``attempted`` and ``failed``, and end with one JSON line of the shape
``{"correct", "attempted", "failed", "metrics"}``.  ``--out FILE`` keeps
every detail for ``bench/compare.py``.

Exit status is 2 when the program under test is missing and 1 when a
subprocess fails; neither prints a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from ledger import LAYERS

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Everything a run leaves behind: scratch space, outputs, traces.
WORK = ROOT / ".bench_work"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SETUP_SAMPLES = 3
#: Per-layer metrics that are self-time shares of the traced wall.
LAYER_SHARES = {
    m["name"] for m in SPEC["per_layer"]
    if m["name"].endswith("_share") and m["name"].rsplit(".", 1)[0]
    in {layer.name for layer in LAYERS}
}
CHILD_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    # Temporary files (the C kernel's build directory among them) stay
    # inside the checkout.
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def run_child(workload: str, mode: str, seed: int, size: str,
              seconds: float = 0.0, reps: int = 1) -> dict:
    result_path = WORK / f"{workload}.{mode}.{os.getpid()}.json"
    command = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--mode", mode, "--seconds", repr(seconds), "--reps", str(reps),
        "--work", str(WORK), "--result", str(result_path),
    ]
    started = time.monotonic()
    try:
        completed = subprocess.run(
            command + ["--started", repr(started)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(
            f"{workload} {mode} pass exceeded {CHILD_TIMEOUT_S:.0f} s"
        ) from exc
    if completed.returncode != 0:
        raise ChildFailed(
            f"{workload} {mode} pass exited {completed.returncode}:\n"
            + completed.stderr[-4000:]
        )
    try:
        return json.loads(result_path.read_text())
    finally:
        result_path.unlink()


def check_reps(reps: List[dict], problems: List[str]) -> None:
    if len({(rep["digest"], rep["items"], len(rep["steps_ms"]))
            for rep in reps}) > 1:
        problems.append(f"outputs differ across {len(reps)} repeats")
    for rep in reps:
        problems.extend(rep["problems"])


def best_steps_ms(reps: List[dict]) -> List[float]:
    """Each step's best time over the repetitions.

    Every repetition serves the same steps in the same order, so step i
    of one is the same work as step i of another.  Other tenants of a
    shared machine only ever slow a step down, and they leave short
    quiet moments in every few seconds, so the fastest of many
    repetitions of a short step is the steady estimate of its own cost.
    """
    return [min(times) for times in zip(*(rep["steps_ms"] for rep in reps))]


def end_to_end_values(setups: Sequence[float], reps: List[dict],
                      peak_rss_mb: float) -> Dict[str, float]:
    """The ``end_to_end`` metrics of one untraced run.

    ``work_per_s`` divides a repetition's work items by its best-case
    timed work: the sum of the best step times plus the best time of
    the timed work outside the steps.
    """
    best = best_steps_ms(reps)
    between_s = min(rep["work_s"] - sum(rep["steps_ms"]) / 1000.0
                    for rep in reps)
    return {
        "setup_s": statistics.median(setups),
        "work_per_s": reps[0]["items"] / (sum(best) / 1000.0 + between_s),
        "step_p50_ms": percentile(best, 50),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_values(ledger_metrics: Dict[str, float],
                     extras: Dict[str, float]) -> Dict[str, float]:
    """The ``per_layer`` metrics: the traced ledger's, plus the readings
    of the untraced reference run."""
    values = dict(ledger_metrics)
    compute_share = extras.get("compute_share")
    values.update({
        "parallel.pool_start_share": extras.get("pool_start_share", 0.0),
        "parallel.speedup": extras.get("speedup", 0.0),
        "parallel.steals": extras.get("steals", 0.0),
        "experiments.compute_share": compute_share or 0.0,
        "experiments.manifest_share":
            0.0 if compute_share is None else 1.0 - compute_share,
        "trace_overhead":
            values["traced_wall_s"] / extras["overhead_base_s"] - 1.0,
    })
    return values


def measure(workload: str, seed: int, seconds: float, size: str) -> dict:
    setups = [
        run_child(workload, "setup", seed, size)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    measured = run_child(workload, "measure", seed, size, seconds=seconds)
    setups.append(measured["setup_s"])
    reps = measured["reps"]
    problems: List[str] = []
    check_reps(reps, problems)
    return {
        "values": end_to_end_values(setups, reps, measured["peak_rss_mb"]),
        "item": measured["item"],
        "step": measured["step"],
        "reps": len(reps),
        "rep_walls_s": [rep["wall_s"] for rep in reps],
        "rep_work_per_s": [rep["items"] / rep["work_s"] for rep in reps],
        "setup_samples_s": setups,
        "steps": len(reps[0]["steps_ms"]),
        "digest": reps[0]["digest"],
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "problems": problems,
    }


def trace(workload: str, seed: int, seconds: float, size: str) -> dict:
    reference = run_child(workload, "reference", seed, size,
                          seconds=seconds / 2)
    ref_reps = reference["reps"]
    # The traced matrix grid runs serially; one grid is enough.
    traced_count = 1 if workload == "matrix-grid" else len(ref_reps)
    traced = run_child(workload, "traced", seed, size, reps=traced_count)
    extras = reference["reference"]
    ledger = traced["ledger"]
    problems: List[str] = []
    all_reps = ref_reps + traced["reps"]
    check_reps(all_reps, problems)
    if "serial_digest" in extras and extras["serial_digest"] != ref_reps[0]["digest"]:
        problems.append("serial grid digest differs from the 2-worker grid")
    return {
        "values": per_layer_values(ledger["metrics"], extras),
        "reps": len(traced["reps"]),
        "reference_reps": len(ref_reps),
        "digest": ref_reps[0]["digest"],
        "attempted": sum(rep["attempted"] for rep in all_reps),
        "failed": sum(rep["failed"] for rep in all_reps),
        "problems": problems,
        "missing": ledger["missing"],
        "trace_file": ledger["trace"],
        "spans": ledger["spans"],
        "spans_dropped": ledger["spans_dropped"],
    }


def render(name: str, outcome: dict, traced: bool) -> List[str]:
    lines = [f"== {name}: {WORKLOAD_WHY[name]}"]
    values = outcome["values"]
    if not traced:
        lines.append(
            f"   {outcome['reps']} reps; work item: {outcome['item']}; "
            f"step: {outcome['step']} ({outcome['steps']} per rep)"
        )
        for metric in SPEC["end_to_end"]:
            lines.append(f"   {metric['name']:<14} {values[metric['name']]:>14.6g} "
                         f"{metric['unit']:<5} ({metric['better']} is better)")
    else:
        wall = values["traced_wall_s"]
        lines.append(
            f"   traced {outcome['reps']} rep(s) of {wall:.3f} s; overhead "
            f"{values['trace_overhead']:+.1%}; spans {outcome['spans']} "
            f"kept, {outcome['spans_dropped']} dropped; trace "
            f"{outcome['trace_file']}"
        )
        lines.append("   where the time goes (self time per rep):")
        shares = sorted(LAYER_SHARES, key=lambda metric: -values[metric])
        for metric in shares:
            if values[metric] > 0:
                lines.append(f"     {metric:<40} {values[metric]:>7.1%} "
                             f"{values[metric] * wall:>9.4f} s")
        lines.append(f"     {'unattributed':<40} "
                     f"{values['unattributed_share']:>7.1%} "
                     f"{values['unattributed_s']:>9.4f} s")
        for metric in SPEC["per_layer"]:
            if metric["name"] not in LAYER_SHARES:
                lines.append(f"   {metric['name']:<44} "
                             f"{values[metric['name']]:>14.6g} {metric['unit']}")
        if outcome["missing"]:
            lines.append(f"   missing layer targets: {outcome['missing']}")
    verdict = "yes" if correct(outcome) else "NO"
    lines.append(
        f"   correct: {verdict} — {outcome['failed']}/{outcome['attempted']} "
        f"operations failed; digest {outcome['digest'][:16]}"
    )
    lines.extend(f"   PROBLEM: {problem}" for problem in outcome["problems"])
    return lines


def correct(outcome: dict) -> bool:
    return not outcome["problems"] and outcome["failed"] == 0


def result_line(outcomes: Dict[str, dict]) -> dict:
    """The contract line: one workload's metrics, or every workload's
    keyed ``workload/metric`` when several ran."""
    prefix = len(outcomes) > 1
    metrics = {}
    for name, outcome in outcomes.items():
        for metric, value in outcome["values"].items():
            key = f"{name}/{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": UNITS[metric]}
    return {
        "correct": all(correct(outcome) for outcome in outcomes.values()),
        "attempted": sum(outcome["attempted"] for outcome in outcomes.values()),
        "failed": sum(outcome["failed"] for outcome in outcomes.values()),
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOAD_WHY),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="must equal BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=pathlib.Path)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes and the fewest repetitions, "
                             "for checking the harness")
    args = parser.parse_args(argv)
    if args.seconds != SPEC["run_seconds"]:
        parser.error(f"--seconds must equal BENCHMARK.json run_seconds "
                     f"({SPEC['run_seconds']})")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: the program under test is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOAD_WHY)
    size = "smoke" if args.smoke else "full"
    seconds = 0.0 if args.smoke else args.seconds
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)

    # Compile every module once, so no measured set-up pays for .pyc files.
    warm = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import workloads",
         str(BENCH)],
        cwd=ROOT, env=child_env(), stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if warm.returncode != 0:
        print(f"bench: importing the program failed:\n{warm.stderr[-4000:]}",
              file=sys.stderr)
        return 2

    outcomes: Dict[str, dict] = {}
    try:
        for name in names:
            run = trace if args.trace else measure
            outcomes[name] = run(name, args.seed, seconds, size)
            print("\n".join(render(name, outcomes[name], bool(args.trace))),
                  flush=True)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.write_text(json.dumps({
            "seed": args.seed, "seconds": seconds, "trace": args.trace,
            "size": size, "workloads": outcomes,
        }, indent=2))
    print(json.dumps(result_line(outcomes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
