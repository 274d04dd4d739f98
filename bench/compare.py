"""Summarise benchmark results, or judge a change against its parent.

Input files are ``bench/run.py --out FILE`` results, one file per run::

    python3 bench/compare.py summary RUN.json...
    python3 bench/compare.py compare --parent P1.json P2.json ... \\
                                     --change C1.json C2.json ...

``summary`` prints the median, interquartile range and min–max of every
metric × workload over the runs given.

``compare`` gives every end-to-end metric × workload row one verdict,
using the bounds and directions in ``BENCHMARK.json``:

* ``improved``   — at least 10 pairs, the change wins at least 9 in 10
  (pairs are the i-th parent and i-th change file, so give them in the
  alternating order they ran; ties count for neither side), and the
  medians differ by more than the parent's interquartile range;
* ``unresolved`` — the parent's run-to-run spread (IQR over median) is
  wider than the bound, so "no regression" cannot be shown, unless every
  change run reads better than every parent run;
* ``regressed``  — the change's median is worse than the parent's by more
  than the bound;
* ``unchanged``  — otherwise.

Any rise in the share of failed operations is a regression.  The exit
status is 1 when some row regressed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths: Sequence[pathlib.Path]) -> List[dict]:
    return [json.loads(path.read_text()) for path in paths]


def series(runs: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values in run order."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        for workload, outcome in run["workloads"].items():
            for metric, value in outcome["values"].items():
                values.setdefault((workload, metric), []).append(value)
    return values


def failed_share(runs: List[dict], workload: str) -> float:
    attempted = failed = 0
    for run in runs:
        outcome = run["workloads"].get(workload)
        if outcome is not None:
            attempted += outcome["attempted"]
            failed += outcome["failed"]
    return failed / attempted if attempted else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(runs: List[dict]) -> None:
    print(f"{'workload':<16} {'metric':<40} {'n':>3} {'median':>12} "
          f"{'IQR/median':>11} {'min':>12} {'max':>12}")
    for (workload, metric), values in sorted(series(runs).items()):
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / abs(median) if median else 0.0
        print(f"{workload:<16} {metric:<40} {len(values):>3} {median:>12.6g} "
              f"{spread:>10.1%} {min(values):>12.6g} {max(values):>12.6g}")
    for workload in sorted({w for run in runs for w in run["workloads"]}):
        print(f"{workload:<16} {'failed_share':<40} "
              f"{failed_share(runs, workload):>16.3g}")


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            higher_is_better: bool) -> Tuple[str, dict]:
    sign = 1.0 if higher_is_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    facts = {"parent": p_med, "change": c_med, "worse_by": worse_by,
             "wins": wins, "pairs": len(pairs), "spread": spread}
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (c_med - p_med) > p_q3 - p_q1):
        return "improved", facts
    if spread > bound and not min(sign * c for c in change) > max(
        sign * p for p in parent
    ):
        return "unresolved", facts
    if worse_by > bound:
        return "regressed", facts
    return "unchanged", facts


def compare(parent_runs: List[dict], change_runs: List[dict]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = series(parent_runs), series(change_runs)
    workloads = sorted({w for run in parent_runs for w in run["workloads"]})
    regressions = 0
    print(f"{'workload':<16} {'metric':<14} {'parent':>12} {'change':>12} "
          f"{'worse by':>9} {'spread':>7} {'wins':>7}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in parent or key not in change:
                continue
            label, facts = verdict(
                parent[key], change[key], metric["bound"],
                metric["better"] == "higher",
            )
            regressions += label == "regressed"
            print(f"{workload:<16} {metric['name']:<14} "
                  f"{facts['parent']:>12.6g} {facts['change']:>12.6g} "
                  f"{facts['worse_by']:>8.1%} {facts['spread']:>6.1%} "
                  f"{facts['wins']:>3}/{facts['pairs']:<3}  {label}")
        before = failed_share(parent_runs, workload)
        after = failed_share(change_runs, workload)
        label = "regressed" if after > before else "unchanged"
        regressions += label == "regressed"
        print(f"{workload:<16} {'failed_share':<14} {before:>12.6g} "
              f"{after:>12.6g} {'':>9} {'':>7} {'':>7}  {label}")
    return 1 if regressions else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    commands = parser.add_subparsers(dest="command", required=True)
    summarise = commands.add_parser("summary")
    summarise.add_argument("runs", nargs="+", type=pathlib.Path)
    judge = commands.add_parser("compare")
    judge.add_argument("--parent", nargs="+", type=pathlib.Path, required=True)
    judge.add_argument("--change", nargs="+", type=pathlib.Path, required=True)
    args = parser.parse_args()
    if args.command == "summary":
        summary(load(args.runs))
        return 0
    return compare(load(args.parent), load(args.change))


if __name__ == "__main__":
    sys.exit(main())
