"""One benchmark subprocess: set a workload up, run it, report.

``run.py`` starts a fresh interpreter on this file for every set-up
sample and every measured or traced pass, so no workload warms another's
caches and set-up time and peak memory belong to one workload.

Modes:

* ``setup``     — open the workload and exit (one more ``setup_s`` sample);
* ``measure``   — repetitions until ``--seconds`` is spent (at least two,
  so the digest is compared across repeats);
* ``reference`` — the untraced half of a trace pass: repetitions for
  ``--seconds``, plus the extra untraced readings some layers need;
* ``traced``    — the ledger's class patches installed before the workload
  is opened, then ``--reps`` repetitions as root spans.

The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import resource
import statistics
import time


def _peak_rss_mb() -> float:
    # Linux reports kilobytes; children are the fabric's workers (and the
    # kernel compiler), all waited for by the time this runs.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _repeat(session, seconds: float, at_least: int) -> list:
    """Repetitions until the budget is spent: another one starts only if
    at least half of a typical repetition still fits."""
    reps = []
    started = time.perf_counter()
    while True:
        reps.append(session.rep())
        elapsed = time.perf_counter() - started
        typical = statistics.median(rep.wall_s for rep in reps)
        if len(reps) >= at_least and elapsed + typical / 2 > seconds:
            return reps


def _reference_extras(name: str, session, reps: list, setup_s: float) -> dict:
    """Untraced readings the per-layer table needs besides the ledger."""
    walls = [rep.wall_s for rep in reps]
    extras = {"overhead_base_s": statistics.median(walls)}
    if name == "matrix-grid":
        # The traced pass runs serially (its patches must see every cell),
        # so its overhead is taken against an untraced serial grid.
        serial = session.serial_rep()
        extras.update(
            overhead_base_s=serial.wall_s,
            serial_digest=serial.digest,
            speedup=serial.wall_s / statistics.median(walls),
            steals=statistics.median(rep.extra["steals"] for rep in reps),
            pool_start_share=session.pool_start_s / setup_s,
        )
    elif name == "paper-quick":
        extras["compute_share"] = (
            session.direct_compute_s() / statistics.median(walls)
        )
    return extras


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "reference", "traced"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--work", type=pathlib.Path, required=True)
    parser.add_argument("--result", type=pathlib.Path, required=True)
    args = parser.parse_args()

    ledger = None
    if args.mode == "traced":
        from ledger import Ledger

        ledger = Ledger(args.workload)
        ledger.install()
    import workloads

    session = workloads.open_session(
        args.workload, args.seed, args.size, args.work,
        serial=args.mode == "traced",
    )
    setup_s = time.monotonic() - args.started
    result = {"workload": args.workload, "mode": args.mode, "setup_s": setup_s,
              "item": session.ITEM, "step": session.STEP}
    try:
        if args.mode == "traced":
            reps = [ledger.run_rep(session.rep) for _ in range(args.reps)]
            trace_path = args.work / "traces" / (
                f"{args.workload}-seed{args.seed}.trace.json"
            )
            ledger.write_chrome_trace(trace_path, {"seed": args.seed})
            result["ledger"] = {
                "metrics": ledger.metrics(),
                "missing": ledger.missing,
                "spans": len(ledger.spans),
                "spans_dropped": ledger.dropped,
                "trace": str(trace_path),
            }
            ledger.uninstall()
        elif args.mode == "setup":
            reps = []
        else:
            reps = _repeat(session, args.seconds,
                           at_least=2 if args.mode == "measure" else 1)
            if args.mode == "reference":
                result["reference"] = _reference_extras(
                    args.workload, session, reps, setup_s
                )
    finally:
        session.close()
    result["reps"] = [dataclasses.asdict(rep) for rep in reps]
    result["peak_rss_mb"] = _peak_rss_mb()
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
