"""Sweep driver: ``python -m repro.chaos.sweep --workload append-overwrite``.

Enumerates every crash point of the chosen workload, crashes a fresh
system at each, runs recovery, checks the invariants, and prints the
per-layer coverage table.  Exit status 0 means every crash point
recovered cleanly; 1 means at least one invariant violation (each
printed with the exact ``--only`` command that reproduces it).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.chaos.scheduler import CrashScheduler
from repro.chaos.workloads import WORKLOADS
from repro.common.metrics import Metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.sweep",
        description="Exhaustive crash-point exploration with "
        "recovery-invariant checking.",
    )
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        default="append-overwrite",
        help="which deterministic workload to sweep",
    )
    parser.add_argument(
        "--max-points",
        type=int,
        default=None,
        metavar="N",
        help="bound the sweep to the first N crash points (smoke runs)",
    )
    parser.add_argument(
        "--only",
        type=int,
        default=None,
        metavar="K",
        help="run a single crash point instead of the whole sweep",
    )
    parser.add_argument(
        "--break-recovery",
        action="store_true",
        help="enable the deliberately broken recovery path "
        "(coordinator.unsafe_skip_redo; for record-log, "
        "RecordLog.unsafe_ignore_epochs) to demonstrate detection",
    )
    args = parser.parse_args(argv)
    if args.max_points is not None and args.max_points < 0:
        parser.error(f"--max-points must be >= 0, got {args.max_points}")

    metrics = Metrics()
    scheduler = CrashScheduler(
        WORKLOADS[args.workload],
        break_recovery=args.break_recovery,
        metrics=metrics,
    )
    points = [args.only] if args.only is not None else None
    report = scheduler.sweep(points=points, max_points=args.max_points)
    if args.only is not None and report.points_run == 0:
        print(
            f"error: crash point {args.only} is out of range — workload "
            f"{args.workload!r} has crash points 1..{report.total_points}",
            file=sys.stderr,
        )
        return 2

    print(report.coverage_table())
    if report.violations:
        print()
        for violation in report.violations:
            print(f"VIOLATION: {violation}")
    else:
        print("all crash points recovered with 0 invariant violations")
    return 0 if report.ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
