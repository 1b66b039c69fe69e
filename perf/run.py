#!/usr/bin/env python3
"""The repo's benchmark: five workloads, two clocks, per-layer spans.

    python3 perf/run.py                      # every workload, both passes
    python3 perf/run.py --workload churn     # one workload, both passes
    python3 perf/run.py --smoke              # the same, shrunk (<15 s)
    python3 perf/run.py --check --out F      # two sets; must agree
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
                                             # one pass; last line is JSON

With ``--trace`` the run happens in this process and the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``
(end-to-end metrics for ``--trace 0``, per-layer for ``--trace 1``).
Without it, each workload runs as two such subprocesses and the report
prints every metric by name with its unit.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
OUT_DIR = os.path.join(PERF_DIR, "out")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _spec:
    SPEC = json.load(_spec)
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]
END_TO_END = {entry["name"]: entry for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in SPEC["per_layer"]}
#: Metrics read on the host clock; everything else must repeat exactly.
HOST_END_TO_END = ("setup_s", "host_peak_rss_mb")
#: Host throughput carries no bound the driver enforces: this box's speed
#: shifts by 25% and more for minutes at a time.  --check compares single
#: runs, so for the wall-clock metrics it reports two sets further apart
#: than the bound as unresolved, not as failed.
HOST_OPS = "bench.host_ops_per_s"
HOST_OPS_AGREEMENT = 0.10
WALL_CLOCK = ("setup_s", HOST_OPS)


def is_exact(name: str) -> bool:
    """Whether a metric is a pure function of (code, seed)."""
    if name in END_TO_END:
        return name not in HOST_END_TO_END
    return "host" not in name and not name.startswith("bench.")


# ----------------------------------------------------------- one pass


def run_one(args) -> int:
    """Driver mode: one workload, one pass, in this process."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set and dict iteration order must not vary from run to run.
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, PERF_DIR)
    from harness import run_workload

    record = run_workload(
        args.workload,
        args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        out_dir=OUT_DIR,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(record, out, indent=1)
    for problem in record["problems"]:
        print(f"PROBLEM {args.workload}: {problem}", file=sys.stderr)
    spec, values = (
        (PER_LAYER, record["per_layer"]) if args.trace else (END_TO_END, record["end_to_end"])
    )
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": entry["unit"]}
                    for name, entry in spec.items()
                },
            }
        )
    )
    return 0 if record["correct"] else 1


# ------------------------------------------------------------ reports


def run_set(args, workloads) -> dict:
    """Both passes of each workload, one subprocess per pass."""
    os.makedirs(OUT_DIR, exist_ok=True)
    results = {}
    for name in workloads:
        passes = []
        for trace in (0, 1):
            out = os.path.join(OUT_DIR, f"{name}_trace{trace}.json")
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", out,
            ] + (["--smoke"] if args.smoke else [])
            if os.path.exists(out):
                os.remove(out)
            # A failed pass still writes its record, with its problems in
            # it; a crashed one leaves no file and stops the report here.
            subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
            with open(out, encoding="utf-8") as record:
                passes.append(json.load(record))
        untraced, traced = passes
        problems = untraced["problems"] + traced["problems"]
        if untraced["end_to_end"].keys() != END_TO_END.keys():
            problems.append("end-to-end metrics differ from BENCHMARK.json")
        if traced["per_layer"].keys() != PER_LAYER.keys():
            problems.append("per-layer metrics differ from BENCHMARK.json")
        if any(
            untraced["end_to_end"][metric] != traced["end_to_end"][metric]
            for metric in END_TO_END if is_exact(metric)
        ):
            problems.append("traced and untraced simulated metrics differ")
        per_layer = dict(traced["per_layer"])
        # The meter's own health reads better from three repeats than
        # from the traced run's single reference repeat.
        per_layer.update(
            (metric, value) for metric, value in untraced["per_layer"].items()
            if metric.startswith("bench.") and metric != "bench.trace_overhead_share"
        )
        results[name] = {
            "correct": not problems,
            "problems": problems,
            "noisy": untraced["noisy"],
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "failed_op_share": untraced["failed_op_share"],
            "samples": untraced["samples"],
            "unit_host_ops_per_s": untraced["unit_host_ops_per_s"],
            "end_to_end": untraced["end_to_end"],
            "per_layer": per_layer,
            "top_layers": traced["top_layers"],
        }
    return results


def header() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
    }


def print_set(results: dict) -> None:
    for name, result in results.items():
        flags = "  NOISY" if result["noisy"] else ""
        print(
            f"\n== {name}: {'ok' if result['correct'] else 'FAILED'}{flags}  "
            f"attempted={result['attempted']} failed={result['failed']} "
            f"failed_op_share={result['failed_op_share']:.6f} "
            f"sim_samples={result['samples']['sim_ops']} "
            f"repeats={result['samples']['repeats']}"
        )
        for problem in result["problems"]:
            print(f"   PROBLEM: {problem}")
        for metric, entry in END_TO_END.items():
            print(f"   {metric:<44} {result['end_to_end'][metric]:>16.6f} {entry['unit']}")
        for metric, entry in PER_LAYER.items():
            print(f"   {metric:<44} {result['per_layer'][metric]:>16.6f} {entry['unit']}")
        top = ", ".join(f"{layer} {share:.2f}" for layer, share in result["top_layers"])
        print(f"   top layers by host_self_share: {top}")


def compare_sets(first: dict, second: dict) -> list:
    """Rows (workload, metric, first, second, spread, bound, verdict)."""
    rows = []
    for name in first:
        sections = [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)]
        for section, spec in sections:
            for metric, entry in spec.items():
                a, b = first[name][section][metric], second[name][section][metric]
                if is_exact(metric):
                    rows.append((name, metric, a, b, 0.0 if a == b else float("inf"),
                                 0.0, "ok" if a == b else "FAIL"))
                elif metric in END_TO_END or metric == HOST_OPS:
                    spread = abs(a - b) / a if a else float("inf")
                    bound = entry.get("bound", HOST_OPS_AGREEMENT)
                    verdict = "ok" if spread <= bound else (
                        "unresolved" if metric in WALL_CLOCK else "FAIL")
                    rows.append((name, metric, a, b, spread, bound, verdict))
    return rows


def report(args) -> int:
    workloads = [args.workload] if args.workload else WORKLOAD_NAMES
    info = header()
    print(f"nproc={info['nproc']} python={info['python']} commit={info['commit']} "
          f"seed={args.seed} seconds={args.seconds} smoke={args.smoke}")
    document = {"header": info, "seed": args.seed, "seconds": args.seconds,
                "smoke": args.smoke}
    first = run_set(args, workloads)
    print_set(first)
    ok = all(result["correct"] for result in first.values())
    document["baseline"] = first
    if args.check:
        second = run_set(args, workloads)
        ok = ok and all(result["correct"] for result in second.values())
        rows = compare_sets(first, second)
        print("\n== check: two sets of the same code")
        shown = [
            row for row in rows
            if row[1] in END_TO_END or row[1] == HOST_OPS or row[6] != "ok"
        ]
        for name, metric, a, b, spread, bound, verdict in shown:
            print(f"   {name:<11} {metric:<24} {a:>16.6f} {b:>16.6f} "
                  f"spread={spread:.4f} bound={bound:.2f} {verdict}")
        exact = [row for row in rows if is_exact(row[1])]
        print(f"   {sum(row[6] == 'ok' for row in exact)}/{len(exact)} "
              "simulated metrics bit-identical")
        ok = ok and all(row[6] != "FAIL" for row in rows)
        document["second"] = second
        document["check"] = [
            {"workload": name, "metric": metric, "first": a, "second": b,
             "spread": spread, "bound": bound, "verdict": verdict}
            for name, metric, a, b, spread, bound, verdict in shown
        ]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(document, out, indent=1)
    print("\nOK" if ok else "\nFAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured host seconds per untraced pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one pass in this process and print its JSON")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--out", help="write the full record to this file")
    args = parser.parse_args()
    if args.seconds is None:
        # Smoke runs stop at the fixed units.
        args.seconds = 0.0 if args.smoke else float(SPEC["run_seconds"])
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_one(args)
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
