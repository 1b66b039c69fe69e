"""The benchmark runner: ``python -m repro.tools.bench``.

The suite under ``benchmarks/`` regenerates the paper's artifacts as
tables and shape assertions.  This is its one runner: it imports each
``bench_*.py`` and calls every ``test_*`` function once — the simulated
clock, not the host, is the time base, so repetition adds nothing — and
emits one JSON document, the *record*: each PR can diff its
``BENCH_*.json`` against the previous one, counter by counter and
quantile by quantile, the way the paper's own tables compare designs,
and EXPERIMENTS.md's tables are rendered from it
(:mod:`repro.tools.report`).

Schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "suite": "repro-bench",
      "experiments": {
        "<experiment id>": {
          "status": "pass" | "fail" | "error",
          "failure": null | "<first line of the assertion/exception>",
          "counters": {"disk.0.references": 42, ...},
          "layers": {"disk": 42, "file_server": 7, ...},
          "histograms": {"disk.0.service_us": {"count": ..., "p50": ...}},
          "gauges": {"disk_server.0.free_fragments": ...},
          "tables": [{"title": "E1  ...", "headers": [...], "rows": [[...]]}]
        }, ...
      }
    }

Counters, histogram samples and gauges are aggregated across every
:class:`~repro.common.metrics.Metrics` registry an experiment builds
internally (collected through :meth:`Metrics.tracking`), then
summarised deterministically — identical runs emit byte-identical
JSON.  ``tables`` holds every table the experiment printed through
:func:`print_table`, in order, cells as printed.  Experiment
*assertions* still run: a failed paper claim shows up as
``status: "fail"`` instead of aborting the sweep.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.common.metrics import Metrics, summarize

#: Experiments the ``--smoke`` subset runs: one per subsystem, all fast.
SMOKE_EXPERIMENTS = (
    "e1_two_disk_references",
    "e14_track_cache",
    "e16_scheduling",
    "e18_scrub_overhead",
    "e19_raid",
    "e20_sharded_namespace",
    "t1_lock_compatibility",
)

#: The committed record: ``--out``'s default and the report's input.
RECORD = "BENCH_pr40.json"


def repo_root() -> Path:
    """The repository root, located from this file (src/repro/tools/…)."""
    return Path(__file__).resolve().parents[3]


def benchmarks_dir() -> Path:
    return repo_root() / "benchmarks"


Table = Dict[str, object]

#: The tables :func:`print_table` is recording into (see
#: :func:`recording_tables`), or None outside a run.
_recorded: Optional[List[Table]] = None


def format_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    """The one text layout of an experiment table.

    What the benchmarks print and what EXPERIMENTS.md's generated
    blocks hold: a ``=== title ===`` line, the headers, a rule, and one
    line per row, columns left-aligned to their widest cell.
    """
    widths = [
        max([len(header)] + [len(row[col]) for row in rows])
        for col, header in enumerate(headers)
    ]
    line = "  ".join(header.ljust(width) for header, width in zip(headers, widths))
    lines = [f"=== {title} ===", line, "-" * len(line)]
    lines.extend(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in rows
    )
    return "\n".join(text.rstrip() for text in lines)


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print one experiment table and record it for the running experiment."""
    cells = [[str(cell) for cell in row] for row in rows]
    if _recorded is not None:
        _recorded.append({"title": title, "headers": list(headers), "rows": cells})
    print("\n" + format_table(title, headers, cells))


@contextlib.contextmanager
def recording_tables() -> Iterator[List[Table]]:
    """Collect every table :func:`print_table` prints inside the block.

    The tables' counterpart of :meth:`Metrics.tracking`; nesting
    restores the outer collector on exit.
    """
    global _recorded
    previous, collected = _recorded, []
    _recorded = collected
    try:
        yield collected
    finally:
        _recorded = previous


def discover(directory: Optional[Path] = None) -> Dict[str, Path]:
    """Map experiment id (``e1_two_disk_references``) to bench file."""
    directory = directory or benchmarks_dir()
    return {
        path.stem[len("bench_"):]: path
        for path in sorted(directory.glob("bench_*.py"))
    }


def _load_module(path: Path):
    """Import one bench file with the benchmarks dir importable.

    Bench files import ``_helpers`` as a top-level module, so the
    benchmarks directory temporarily joins ``sys.path``.
    """
    directory = str(path.parent)
    spec = importlib.util.spec_from_file_location(f"repro_bench_{path.stem}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, directory)
    try:
        spec.loader.exec_module(module)
    finally:
        with contextlib.suppress(ValueError):
            sys.path.remove(directory)
    return module


def _aggregate(registries: List[Metrics]) -> Dict[str, object]:
    """Merge every registry an experiment built into one summary."""
    counters: Dict[str, int] = {}
    samples: Dict[str, List[int]] = {}
    gauges: Dict[str, int] = {}
    for registry in registries:
        for name, value in registry.snapshot().items():
            counters[name] = counters.get(name, 0) + value
        for name in registry.histogram_names():
            samples.setdefault(name, []).extend(registry.histogram_samples(name))
        # Last write wins across registries too; registries are visited
        # in creation order, so the newest system's levels prevail.
        gauges.update(registry.gauges())
    layers: Dict[str, int] = {}
    for name, value in counters.items():
        layers[name.split(".", 1)[0]] = layers.get(name.split(".", 1)[0], 0) + value
    histograms = {name: summarize(values) for name, values in samples.items()}
    return {
        "counters": dict(sorted(counters.items())),
        "layers": dict(sorted(layers.items())),
        "histograms": dict(sorted(histograms.items())),
        "gauges": dict(sorted(gauges.items())),
    }


def run_experiment(path: Path, *, quiet: bool = True) -> Dict[str, object]:
    """Run every ``test_*`` function of one bench file; summarise."""
    status, failure = "pass", None
    with Metrics.tracking() as registries, recording_tables() as tables:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink if quiet else sys.stdout):
                module = _load_module(path)
                tests = [
                    getattr(module, name)
                    for name in sorted(dir(module))
                    if name.startswith("test_") and callable(getattr(module, name))
                ]
                for test in tests:
                    test()
        except AssertionError as exc:
            status = "fail"
            failure = str(exc).splitlines()[0] if str(exc) else "assertion failed"
        except Exception as exc:  # noqa: BLE001 - one bad bench must not kill the sweep
            status = "error"
            failure = f"{type(exc).__name__}: {exc}".splitlines()[0]
    result: Dict[str, object] = {"status": status, "failure": failure}
    result.update(_aggregate(registries))
    result["tables"] = tables
    return result


def run_suite(
    experiment_ids: List[str],
    *,
    quiet: bool = True,
    progress: Optional[Callable[[str, str], None]] = None,
) -> Dict[str, object]:
    """Run the named experiments; returns the full JSON document."""
    available = discover()
    unknown = sorted(set(experiment_ids) - set(available))
    if unknown:
        raise SystemExit(
            f"unknown experiment id(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(available))})"
        )
    experiments: Dict[str, object] = {}
    for experiment_id in experiment_ids:
        outcome = run_experiment(available[experiment_id], quiet=quiet)
        experiments[experiment_id] = outcome
        if progress is not None:
            progress(experiment_id, str(outcome["status"]))
    return {
        "schema_version": 1,
        "suite": "repro-bench",
        "experiments": experiments,
    }


def strip_wall(document: Dict[str, object]) -> None:
    """Drop host-time gauges and tables in place.

    The m1 meta-benchmark records its wall-clock measurements as gauges
    whose final dotted segment starts with ``wall_`` (DESIGN.md §13) and
    prints them in tables with a host-time column (a header naming
    ``host``).  Everything else in the document is simulated time and
    therefore deterministic; with those removed, two runs of the same
    tree must byte-diff clean — which is exactly how CI checks
    determinism.
    """
    for outcome in document["experiments"].values():  # type: ignore[union-attr]
        outcome["gauges"] = {
            name: value
            for name, value in outcome["gauges"].items()
            if not name.rsplit(".", 1)[-1].startswith("wall_")
        }
        outcome["tables"] = [
            table
            for table in outcome["tables"]
            if not any("host" in header for header in table["headers"])
        ]


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.bench",
        description="Run the bench suite headlessly; emit machine-readable JSON.",
    )
    scope = parser.add_mutually_exclusive_group()
    scope.add_argument(
        "--all", action="store_true", help="run every experiment (default)"
    )
    scope.add_argument(
        "--smoke",
        action="store_true",
        help=f"run the fast subset only: {', '.join(SMOKE_EXPERIMENTS)}",
    )
    scope.add_argument(
        "--only",
        nargs="+",
        metavar="ID",
        help="run the named experiment ids only (e.g. e1_two_disk_references)",
    )
    parser.add_argument(
        "--out",
        default=RECORD,
        help="output path (default: %(default)s)",
    )
    parser.add_argument(
        "--strip-wall",
        action="store_true",
        help=(
            "drop wall-clock gauges (final name segment starting with "
            "'wall_') and host-time tables so repeated runs byte-diff clean"
        ),
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="let the benchmarks print their tables while running",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    available = discover()
    if args.list:
        for experiment_id in sorted(available):
            print(experiment_id)
        return 0
    if args.only:
        ids = list(args.only)
    elif args.smoke:
        ids = [i for i in SMOKE_EXPERIMENTS if i in available]
    else:
        ids = sorted(available)
    document = run_suite(
        ids,
        quiet=not args.verbose,
        progress=lambda experiment_id, status: print(
            f"{experiment_id:32s} {status}", file=sys.stderr
        ),
    )
    if args.strip_wall:
        strip_wall(document)
    out_path = Path(args.out)
    out_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    statuses = [
        str(outcome["status"]) for outcome in document["experiments"].values()  # type: ignore[union-attr]
    ]
    print(
        f"{len(statuses)} experiment(s): {statuses.count('pass')} pass, "
        f"{statuses.count('fail')} fail, {statuses.count('error')} error "
        f"-> {out_path}",
        file=sys.stderr,
    )
    return 0 if all(status == "pass" for status in statuses) else 1


if __name__ == "__main__":
    # ``python -m`` runs this file as ``__main__``, but the benchmarks
    # reach print_table through ``repro.tools.bench``: run that module's
    # main so both sides share one table recorder.
    from repro.tools.bench import main as _main

    raise SystemExit(_main())
