"""Self-tests of the benchmark (``pytest perf/tests``; not part of tier-1).

Every test drives ``perf/run.py --smoke`` the way the driver does — one
subprocess per workload and pass — and inspects the records it writes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)
RUN = os.path.join(PERF, "run.py")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, PERF)

import run as cli  # noqa: E402
from spans import LAYERS, SpanRecorder, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _spec:
    SPEC = json.load(_spec)
NAMES = [entry["name"] for entry in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_pass(workload, trace, out, seed=11):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--smoke", "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    with open(out, encoding="utf-8") as record:
        return json.load(record), json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """{(workload, trace): (full record, last-line result)} at seed 11."""
    out = tmp_path_factory.mktemp("records")
    return {
        (name, trace): run_pass(name, trace, out / f"{name}_{trace}.json")
        for name in NAMES
        for trace in (0, 1)
    }


def test_spec_names_and_units_are_well_formed():
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[section]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"]), entry
    assert set(WORKLOADS) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted(passes, name):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        record, result = passes[name, trace]
        wanted = {entry["name"]: entry["unit"] for entry in SPEC[section]}
        assert record["correct"], record["problems"]
        assert set(result) == RESULT_KEYS
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {
            metric: value["unit"] for metric, value in result["metrics"].items()
        } == wanted
        assert all(
            isinstance(value["value"], (int, float))
            for value in result["metrics"].values()
        )
    assert passes[name, 1][0]["per_layer"]["recovery.acked_lost"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_tracing_does_not_perturb_the_model(passes, name):
    untraced, traced = passes[name, 0][0], passes[name, 1][0]
    for metric in untraced["end_to_end"]:
        if cli.is_exact(metric):
            assert untraced["end_to_end"][metric] == traced["end_to_end"][metric]
    shares = [traced["per_layer"][f"{layer}.host_self_share"] for layer in LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_repeats_and_other_seed_differs(passes, name, tmp_path):
    again, _ = run_pass(name, 0, tmp_path / "again.json")
    first = passes[name, 0][0]
    for section in ("end_to_end", "per_layer"):
        for metric, value in first[section].items():
            if cli.is_exact(metric):
                assert again[section][metric] == value, metric
    assert (
        WORKLOADS[name](11, smoke=True).plan_unit(1)
        != WORKLOADS[name](12, smoke=True).plan_unit(1)
    )
    assert (
        WORKLOADS[name](11, smoke=True).plan_unit(1)
        == WORKLOADS[name](11, smoke=True).plan_unit(1)
    )


@pytest.mark.parametrize("name", NAMES)
def test_span_accounting_closes(passes, name):
    assert passes[name, 1][0]["correct"]
    with open(os.path.join(PERF, "out", f"spans_{name}.jsonl"), encoding="utf-8") as lines:
        spans = [json.loads(line) for line in lines]
    assert spans
    parent = {span["id"]: span["parent"] for span in spans}

    def root_of(span_id):
        while parent[span_id] != 0:
            span_id = parent[span_id]
        return span_id

    own = self_times(spans)
    assert all(value >= 0 for value in own.values())
    per_root = {}
    for span_id, value in own.items():
        per_root[root_of(span_id)] = per_root.get(root_of(span_id), 0) + value
    for span in spans:
        if span["parent"] == 0:
            assert per_root[span["id"]] == span["end_ns"] - span["start_ns"]


@pytest.mark.parametrize("name", NAMES)
def test_setups_from_one_seed_are_identical(passes, name):
    # The run itself compares the simulated metrics of its three repeats.
    record = passes[name, 0][0]
    assert record["samples"]["repeats"] == 3
    assert not any("repeats" in problem for problem in record["problems"])
    snapshots = []
    for _ in range(2):
        workload = WORKLOADS[name](11, smoke=True)
        workload.setup()
        snapshots.append(workload.cluster.metrics.snapshot())
    assert snapshots[0] == snapshots[1]


def test_recorder_restores_the_classes():
    from repro.agents.file_agent import FileAgent

    original = FileAgent.__dict__["pread"]
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert FileAgent.__dict__["pread"] is not original
    finally:
        recorder.uninstall()
    assert FileAgent.__dict__["pread"] is original


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and perf/: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
