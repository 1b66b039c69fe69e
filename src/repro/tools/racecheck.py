"""Happens-before race detection: ``python -m repro.tools.racecheck``.

Runs real concurrent drivers — the overlapped request pipeline with a
scrubber underneath, the cluster's closed-loop contention driver, a
bounded crash-schedule sweep of the queued-writes workload — with an
:class:`~repro.analysis.monitor.AccessMonitor` installed, then asks the
detector (:func:`repro.analysis.happens_before.detect`) whether any two
design-level tasks touched the same shared structure, at least one
writing, without a happens-before path between them.

The ``plant`` scenario is the tool's own negative control: a rogue
``add_done_callback`` callback reaches into the disk server's
protection map from a completion-delivery task, exactly the
interference the detector exists to catch.  Its report *must* contain
findings — a run where the plant goes unnoticed fails, the same way a
dead smoke detector fails a battery test.

Output is one JSON document (``--out``), byte-identical across runs:
everything is keyed off the simulated clock and creation-order ids —
no wall clock, no ``id()``, no hashing of addresses.  Exit status is
non-zero when any scenario misbehaves: findings on a real driver,
*no* findings on the plant, or an internal happens-before invariant
violation.

Schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "suite": "repro-racecheck",
      "ok": true,
      "scenarios": {
        "<name>": {
          "expect_findings": false,
          "ok": true,
          "tasks": 123, "edges": 456, "accesses": 789, "structures": 9,
          "hb_violations": [],
          "findings": [{"structure": ..., "first": {...}, ...}]
        }, ...
      }
    }
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.happens_before import detect, report
from repro.analysis.monitor import AccessMonitor, install, uninstall
from repro.chaos.scheduler import CrashScheduler
from repro.chaos.workloads import ChaosVolume, QueuedWriteWorkload
from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.disk_service.pipeline import DiskPipeline
from repro.disk_service.scheduler import CoalescingScheduler, ScanScheduler
from repro.disk_service.scrub import Scrubber
from repro.disk_service.server import Stability
from repro.naming.attributed import AttributedName
from repro.simdisk.geometry import DiskGeometry
from repro.simkernel.future import wait, wait_all
from repro.simkernel.loop import EventLoop


# --------------------------------------------------------------- scenarios


def scenario_pipeline() -> AccessMonitor:
    """One volume, overlapped pipeline, scrubber stealing idle slots.

    Mirrored puts and contending gets go through SCAN + coalescing; a
    scrubber runs low-priority verification reads between foreground
    waves; ``drain`` and ``flush`` exercise the join edges.
    """
    clock, metrics = SimClock(), Metrics()
    monitor = install(AccessMonitor(now_fn=lambda: clock.now_us))
    volume = ChaosVolume(0, clock, metrics, DiskGeometry.small())
    server = volume.disk_server
    loop = EventLoop(clock)
    pipeline = DiskPipeline(
        server, loop, CoalescingScheduler(ScanScheduler())
    )
    extents = [server.allocate(2) for _ in range(4)]
    first_wave = []
    for index, extent in enumerate(extents):
        data = bytes([0x41 + index]) * extent.byte_size
        first_wave.append(
            server.submit_put(extent, data, stability=Stability.BOTH)
        )
    first_wave.extend(server.submit_get(extent) for extent in extents)
    wait_all(loop, first_wave)
    pipeline.drain()
    server.flush()

    scrubber = Scrubber(server, fragments_per_step=32)
    for _ in range(4):
        scrubber.step(force=True)

    second_wave = [
        server.submit_put(extents[0], b"\xEE" * extents[0].byte_size),
        server.submit_get(extents[1]),
        server.submit_get(extents[2], use_cache=False),
    ]
    wait_all(loop, second_wave)
    pipeline.drain()
    loop.run_until_idle()
    return monitor


def _cluster_op(cluster: "RhodosCluster", client: int, op_index: int) -> None:
    """One closed-loop client operation: create, write, push to platter."""
    volume = client % cluster.config.n_disks
    agent = cluster.machines[client % cluster.config.n_machines].file_agent
    descriptor = agent.create(
        AttributedName.file(f"/race/c{client}/f{op_index}", volume=str(volume))
    )
    agent.write(descriptor, bytes([client + 1]) * 8192)
    agent.close(descriptor)
    agent.flush()
    cluster.file_servers[volume].flush()


def scenario_cluster() -> AccessMonitor:
    """The cluster's concurrent driver: overlapped multi-disk service."""
    clock_slot: List[SimClock] = []
    monitor = install(
        AccessMonitor(
            now_fn=lambda: clock_slot[0].now_us if clock_slot else 0
        )
    )
    cluster = RhodosCluster(ClusterConfig(n_machines=2, n_disks=2))
    clock_slot.append(cluster.clock)
    cluster.run_concurrent(_cluster_op, n_clients=3, ops_per_client=2)
    cluster.flush_all()
    return monitor


#: Crash points the sweep scenario visits — enough to crash inside
#: submission, batch service, and finish delivery without turning a
#: smoke check into a full sweep.
SWEEP_POINTS = 10


class _BarrierQueuedWrites(QueuedWriteWorkload):
    """Queued-writes workload whose recovery records the restart barrier.

    A crash interrupts waiters mid-``wait`` — the rejoin that would
    order the mainline after the settling tasks never runs.  The
    machine-restart model says recovery observes *everything* that ran
    before the crash, so recovery opens with a full barrier.
    """

    def recover(self) -> None:
        from repro.analysis import monitor as _monitor

        _monitor.active().barrier("crash.recover")
        super().recover()


def scenario_chaos_sweep() -> AccessMonitor:
    """Bounded queued-writes crash sweep under the monitor.

    Each crash point builds a fresh system (fresh structures — runs
    cannot alias), crashes mid-write, recovers, checks.  Simulated
    clocks are per-workload, so accesses are stamped 0 here; the
    happens-before graph never consults time.
    """
    monitor = install(AccessMonitor())
    scheduler = CrashScheduler(_BarrierQueuedWrites)
    scheduler.sweep(max_points=SWEEP_POINTS)
    return monitor


def scenario_plant() -> AccessMonitor:
    """Planted interference the detector MUST flag.

    A completion callback reaches into the disk server's protection
    map (``_record_checksums`` — an internal, unchained write) from the
    finish-delivery task, while a concurrently queued get's
    verification read runs in a batch that never promised to follow
    that delivery.  Unordered write/read on the same fragments: a race.
    """
    clock, metrics = SimClock(), Metrics()
    monitor = install(AccessMonitor(now_fn=lambda: clock.now_us))
    volume = ChaosVolume(0, clock, metrics, DiskGeometry.small())
    server = volume.disk_server
    loop = EventLoop(clock)
    DiskPipeline(server, loop, CoalescingScheduler(ScanScheduler()))
    extent = server.allocate(2)
    data = b"\xAA" * extent.byte_size
    server.put(extent, data)  # seed the checksum record

    put = server.submit_put(extent, data)
    # repro-lint: allow[completion-callback-purity] the planted race this tool must detect
    put.add_done_callback(lambda _c: server._record_checksums(extent, data))
    get = server.submit_get(extent, use_cache=False)
    wait_all(loop, [put, get])
    server.pipeline.drain()
    return monitor


#: name -> (builder, expect_findings)
SCENARIOS: Dict[str, Tuple[Callable[[], AccessMonitor], bool]] = {
    "pipeline": (scenario_pipeline, False),
    "cluster": (scenario_cluster, False),
    "chaos-sweep": (scenario_chaos_sweep, False),
    "plant": (scenario_plant, True),
}


# ----------------------------------------------------------------- runner


def run_scenario(name: str) -> Dict[str, object]:
    builder, expect_findings = SCENARIOS[name]
    try:
        monitor = builder()
    finally:
        uninstall()
    findings = detect(monitor)
    document = report(monitor, findings)
    document["expect_findings"] = expect_findings
    document["ok"] = (
        bool(findings) == expect_findings and not document["hb_violations"]
    )
    return document


def run(only: Optional[List[str]] = None) -> Dict[str, object]:
    names = only or list(SCENARIOS)
    scenarios = {name: run_scenario(name) for name in names}
    return {
        "schema_version": 1,
        "suite": "repro-racecheck",
        "ok": all(entry["ok"] for entry in scenarios.values()),
        "scenarios": scenarios,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.racecheck",
        description="happens-before race detection over the concurrent drivers",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="SCENARIO",
        choices=sorted(SCENARIOS),
        help="run a subset of scenarios",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    parser.add_argument(
        "--out", metavar="PATH", help="write the JSON report to PATH"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, (builder, expect) in SCENARIOS.items():
            tag = "expects findings" if expect else "must be clean"
            print(f"{name:12s} {tag}: {(builder.__doc__ or '').splitlines()[0]}")
        return 0

    document = run(args.only)
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)

    for name, entry in document["scenarios"].items():
        status = "ok" if entry["ok"] else "FAIL"
        print(
            f"# {name}: {status} ({entry['tasks']} tasks, "
            f"{entry['edges']} edges, {entry['accesses']} accesses, "
            f"{len(entry['findings'])} findings)",
            file=sys.stderr,
        )
    return 0 if document["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
