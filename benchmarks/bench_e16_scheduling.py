"""E16 — request scheduling under contention (PR 5).

The paper's facility keeps "a queue of requests for each disk" and
services them "in an order which minimizes the arm movement" (section
4).  This experiment measures what that buys once many clients contend
for the same spindle: the request pipeline is driven by 1/2/4/8
concurrent request streams over 1 and 4 disks under each service-order
policy — FCFS, SCAN (elevator with an aging bound), and SCAN with
adjacent-extent coalescing.

Two shapes are asserted:

* **Scheduling wins under contention.**  With 8 streams hammering one
  disk from alternating ends of the platter, SCAN's sweep beats FCFS's
  full-stroke seeking on both mean queue wait and aggregate
  throughput, and coalescing strictly reduces disk references.
* **Overlap wins across spindles.**  The same offered load spread over
  4 disks completes in near-quarter time (pipeline grid), and the
  closed-loop cluster driver shows 4 clients on 4 disks beating one
  client doing the same per-client work by at least the PR's 1.5x
  acceptance floor.
"""

from _helpers import build_volume, print_table
from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE
from repro.disk_service.addresses import Extent
from repro.disk_service.pipeline import DiskPipeline
from repro.disk_service.scheduler import make_scheduler
from repro.naming.attributed import AttributedName
from repro.simdisk.geometry import DiskGeometry
from repro.simkernel.loop import EventLoop

POLICIES = ("fcfs", "scan", "scan+coalesce")
CLIENT_COUNTS = (1, 2, 4, 8)
DISK_COUNTS = (1, 4)
OPS_PER_CLIENT = 8


def run_pipeline_point(policy: str, n_clients: int, n_disks: int):
    """Drive n_clients request streams at n_disks pipelined servers.

    Every stream alternates between the low and high ends of its
    disk's allocated region (full-stroke seeks for FCFS, one sweep per
    pass for SCAN), and each operation reads two adjacent fragments as
    separate requests — exactly the pattern adjacent-extent coalescing
    merges into one reference.
    """
    clock, metrics = SimClock(), Metrics()
    loop = EventLoop(clock)
    servers = []
    for volume in range(n_disks):
        server = build_volume(str(volume), clock, metrics, DiskGeometry.small())
        DiskPipeline(server, loop, make_scheduler(policy))
        servers.append((server, server.allocate(server.n_fragments // 2)))
    completions = []
    for op_index in range(OPS_PER_CLIENT):
        for client in range(n_clients):
            server, region = servers[client % n_disks]
            index = op_index * n_clients + client
            half = (region.length - 1) // 2
            if index % 2 == 0:
                slot = (index * 17) % half
            else:
                slot = region.length - 2 - ((index * 23) % half)
            for step in range(2):
                completions.append(
                    server.submit_get(
                        Extent(region.start + slot + step, 1), use_cache=False
                    )
                )
    loop.run_until(lambda: all(completion.done for completion in completions))
    waits = metrics.histogram_samples("disk_service.queue_wait_us")
    references = sum(
        metrics.get(f"disk.{volume}.references") for volume in range(n_disks)
    )
    elapsed_us = clock.now_us
    return {
        "ops": len(completions),
        "elapsed_us": elapsed_us,
        "throughput_ops_per_s": len(completions) * 1_000_000 / elapsed_us,
        "mean_wait_us": sum(waits) / len(waits),
        "p95_wait_us": sorted(waits)[(len(waits) * 95 - 1) // 100],
        "references": references,
        "utilization": [
            metrics.get_gauge(f"disk.{volume}.utilization")
            for volume in range(n_disks)
        ],
    }


def run_grid():
    return {
        (policy, n_clients, n_disks): run_pipeline_point(
            policy, n_clients, n_disks
        )
        for policy in POLICIES
        for n_clients in CLIENT_COUNTS
        for n_disks in DISK_COUNTS
    }


# ----------------------------------------------------- closed loop


def _client_op(cluster: RhodosCluster, client: int, op_index: int) -> None:
    volume = client % cluster.config.n_disks
    agent = cluster.machines[client % cluster.config.n_machines].file_agent
    descriptor = agent.create(
        AttributedName.file(f"/c{client}/f{op_index}", volume=str(volume))
    )
    agent.write(descriptor, bytes([client + 1]) * BLOCK_SIZE)
    agent.close(descriptor)
    agent.flush()
    cluster.file_servers[volume].flush()


def run_closed_loop(n_clients: int, n_disks: int):
    cluster = RhodosCluster(
        ClusterConfig(
            n_machines=n_clients,
            n_disks=n_disks,
        )
    )
    report = cluster.run_concurrent(
        _client_op, n_clients=n_clients, ops_per_client=4
    )
    return report


def test_e16_scheduling():
    grid = run_grid()

    print_table(
        "E16  Pipeline throughput (ops/s) by policy, clients x disks",
        ["disks", "clients"] + [f"{policy} ops/s" for policy in POLICIES],
        [
            (
                n_disks,
                n_clients,
                *(
                    f"{grid[(policy, n_clients, n_disks)]['throughput_ops_per_s']:.0f}"
                    for policy in POLICIES
                ),
            )
            for n_disks in DISK_COUNTS
            for n_clients in CLIENT_COUNTS
        ],
    )
    print_table(
        "E16  8 clients on one disk: queue waits and disk references",
        ["policy", "mean wait (us)", "p95 wait (us)", "disk refs", "elapsed (ms)"],
        [
            (
                policy,
                f"{grid[(policy, 8, 1)]['mean_wait_us']:.0f}",
                grid[(policy, 8, 1)]["p95_wait_us"],
                grid[(policy, 8, 1)]["references"],
                f"{grid[(policy, 8, 1)]['elapsed_us'] / 1000.0:.1f}",
            )
            for policy in POLICIES
        ],
    )

    contended = {policy: grid[(policy, 8, 1)] for policy in POLICIES}
    # SCAN's sweep beats FCFS's full-stroke seeking under contention.
    assert (
        contended["scan"]["throughput_ops_per_s"]
        >= contended["fcfs"]["throughput_ops_per_s"]
    )
    assert contended["scan"]["mean_wait_us"] < contended["fcfs"]["mean_wait_us"]
    # Coalescing merges the adjacent-fragment pairs: strictly fewer
    # references, and no slower than plain SCAN.
    assert (
        contended["scan+coalesce"]["references"] < contended["scan"]["references"]
    )
    assert (
        contended["scan+coalesce"]["throughput_ops_per_s"]
        >= contended["scan"]["throughput_ops_per_s"]
    )
    # Spindle overlap: the same 8-client load over 4 disks at least
    # doubles aggregate throughput for every policy.
    for policy in POLICIES:
        assert (
            grid[(policy, 8, 4)]["throughput_ops_per_s"]
            >= 2 * grid[(policy, 8, 1)]["throughput_ops_per_s"]
        )


def test_e16_closed_loop_overlap():
    serial = run_closed_loop(1, 4)
    overlapped = run_closed_loop(4, 4)
    speedup = (
        overlapped.throughput_ops_per_s / serial.throughput_ops_per_s
    )
    print_table(
        "E16  Closed-loop cluster driver on 4 disks",
        ["clients", "ops", "elapsed (ms)", "ops/s", "mean latency (ms)"],
        [
            (
                report.n_clients,
                report.ops_completed,
                f"{report.elapsed_us / 1000.0:.1f}",
                f"{report.throughput_ops_per_s:.0f}",
                f"{report.mean_latency_us / 1000.0:.1f}",
            )
            for report in (serial, overlapped)
        ],
    )
    # The PR's acceptance floor: 4 clients on 4 disks beat one client
    # doing the same per-client work by at least 1.5x aggregate.
    assert speedup >= 1.5, f"aggregate speedup only {speedup:.2f}x"
