"""The closed-loop concurrent driver: overlap, contention, determinism."""

from __future__ import annotations

import json

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.disk_service.addresses import Extent
from repro.disk_service.pipeline import DiskPipeline
from repro.disk_service.scheduler import make_scheduler
from repro.naming.attributed import AttributedName
from repro.simkernel.loop import EventLoop
from tests.conftest import build_disk_server

BLOCK = 8192


def write_op(cluster: RhodosCluster, client: int, op_index: int) -> None:
    """One client operation: create a file on the client's volume,
    write a block, and push it all the way to the platter."""
    volume = client % cluster.config.n_disks
    agent = cluster.machines[client % cluster.config.n_machines].file_agent
    descriptor = agent.create(
        AttributedName.file(f"/c{client}/f{op_index}", volume=str(volume))
    )
    agent.write(descriptor, bytes([client + 1]) * BLOCK)
    agent.close(descriptor)
    agent.flush()
    cluster.file_servers[volume].flush()


def contention_run(*, n_clients: int, n_disks: int, ops_per_client: int = 4):
    cluster = RhodosCluster(
        ClusterConfig(n_machines=max(n_clients, 1), n_disks=n_disks)
    )
    report = cluster.run_concurrent(
        write_op, n_clients=n_clients, ops_per_client=ops_per_client
    )
    return cluster, report


class TestClosedLoop:
    def test_every_operation_completes(self):
        cluster, report = contention_run(n_clients=3, n_disks=3)
        assert report.ops_completed == 12
        assert report.n_clients == 3
        assert len(report.op_latencies_us) == 12
        assert cluster.metrics.get("cluster.ops_completed") == 12

    def test_data_plane_effects_survive_the_overlap(self):
        cluster, _ = contention_run(n_clients=2, n_disks=2, ops_per_client=2)
        agent = cluster.machine.file_agent
        for client in range(2):
            for op_index in range(2):
                descriptor = agent.open(
                    AttributedName.file(f"/c{client}/f{op_index}")
                )
                assert agent.read(descriptor, BLOCK) == bytes([client + 1]) * BLOCK
                agent.close(descriptor)

    def test_driver_validates_arguments(self):
        cluster = RhodosCluster()
        with pytest.raises(ValueError):
            cluster.run_concurrent(write_op, n_clients=0, ops_per_client=1)
        with pytest.raises(ValueError):
            cluster.run_concurrent(write_op, n_clients=1, ops_per_client=0)


class TestOverlap:
    def test_four_clients_on_four_disks_beat_serial_by_1_5x(self):
        """The PR's acceptance floor: aggregate throughput of 4 clients
        on 4 disks is at least 1.5x one client doing the same per-client
        work (in practice close to 4x, since the disks never contend)."""
        _, serial = contention_run(n_clients=1, n_disks=4)
        _, overlapped = contention_run(n_clients=4, n_disks=4)
        assert overlapped.ops_completed == 4 * serial.ops_completed
        speedup = overlapped.throughput_ops_per_s / serial.throughput_ops_per_s
        assert speedup >= 1.5, f"aggregate speedup only {speedup:.2f}x"

    def test_clients_on_one_disk_serialize(self):
        """Same op count, one spindle: throughput cannot scale."""
        _, spread = contention_run(n_clients=4, n_disks=4)
        _, contended = contention_run(n_clients=4, n_disks=1)
        assert contended.elapsed_us > spread.elapsed_us

    def test_per_disk_utilization_gauges_are_published(self):
        cluster, _ = contention_run(n_clients=2, n_disks=2)
        for volume in range(2):
            assert cluster.metrics.get_gauge(f"disk.{volume}.utilization") > 0


class TestSchedulerContention:
    """8 clients hammering one disk: SCAN beats FCFS on queue wait."""

    N_CLIENTS = 8
    OPS_PER_CLIENT = 4

    def _single_disk_waits(self, policy: str):
        clock, metrics = SimClock(), Metrics()
        server = build_disk_server(clock, metrics)
        loop = EventLoop(clock)
        DiskPipeline(server, loop, make_scheduler(policy))
        region = server.allocate(server.n_fragments // 2)
        # Adversarial arrival order: successive requests alternate
        # between the low and high ends of the platter, so FCFS seeks
        # full-stroke on every service while SCAN sweeps once per pass.
        half = region.length // 2
        completions = []
        for op_index in range(self.OPS_PER_CLIENT):
            for client in range(self.N_CLIENTS):
                index = op_index * self.N_CLIENTS + client
                if index % 2 == 0:
                    slot = (index * 17) % half
                else:
                    slot = region.length - 1 - ((index * 23) % half)
                extent = Extent(region.start + slot, 1)
                completions.append(server.submit_get(extent, use_cache=False))
        loop.run_until(lambda: all(c.done for c in completions))
        waits = metrics.histogram_samples("disk_service.queue_wait_us")
        assert len(waits) == self.N_CLIENTS * self.OPS_PER_CLIENT
        return sum(waits) / len(waits), clock.now_us

    def test_scan_beats_fcfs_mean_queue_wait(self):
        fcfs_wait, fcfs_elapsed = self._single_disk_waits("fcfs")
        scan_wait, scan_elapsed = self._single_disk_waits("scan")
        assert scan_wait < fcfs_wait, (
            f"SCAN mean wait {scan_wait:.0f}us not below FCFS {fcfs_wait:.0f}us"
        )
        assert scan_elapsed <= fcfs_elapsed


class TestDeterminism:
    def test_double_run_produces_byte_identical_reports(self):
        """Same config, same workload: the whole machine-readable
        output — report and metrics — must match byte for byte."""

        def run() -> str:
            cluster, report = contention_run(n_clients=4, n_disks=2)
            return json.dumps(
                {
                    "ops": report.ops_completed,
                    "elapsed_us": report.elapsed_us,
                    "latencies_us": report.op_latencies_us,
                    "metrics": cluster.metrics.snapshot(),
                    "gauges": cluster.metrics.gauges(),
                },
                sort_keys=True,
            )

        assert run() == run()


class TestPerClassLatencies:
    """PR 10 satellite: DriverReport separates metadata and data ops."""

    @staticmethod
    def classed_op(cluster: RhodosCluster, client: int, op_index: int) -> str:
        agent = cluster.machines[client % cluster.config.n_machines].file_agent
        if op_index % 2 == 0:
            descriptor = agent.create(
                AttributedName.file(f"/c{client}/f{op_index}")
            )
            agent.write(descriptor, b"x" * BLOCK)
            agent.close(descriptor)
            return "data"
        cluster.naming.resolve_path(f"/c{client}/f{op_index - 1}")
        return "metadata"

    def test_latencies_split_by_returned_label(self):
        cluster = RhodosCluster(ClusterConfig(n_machines=2, n_disks=2))
        report = cluster.run_concurrent(
            self.classed_op, n_clients=2, ops_per_client=4
        )
        assert report.class_ops("data") == 4
        assert report.class_ops("metadata") == 4
        assert sorted(
            report.latencies_by_class["data"]
            + report.latencies_by_class["metadata"]
        ) == sorted(report.op_latencies_us)
        assert report.class_mean_latency_us("data") >= report.class_mean_latency_us(
            "metadata"
        )
        total = report.class_throughput_ops_per_s(
            "data"
        ) + report.class_throughput_ops_per_s("metadata")
        assert total == pytest.approx(report.throughput_ops_per_s)

    def test_unlabelled_ops_stay_aggregate_only(self):
        cluster, report = contention_run(n_clients=2, n_disks=2)
        assert report.latencies_by_class == {}
        assert report.ops_completed == 8

    def test_per_class_histograms_reach_metrics(self):
        cluster = RhodosCluster(ClusterConfig(n_machines=2, n_disks=2))
        cluster.run_concurrent(self.classed_op, n_clients=2, ops_per_client=2)
        histogram = cluster.metrics.histogram("cluster.data_op_us")
        assert histogram["count"] == 2
        histogram = cluster.metrics.histogram("cluster.metadata_op_us")
        assert histogram["count"] == 2
