"""Each layer's ``Metrics.timer`` records the modelled time it spent."""

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.naming.attributed import AttributedName
from repro.rpc.bus import FaultProfile


class TestTimersInsideFrames:
    """Under ``run_concurrent`` every operation runs in a service frame,
    where the global clock stands still; ``Metrics.timer`` must read the
    frame cursor or every sample of an overlapped operation is zero."""

    def test_concurrent_uncached_reads_time_every_layer(self):
        cluster = RhodosCluster(ClusterConfig.uncached(n_disks=2))
        agent = cluster.machine.file_agent
        descriptors = []
        for index in range(6):
            descriptor = agent.create(
                AttributedName.file(f"/c{index}"), volume_id=index % 2
            )
            agent.write(descriptor, b"c" * 4096)
            descriptors.append(descriptor)
        metrics = cluster.metrics
        names = [
            f"{layer}.{volume}.{op}"
            for volume in (0, 1)
            for layer, op in (("file_server", "read_us"), ("disk_server", "get_us"))
        ]
        seen = {name: len(metrics.histogram_samples(name)) for name in names}

        cluster.run_concurrent(
            lambda c, client, _: c.machine.file_agent.pread(
                descriptors[client], 512, 0
            ),
            n_clients=6,
            ops_per_client=1,
        )

        for name in names:
            samples = metrics.histogram_samples(name)[seen[name]:]
            assert len(samples) >= 3, name
            assert all(sample > 0 for sample in samples), (name, samples)


class TestBlockingTimers:
    """Outside a frame the same timers read the clock the operation moved."""

    def test_a_commit_records_one_commit_sample(self):
        cluster = RhodosCluster()
        host = cluster.machine.transactions
        tid = host.tbegin()
        descriptor = host.tcreate(tid, AttributedName.file("/txn"))
        host.twrite(tid, descriptor, b"committed")
        host.tend(tid)
        samples = cluster.metrics.histogram_samples("transactions.commit_us")
        assert len(samples) == 1 and samples[0] > 0

    def test_every_transmit_records_both_latencies(self):
        cluster = RhodosCluster(
            ClusterConfig(fault_profile=FaultProfile(latency_us=500), seed=7)
        )
        agent = cluster.machine.file_agent
        descriptor = agent.create(AttributedName.file("/remote"))
        agent.write(descriptor, b"over the wire")
        agent.close(descriptor)
        samples = cluster.metrics.histogram_samples("rpc.transmit_us")
        assert samples and min(samples) >= 2 * 500
