"""End-to-end trace reconstruction across the full layer stack."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.naming.attributed import AttributedName


def traced_cluster(config=None):
    """A cluster whose tracer records from the end of construction."""
    cluster = RhodosCluster(config)
    cluster.tracer.enable()
    return cluster


def uncached_cluster(**overrides):
    """A tracing cluster with every cache level off, so a read must
    descend agent -> file service -> disk service -> physical disk."""
    return traced_cluster(ClusterConfig.uncached(**overrides))


class TestFullStackSpanChain:
    def test_single_read_spans_every_layer(self):
        """One agent read reconstructs as a single trace whose primary
        chain touches file_agent, file_service, disk_service and
        simdisk, in architecture order (paper Fig. 1)."""
        cluster = uncached_cluster()
        agent = cluster.machine.file_agent
        name = AttributedName.file("/traced")
        descriptor = agent.create(name)
        agent.write(descriptor, b"payload" * 100)
        agent.close(descriptor)

        cluster.tracer.reset()
        descriptor = agent.open(name)
        data = agent.read(descriptor, 64)
        agent.close(descriptor)
        assert data == (b"payload" * 100)[:64]

        read_roots = [
            span for span in cluster.tracer.roots()
            if span.layer == "file_agent" and span.op == "read"
        ]
        assert len(read_roots) == 1
        root = read_roots[0]
        assert cluster.tracer.layer_path(root.trace_id) == [
            "file_agent", "file_service", "disk_service", "simdisk",
        ]

    def test_span_tree_structure_and_annotations(self):
        cluster = uncached_cluster()
        agent = cluster.machine.file_agent
        name = AttributedName.file("/traced")
        descriptor = agent.create(name)
        agent.write(descriptor, b"x" * 4096)
        agent.close(descriptor)

        cluster.tracer.reset()
        descriptor = agent.open(name)
        agent.read(descriptor, 512)
        agent.close(descriptor)

        tracer = cluster.tracer
        root = next(
            span for span in tracer.roots()
            if span.layer == "file_agent" and span.op == "read"
        )
        spans = tracer.trace(root.trace_id)
        # Every span of the request shares the root's trace id, and
        # every non-root span has a resolvable parent in the trace.
        ids = {span.span_id for span in spans}
        for span in spans:
            assert span.trace_id == root.trace_id
            if span.parent_id is not None:
                assert span.parent_id in ids
            assert span.end_us is not None
            assert span.end_us >= span.start_us

        fs_span = next(span for span in spans if span.layer == "file_service")
        assert fs_span.annotations["disk_references"] >= 1
        ds_span = next(span for span in spans if span.layer == "disk_service")
        assert ds_span.annotations["track_cache"] == "bypassed"
        disk_span = next(span for span in spans if span.layer == "simdisk")
        assert disk_span.op == "read"

    def test_block_pool_annotation_reports_the_serving_cache_level(self):
        """With only the server cache on, a read the pool can answer is
        annotated block_pool_hits and never reaches the disk service."""
        cluster = traced_cluster(ClusterConfig(client_cache_blocks=0))
        agent = cluster.machine.file_agent
        name = AttributedName.file("/pooled")
        descriptor = agent.create(name)
        agent.write(descriptor, b"p" * 512)
        agent.close(descriptor)  # write-through leaves the pool warm

        cluster.tracer.reset()
        descriptor = agent.open(name)
        agent.read(descriptor, 256)
        agent.close(descriptor)

        root = next(
            span for span in cluster.tracer.roots()
            if span.layer == "file_agent" and span.op == "read"
        )
        fs_span = next(
            span for span in cluster.tracer.trace(root.trace_id)
            if span.layer == "file_service"
        )
        assert fs_span.annotations["block_pool_hits"] >= 1
        assert fs_span.annotations["disk_references"] == 0

    def test_cache_hit_stops_chain_at_the_agent(self):
        """A warm agent-cache read never leaves the client machine, and
        the trace shows exactly that."""
        cluster = traced_cluster()
        agent = cluster.machine.file_agent
        name = AttributedName.file("/warm")
        descriptor = agent.create(name)
        agent.write(descriptor, b"w" * 512)
        agent.close(descriptor)

        descriptor = agent.open(name)
        agent.read(descriptor, 100)  # populate the agent cache
        cluster.tracer.reset()
        agent.read(descriptor, 100)  # same block: served from the cache
        agent.close(descriptor)

        root = next(
            span for span in cluster.tracer.roots()
            if span.layer == "file_agent" and span.op == "read"
        )
        assert cluster.tracer.layer_path(root.trace_id) == ["file_agent"]
        assert root.annotations["agent_cache_hits"] >= 1

    def test_tracing_disabled_is_the_default_and_records_nothing(self):
        cluster = RhodosCluster(ClusterConfig())
        agent = cluster.machine.file_agent
        descriptor = agent.create(AttributedName.file("/quiet"))
        agent.write(descriptor, b"data")
        agent.close(descriptor)
        assert cluster.tracer.enabled is False
        assert cluster.tracer.spans() == []

    def test_traces_are_deterministic_across_identical_runs(self):
        def run():
            cluster = uncached_cluster()
            agent = cluster.machine.file_agent
            descriptor = agent.create(AttributedName.file("/det"))
            agent.write(descriptor, b"d" * 2048)
            agent.close(descriptor)
            descriptor = agent.open(AttributedName.file("/det"))
            agent.read(descriptor, 1024)
            agent.close(descriptor)
            return [
                (s.span_id, s.parent_id, s.trace_id, s.layer, s.op,
                 s.start_us, s.end_us, tuple(sorted(
                     (k, v) for k, v in s.annotations.items())))
                for s in cluster.tracer.spans()
            ]

        assert run() == run()


class TestSpansInsideFrames:
    """Inside a deferred-time frame the global clock stands still, so a
    span must read the frame's cursor or every one of them is empty."""

    def assert_well_formed(self, spans):
        by_id = {span.span_id: span for span in spans}
        for span in spans:
            assert span.duration_us > 0, span
            parent = by_id.get(span.parent_id)
            if parent is not None:
                assert parent.start_us <= span.start_us
                assert span.end_us <= parent.end_us

    def test_concurrent_reads_cover_their_service_time(self):
        cluster = uncached_cluster(n_disks=2)
        agent = cluster.machine.file_agent
        descriptors = []
        for index in range(6):
            descriptor = agent.create(
                AttributedName.file(f"/c{index}"), volume_id=index % 2
            )
            agent.write(descriptor, b"c" * 4096)
            descriptors.append(descriptor)
        cluster.tracer.reset()

        cluster.run_concurrent(
            lambda c, client, _: c.machine.file_agent.pread(
                descriptors[client], 512, 0
            ),
            n_clients=6,
            ops_per_client=1,
        )

        spans = cluster.tracer.spans()
        assert len(cluster.tracer.roots()) == 6
        self.assert_well_formed(spans)

    def test_replicated_write_branches_start_together(self):
        cluster = uncached_cluster(n_disks=2, replication_degree=2)
        name = AttributedName.file("/replicated")
        cluster.replication.create(name)
        cluster.tracer.reset()
        started = cluster.clock.now_us

        cluster.replication.write(name, 0, b"r" * 4096)

        spans = cluster.tracer.spans()
        self.assert_well_formed(spans)
        branches = cluster.tracer.roots()
        assert [span.layer for span in branches] == ["file_service"] * 2
        # One fan-out: both replica writes start at the fork point, and
        # the blocking caller resumes when the slower one ends.
        assert {span.start_us for span in branches} == {started}
        assert cluster.clock.now_us == max(span.end_us for span in branches)


class TestTransactionAndRpcSpans:
    def test_commit_produces_a_transactions_root_span(self):
        cluster = traced_cluster()
        host = cluster.machine.transactions
        tid = host.tbegin()
        descriptor = host.tcreate(tid, AttributedName.file("/txn"))
        host.twrite(tid, descriptor, b"committed")
        host.tend(tid)
        commit_spans = [
            span for span in cluster.tracer.spans()
            if span.layer == "transactions" and span.op == "commit"
        ]
        assert commit_spans
        assert all(span.end_us is not None for span in commit_spans)

    def test_rpc_transmit_spans_carry_outcome(self):
        from repro.rpc.bus import FaultProfile

        cluster = traced_cluster(
            ClusterConfig(fault_profile=FaultProfile(), seed=7)
        )
        agent = cluster.machine.file_agent
        descriptor = agent.create(AttributedName.file("/remote"))
        agent.write(descriptor, b"over the wire")
        agent.close(descriptor)
        rpc_spans = [
            span for span in cluster.tracer.spans() if span.layer == "rpc"
        ]
        assert rpc_spans
        assert all(
            span.annotations["outcome"] in {"ok", "request_lost", "reply_lost"}
            for span in rpc_spans
        )
