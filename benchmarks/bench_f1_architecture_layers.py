"""F1 — Figure 1: the layered architecture and per-level caching.

Paper claim (section 2.2): the architecture "provides caching at each
level to avoid descending to a lower level to satisfy each request
from the client."  We replay the same locality-bearing read workload
against four configurations — every cache on, client cache off, client
and server caches off, everything off — and count how many requests
reach each layer.  Expected shape: each cache level absorbs traffic,
so requests reaching the disk shrink as levels are added.
"""

from _helpers import print_table
from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.naming.attributed import AttributedName
from repro.simdisk.geometry import DiskGeometry
from repro.workloads.access import read_plan

N_FILES = 8
FILE_SIZE = 64 * 1024
N_REQUESTS = 150
REQUEST_BYTES = 4096

CONFIGS = [
    ("all levels", dict(client_cache_blocks=128, server_cache_blocks=256, disk_cache_tracks=64)),
    ("no client cache", dict(client_cache_blocks=0, server_cache_blocks=256, disk_cache_tracks=64)),
    ("disk cache only", dict(client_cache_blocks=0, server_cache_blocks=0, disk_cache_tracks=64)),
    ("no caching", dict(client_cache_blocks=0, server_cache_blocks=0, disk_cache_tracks=0)),
]


def run_config(options):
    cluster = RhodosCluster(
        ClusterConfig(geometry=DiskGeometry.medium(), **options)
    )
    agent = cluster.machine.file_agent
    descriptors = []
    for index in range(N_FILES):
        descriptor = agent.create(AttributedName.file(f"/f{index}"))
        agent.write(descriptor, bytes([index]) * FILE_SIZE)
        descriptors.append(descriptor)
    agent.flush()
    cluster.flush_all()
    before = cluster.metrics.snapshot()
    start_us = cluster.clock.now_us
    for file_index, offset in read_plan(
        N_FILES, FILE_SIZE, REQUEST_BYTES, N_REQUESTS, seed=11
    ):
        agent.pread(descriptors[file_index], REQUEST_BYTES, offset)
    diff = cluster.metrics.diff(before)
    return {
        "agent_requests": N_REQUESTS,
        "file_server_reads": diff.get("file_server.0.reads", 0),
        "disk_gets": diff.get("disk_server.0.gets", 0),
        "disk_references": diff.get("disk.0.references", 0),
        "mean_us": (cluster.clock.now_us - start_us) / N_REQUESTS,
    }


def run_all():
    return {label: run_config(options) for label, options in CONFIGS}


def test_f1_architecture_layers():
    results = run_all()
    print_table(
        "F1  Figure 1: requests reaching each layer (150 client reads)",
        ["configuration", "agent", "file server", "disk server", "disk refs", "mean us/req"],
        [
            [
                label,
                row["agent_requests"],
                row["file_server_reads"],
                row["disk_gets"],
                row["disk_references"],
                f"{row['mean_us']:.0f}",
            ]
            for label, row in results.items()
        ],
    )
    full = results["all levels"]
    no_client = results["no client cache"]
    disk_only = results["disk cache only"]
    nothing = results["no caching"]
    # Each added cache level absorbs requests before the disk.
    assert full["disk_references"] <= no_client["disk_references"]
    assert no_client["disk_references"] <= nothing["disk_references"]
    # The client cache absorbs requests before they reach the file server.
    assert full["file_server_reads"] < no_client["file_server_reads"]
    # And the full stack is fastest end-to-end.
    assert full["mean_us"] < nothing["mean_us"]
