"""E5 — caching at the transaction/file/disk levels vs the Bullet server.

Paper claim (section 1): "Either the absence of caching in the client
machine as in the case of the 'Bullet server' of Amoeba or poor
implementation of caching could prove a major bottleneck ... a
significant gain in the performance due to the caching system alone can
be easily realised, provided it is made available at [every] level."

A locality-bearing re-read workload runs against five configurations.
Expected shape: every added level cuts disk references and mean
latency; the client cache (the level Bullet lacks) is the biggest
single step because it also eliminates file-server round trips.
"""

from _helpers import print_table
from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.naming.attributed import AttributedName
from repro.rpc.bus import FaultProfile
from repro.simdisk.geometry import DiskGeometry
from repro.workloads.access import read_plan

#: Agents talk to the file service over the message bus: a server round
#: trip costs two one-way latencies, which is precisely the cost the
#: client cache exists to avoid (the Bullet server pays it always).
_LATENCY_US = 1000

N_FILES = 12
FILE_SIZE = 32 * 1024
N_REQUESTS = 300
REQUEST_BYTES = 2048

CONFIGS = [
    ("no caching at all", dict(client_cache_blocks=0, server_cache_blocks=0, disk_cache_tracks=0, disk_readahead=False)),
    ("disk cache only", dict(client_cache_blocks=0, server_cache_blocks=0, disk_cache_tracks=96)),
    ("disk + file server", dict(client_cache_blocks=0, server_cache_blocks=48, disk_cache_tracks=96)),
    ("Bullet-style (no client)", dict(client_cache_blocks=0, server_cache_blocks=48, disk_cache_tracks=96)),
    ("all three levels", dict(client_cache_blocks=96, server_cache_blocks=48, disk_cache_tracks=96)),
]


def run_config(options):
    cluster = RhodosCluster(
        ClusterConfig(
            geometry=DiskGeometry.medium(),
            fault_profile=FaultProfile.reliable(latency_us=_LATENCY_US),
            **options,
        )
    )
    agent = cluster.machine.file_agent
    descriptors = []
    for index in range(N_FILES):
        descriptor = agent.create(AttributedName.file(f"/f{index}"))
        agent.write(descriptor, bytes([index + 1]) * FILE_SIZE)
        descriptors.append(descriptor)
    cluster.flush_all()
    for server in cluster.file_servers.values():
        server.recover()  # cold start for the measured phase
    before = cluster.metrics.snapshot()
    start_us = cluster.clock.now_us
    for file_index, offset in read_plan(
        N_FILES, FILE_SIZE, REQUEST_BYTES, N_REQUESTS, seed=23
    ):
        agent.pread(descriptors[file_index], REQUEST_BYTES, offset)
    diff = cluster.metrics.diff(before)
    return {
        "disk_refs": diff.get("disk.0.references", 0),
        "server_reads": diff.get("file_server.0.reads", 0),
        "mean_us": (cluster.clock.now_us - start_us) / N_REQUESTS,
    }


def run_all():
    return [(label, run_config(options)) for label, options in CONFIGS]


def test_e5_cache_levels():
    results = run_all()
    print_table(
        f"E5  {N_REQUESTS} locality reads: cache levels on/off",
        ["configuration", "disk refs", "file-server reads", "mean us/request"],
        [
            (label, row["disk_refs"], row["server_reads"], f"{row['mean_us']:.0f}")
            for label, row in results
        ],
    )
    by_label = dict(results)
    none = by_label["no caching at all"]
    disk_only = by_label["disk cache only"]
    two = by_label["disk + file server"]
    bullet = by_label["Bullet-style (no client)"]
    full = by_label["all three levels"]
    # Monotone improvement as levels are added.
    assert disk_only["mean_us"] < none["mean_us"]
    assert two["mean_us"] <= disk_only["mean_us"]
    assert full["mean_us"] < two["mean_us"]
    # The client cache eliminates file-server round trips entirely for
    # cached data — the step Bullet cannot take.
    assert full["server_reads"] < bullet["server_reads"] / 2
    # Block-granular client misses may touch a few more disk blocks than
    # request-granular server reads would; the tolerance reflects that.
    assert full["disk_refs"] <= bullet["disk_refs"] + 6
