"""E20 — the sharded namespace under a metadata storm (PR 10).

The paper partitions its global name space across directory servers so
that name resolution — the operation every file access starts with —
never funnels through one machine.  PR 10 reproduces that split:
``n_shards`` shard servers each own a set of hash slots of the binding
space, and the router fans client operations out by the canonical key
of the name (DESIGN.md §15).  This experiment prices the partition:

* **Metadata throughput scales with the shard count.**  A closed-loop
  storm of 1,200 clients — three operations each, three resolves to one
  data write — against 1/2/4/8 shards with a 350 µs modelled service
  time per metadata operation.  One shard serializes every resolve
  through a single busy-until timeline; eight spread the same offered
  load, and aggregate throughput at 8 shards is required to be at
  least 3x the 1-shard figure.
* **Per-class latency separates the planes.**  The driver's per-class
  histograms (PR 10 satellite) split resolve cost from data traffic:
  metadata mean latency falls as shards are added while the data plane
  — the same four volumes at every point — stays put.
* **The split is invisible to correctness.**  Every sweep point runs
  the identical workload; completed-operation counts and the
  metadata/data split must match across shard counts exactly.
"""

from _helpers import build_cluster, print_table
from repro.naming.attributed import AttributedName

SHARD_COUNTS = (1, 2, 4, 8)
N_CLIENTS = 1200
OPS_PER_CLIENT = 3
SHARD_SERVICE_US = 350
N_DISKS = 4
#: Pre-bound TTY names the metadata class resolves.
N_TTYS = 256
#: Shared files the data class writes at per-client offsets.
N_FILES = 32
PAYLOAD = b"\xa5" * 1024


def run_storm(n_shards):
    """One sweep point: the storm against ``n_shards`` shard servers."""
    cluster = build_cluster(
        n_shards=n_shards,
        shard_service_us=SHARD_SERVICE_US,
        n_disks=N_DISKS,
        placement_policy="least_loaded",
        client_cache_blocks=0,
        seed=20,
    )
    agent = cluster.machine.file_agent

    # Pre-bind the resolve targets and pre-create the data files so the
    # measured loop is pure steady-state traffic, no cold-start binds.
    # The names carry ``path`` — the attribute the router hashes — so
    # every resolve is single-shard (a path-less query must fan out to
    # all shards and would never scale; see ``routing_key``).
    tty_names = [
        AttributedName.tty(
            f"dev{index}", path=f"/dev/tty{index}", room=f"r{index % 8}"
        )
        for index in range(N_TTYS)
    ]
    for index, name in enumerate(tty_names):
        cluster.naming.bind(name, f"host{index % 4}:/dev/tty{index}")
    descriptors = [
        agent.create(AttributedName.file(f"/e20/f{index}"))
        for index in range(N_FILES)
    ]

    def client_op(cluster, client, op_index):
        sequence = client * OPS_PER_CLIENT + op_index
        if sequence % 4 == 3:  # one op in four is data traffic
            descriptor = descriptors[sequence % N_FILES]
            agent.pwrite(descriptor, PAYLOAD, (client % 16) * len(PAYLOAD))
            return "data"
        cluster.naming.resolve(tty_names[(sequence * 7) % N_TTYS])
        return "metadata"

    report = cluster.run_concurrent(
        client_op, n_clients=N_CLIENTS, ops_per_client=OPS_PER_CLIENT
    )
    for descriptor in descriptors:
        agent.close(descriptor)
    return {
        "ops": report.ops_completed,
        "elapsed_us": report.elapsed_us,
        "throughput_ops_per_s": report.throughput_ops_per_s,
        "metadata_ops": report.class_ops("metadata"),
        "data_ops": report.class_ops("data"),
        "metadata_mean_us": report.class_mean_latency_us("metadata"),
        "data_mean_us": report.class_mean_latency_us("data"),
        "shard_ops": sum(
            cluster.metrics.get(f"naming_shard.{shard_id}.ops")
            for shard_id in sorted(cluster.shards)
        ),
    }


def test_e20_sharded_namespace():
    points = {count: run_storm(count) for count in SHARD_COUNTS}

    print_table(
        "E20  Metadata storm: 1,200 clients x 3 ops, 3:1 resolve:write",
        [
            "shards",
            "ops",
            "elapsed (ms)",
            "ops/s",
            "meta mean (us)",
            "data mean (us)",
        ],
        [
            (
                count,
                points[count]["ops"],
                f"{points[count]['elapsed_us'] / 1000.0:.1f}",
                f"{points[count]['throughput_ops_per_s']:.0f}",
                f"{points[count]['metadata_mean_us']:.0f}",
                f"{points[count]['data_mean_us']:.0f}",
            )
            for count in SHARD_COUNTS
        ],
    )

    # The identical workload completed at every sweep point.
    expected_total = N_CLIENTS * OPS_PER_CLIENT
    for count in SHARD_COUNTS:
        point = points[count]
        assert point["ops"] == expected_total
        assert point["metadata_ops"] + point["data_ops"] == expected_total
        assert point["metadata_ops"] == points[SHARD_COUNTS[0]]["metadata_ops"]
        assert point["data_ops"] == points[SHARD_COUNTS[0]]["data_ops"]

    # The headline claim: partitioning the namespace over 8 shard
    # servers buys at least 3x the single-server metadata throughput.
    assert (
        points[8]["throughput_ops_per_s"]
        >= 3 * points[1]["throughput_ops_per_s"]
    )
    # More shards never hurt, point to point.
    for thinner, wider in zip(SHARD_COUNTS, SHARD_COUNTS[1:]):
        assert (
            points[wider]["throughput_ops_per_s"]
            >= points[thinner]["throughput_ops_per_s"]
        )
    # The win is the metadata plane's: resolve latency collapses as the
    # storm spreads across shard timelines.
    assert points[8]["metadata_mean_us"] < points[1]["metadata_mean_us"] / 2
