"""E19 — the RAID tier: striping, parity, and degraded service (PR 9).

The paper's disk service runs one server per spindle; PR 9 slides a
:class:`~repro.simdisk.raid.StripedVolume` underneath it, so one
logical disk is striped (raid0), mirrored (raid1), or parity-protected
(raid5) over N member drives while the pipeline, scheduler, and cache
stack stay byte-for-byte unchanged.  This experiment measures what the
tier costs and buys:

* **Striping overlaps members.**  The E16 contention load (8 request
  streams hammering alternating ends of the platter) against single /
  raid0 / raid1 / raid5 arrays under FCFS and SCAN+coalesce: raid0
  spreads the same offered load over four arms and beats the single
  spindle on aggregate throughput under both policies.
* **Stripe width and chunk size are real knobs.**  A raid5 sweep over
  3/4/6 members x 4/16/64-sector chunks shows wider arrays overlapping
  more and bigger chunks referencing less.
* **Degraded service costs, rebuild costs more, bytes stay exact.**
  One identical primed read/write load in OPTIMAL, DEGRADED, and
  REBUILDING modes: every read is verified byte-exact against its
  primed pattern (reconstruction included), and elapsed time ranks
  optimal <= degraded <= rebuilding.
* **The RAID-5 small-write penalty.**  Scattered single-sector writes
  at the array surface: raid0 pays one member reference, raid1 mirrors
  to all four, raid5 pays the full read-modify-write (old data + old
  parity in, new data + new parity out) — while full-row writes
  compute parity from the payload alone and never read a platter.
  A caller who *waits* for the write pays less than the reference
  count suggests: the array reference is one operation frame, so the
  mirror's four writes cost one member write and the read-modify-write
  costs its slower read plus its slower write.
"""

from _helpers import pattern, print_table
from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.disk_service.addresses import Extent
from repro.disk_service.pipeline import DiskPipeline
from repro.disk_service.scheduler import make_scheduler
from repro.disk_service.server import DiskServer
from repro.simdisk.disk import SimDisk
from repro.simdisk.geometry import DiskGeometry
from repro.simdisk.raid import RaidRebuilder, StripedVolume
from repro.simdisk.stable import StableStore
from repro.simkernel.loop import EventLoop

#: (label, level, members, chunk_sectors) — the contention grid rows.
LAYOUTS = (
    ("single", None, 1, 16),
    ("raid0/4", "raid0", 4, 16),
    ("raid1/4", "raid1", 4, 16),
    ("raid5/4", "raid5", 4, 16),
)
POLICIES = ("fcfs", "scan+coalesce")
WIDTHS = (3, 4, 6)
CHUNKS = (4, 16, 64)
N_CLIENTS = 8
OPS_PER_CLIENT = 8
FRAGMENT_BYTES = Extent(0, 1).byte_size
#: Fragments per contention op: 32 sectors, so a transfer spans 2-8
#: member chunks depending on chunk size — the span striping overlaps.
OP_FRAGMENTS = 8
#: One fixed working-set size for every layout, so seek spans are
#: comparable whether the logical disk is 1x or 4x a member.
REGION_FRAGMENTS = 4096


def _build_stack(level, members, chunk_sectors, policy, clock, metrics, loop):
    """A DiskServer + pipeline over a single drive or an array."""
    tag = f"{level or 'single'}.{members}.{chunk_sectors}"
    if level is None:
        disk = SimDisk(tag, DiskGeometry.small(), clock, metrics)
        member_ids = [disk.disk_id]
    else:
        drives = [
            SimDisk(f"{tag}.m{index}", DiskGeometry.small(), clock, metrics)
            for index in range(members)
        ]
        disk = StripedVolume(
            tag, drives, level=level, chunk_sectors=chunk_sectors, metrics=metrics
        )
        member_ids = [drive.disk_id for drive in drives]
    stable = StableStore(
        SimDisk(f"{tag}.sa", DiskGeometry.small(), clock, metrics),
        SimDisk(f"{tag}.sb", DiskGeometry.small(), clock, metrics),
    )
    server = DiskServer(disk, stable, clock, metrics)
    DiskPipeline(server, loop, make_scheduler(policy))
    return server, disk, member_ids


def _member_totals(metrics, member_ids, name):
    return sum(metrics.get(f"disk.{member}.{name}") for member in member_ids)


def run_contention_point(level, members, chunk_sectors, policy):
    """The E16 contention shape against one (possibly striped) volume.

    Eight streams alternate between the low and high ends of one
    fixed-size region; two ops in three are 32-sector reads spanning
    multiple stripe chunks, the third a 32-sector write — partial-row
    updates for raid5, mirror fan-out for raid1.
    """
    clock, metrics = SimClock(), Metrics()
    loop = EventLoop(clock)
    server, _, member_ids = _build_stack(
        level, members, chunk_sectors, policy, clock, metrics, loop
    )
    region = server.allocate(REGION_FRAGMENTS)
    half = (region.length - OP_FRAGMENTS) // 2
    completions = []
    for op_index in range(OPS_PER_CLIENT):
        for client in range(N_CLIENTS):
            index = op_index * N_CLIENTS + client
            if index % 2 == 0:
                slot = (index * 17) % half
            else:
                slot = region.length - OP_FRAGMENTS - ((index * 23) % half)
            extent = Extent(region.start + slot, OP_FRAGMENTS)
            if index % 3 == 2:
                completions.append(
                    server.submit_put(
                        extent, pattern(extent.byte_size, seed=index)
                    )
                )
            else:
                completions.append(server.submit_get(extent, use_cache=False))
    loop.run_until(lambda: all(completion.done for completion in completions))
    waits = metrics.histogram_samples("disk_service.queue_wait_us")
    elapsed_us = clock.now_us
    return {
        "ops": len(completions),
        "elapsed_us": elapsed_us,
        "throughput_ops_per_s": len(completions) * 1_000_000 / elapsed_us,
        "mean_wait_us": sum(waits) / len(waits),
        "member_references": _member_totals(metrics, member_ids, "references"),
        "member_sectors_written": _member_totals(
            metrics, member_ids, "sectors_written"
        ),
    }


def run_layout_grid():
    return {
        (label, policy): run_contention_point(level, members, chunk, policy)
        for label, level, members, chunk in LAYOUTS
        for policy in POLICIES
    }


def run_width_grid():
    return {
        (width, chunk): run_contention_point("raid5", width, chunk, "scan+coalesce")
        for width in WIDTHS
        for chunk in CHUNKS
    }


# ------------------------------------------------- service modes


def run_mode_point(mode):
    """One primed read/write load in optimal / degraded / rebuilding mode.

    The same 64 slots are primed with per-slot patterns, then re-read
    and partially rewritten while the array is healthy, missing member
    1, or rebuilding member 1 with the rebuilder force-stepped between
    operations.  Every read is verified byte-exact — a degraded read of
    the lost column must reconstruct the primed bytes through parity.
    """
    clock, metrics = SimClock(), Metrics()
    loop = EventLoop(clock)
    server, array, member_ids = _build_stack(
        "raid5", 4, 16, "scan+coalesce", clock, metrics, loop
    )
    region = server.allocate(server.n_fragments // 2)
    slots = sorted({(index * 37) % (region.length - 1) for index in range(64)})
    primed = [
        server.submit_put(
            Extent(region.start + slot, 1), pattern(FRAGMENT_BYTES, seed=slot)
        )
        for slot in slots
    ]
    loop.run_until(lambda: all(completion.done for completion in primed))

    rebuilder = None
    if mode != "optimal":
        array.fail_member(1)
    if mode == "rebuilding":
        array.replace_member(1)
        rebuilder = RaidRebuilder(array, chunks_per_step=8)
    started_us = clock.now_us
    base_references = _member_totals(metrics, member_ids, "references")
    verified = 0
    for op_index, slot in enumerate(slots):
        extent = Extent(region.start + slot, 1)
        if op_index % 4 == 3:
            completion = server.submit_put(
                extent, pattern(FRAGMENT_BYTES, seed=slot)
            )
        else:
            completion = server.submit_get(extent, use_cache=False)
        loop.run_until(lambda: completion.done)
        if op_index % 4 != 3:
            assert completion.result() == pattern(FRAGMENT_BYTES, seed=slot)
            verified += 1
        if rebuilder is not None and not rebuilder.done:
            rebuilder.step(force=True)
    elapsed_us = clock.now_us - started_us
    return {
        "state": array.state.name,
        "ops": len(slots),
        "reads_verified": verified,
        "elapsed_us": elapsed_us,
        "member_references": (
            _member_totals(metrics, member_ids, "references") - base_references
        ),
        "degraded_reads": metrics.get(f"raid.{array.array_id}.degraded_reads"),
        "segments_reconstructed": metrics.get(
            f"raid.{array.array_id}.segments_reconstructed"
        ),
        "rebuild_chunks": metrics.get(f"raid.{array.array_id}.rebuild.chunks"),
    }


MODES = ("optimal", "degraded", "rebuilding")


def run_modes():
    return {mode: run_mode_point(mode) for mode in MODES}


# ------------------------------------------------- small-write penalty


def _small_write_array(level, chunk_sectors=16):
    clock, metrics = SimClock(), Metrics()
    drives = [
        SimDisk(f"w.{level}.m{index}", DiskGeometry.small(), clock, metrics)
        for index in range(4)
    ]
    array = StripedVolume(
        f"w.{level}", drives, level=level, chunk_sectors=chunk_sectors,
        metrics=metrics,
    )
    return array, drives, metrics, clock


def run_small_write_point(level):
    """32 scattered single-sector writes straight at the array surface."""
    array, drives, metrics, clock = _small_write_array(level)
    member_ids = [drive.disk_id for drive in drives]
    size = array.geometry.sector_size
    total = array.geometry.total_sectors
    snapshot = lambda name: _member_totals(metrics, member_ids, name)
    base = (snapshot("references"), snapshot("sectors_read"),
            snapshot("sectors_written"), snapshot("busy_us"))
    started_us = clock.now_us
    n_ops = 32
    for op_index in range(n_ops):
        array.write_sectors((op_index * 131) % (total - 1), pattern(size, seed=op_index))
    return {
        "ops": n_ops,
        "references_per_op": (snapshot("references") - base[0]) / n_ops,
        "sectors_read_per_op": (snapshot("sectors_read") - base[1]) / n_ops,
        "sectors_written_per_op": (snapshot("sectors_written") - base[2]) / n_ops,
        "elapsed_us": clock.now_us - started_us,
        "member_busy_us": snapshot("busy_us") - base[3],
    }


def run_full_row_point():
    """Row-aligned full-stripe raid5 writes: reconstruct-write, no reads."""
    array, drives, metrics, clock = _small_write_array("raid5")
    member_ids = [drive.disk_id for drive in drives]
    size = array.geometry.sector_size
    row_sectors = array.chunk_sectors * 3
    snapshot = lambda name: _member_totals(metrics, member_ids, name)
    base = (snapshot("references"), snapshot("sectors_read"),
            snapshot("sectors_written"), snapshot("busy_us"))
    started_us = clock.now_us
    n_ops = 8
    for row in range(n_ops):
        array.write_sectors(row * row_sectors, pattern(row_sectors * size, seed=row))
    return {
        "ops": n_ops,
        "references_per_op": (snapshot("references") - base[0]) / n_ops,
        "sectors_read_per_op": (snapshot("sectors_read") - base[1]) / n_ops,
        "sectors_written_per_op": (snapshot("sectors_written") - base[2]) / n_ops,
        "elapsed_us": clock.now_us - started_us,
        "member_busy_us": snapshot("busy_us") - base[3],
    }


def member_refs_waited(point):
    """Elapsed time per write, in units of the point's mean member reference.

    The sum of the references a write issues when they run back to
    back; the slowest of each overlapped phase when they do not.
    """
    mean_reference_us = point["member_busy_us"] / (
        point["references_per_op"] * point["ops"]
    )
    return point["elapsed_us"] / point["ops"] / mean_reference_us


SMALL_WRITE_LEVELS = ("raid0", "raid1", "raid5")


def run_small_writes():
    points = {level: run_small_write_point(level) for level in SMALL_WRITE_LEVELS}
    points["raid5 full-row"] = run_full_row_point()
    return points


# ------------------------------------------------- the experiment


def test_e19_raid():
    layouts, widths = run_layout_grid(), run_width_grid()
    modes, small = run_modes(), run_small_writes()

    print_table(
        "E19  Contention throughput (ops/s) by layout and policy, 8 clients",
        ["layout"]
        + [f"{policy} ops/s" for policy in POLICIES]
        + ["member refs (scan+coalesce)"],
        [
            (
                label,
                *(
                    f"{layouts[(label, policy)]['throughput_ops_per_s']:.0f}"
                    for policy in POLICIES
                ),
                layouts[(label, "scan+coalesce")]["member_references"],
            )
            for label, _, _, _ in LAYOUTS
        ],
    )
    print_table(
        "E19  raid5 stripe width x chunk size (scan+coalesce)",
        ["members", "chunk", "ops/s", "member refs", "mean wait (us)"],
        [
            (
                width,
                chunk,
                f"{widths[(width, chunk)]['throughput_ops_per_s']:.0f}",
                widths[(width, chunk)]["member_references"],
                f"{widths[(width, chunk)]['mean_wait_us']:.0f}",
            )
            for width in WIDTHS
            for chunk in CHUNKS
        ],
    )
    print_table(
        "E19  Service modes (raid5/4, chunk 16): identical primed load",
        ["mode", "state after", "elapsed (ms)", "member refs",
         "degraded reads", "reconstructed", "rebuild chunks"],
        [
            (
                mode,
                modes[mode]["state"],
                f"{modes[mode]['elapsed_us'] / 1000.0:.1f}",
                modes[mode]["member_references"],
                modes[mode]["degraded_reads"],
                modes[mode]["segments_reconstructed"],
                modes[mode]["rebuild_chunks"],
            )
            for mode in MODES
        ],
    )
    print_table(
        "E19  Small-write penalty (4 members, chunk 16, per logical write)",
        ["workload", "member refs", "sectors read", "sectors written",
         "elapsed ms per write (blocking)", "= member refs waited for"],
        [
            (
                label,
                f"{small[label]['references_per_op']:.1f}",
                f"{small[label]['sectors_read_per_op']:.1f}",
                f"{small[label]['sectors_written_per_op']:.1f}",
                f"{small[label]['elapsed_us'] / small[label]['ops'] / 1000.0:.2f}",
                f"{member_refs_waited(small[label]):.2f}",
            )
            for label in (*SMALL_WRITE_LEVELS, "raid5 full-row")
        ],
    )

    # Striping overlaps members: raid0 beats the single spindle on the
    # same offered load under both policies.
    for policy in POLICIES:
        assert (
            layouts[("raid0/4", policy)]["throughput_ops_per_s"]
            > layouts[("single", policy)]["throughput_ops_per_s"]
        )
    # The scheduler still earns its keep on every layout.
    for label, _, _, _ in LAYOUTS:
        assert (
            layouts[(label, "scan+coalesce")]["throughput_ops_per_s"]
            >= layouts[(label, "fcfs")]["throughput_ops_per_s"]
        )
    # Redundancy costs member traffic: the mirror lands every logical
    # sector on all four platters (reads, by contrast, are served from
    # one mirror — fewer references than striping's multi-member
    # spans), and parity's read-modify-write both references and
    # writes more than pure striping.
    assert (
        layouts[("raid1/4", "scan+coalesce")]["member_sectors_written"]
        > 3 * layouts[("raid0/4", "scan+coalesce")]["member_sectors_written"]
    )
    assert (
        layouts[("raid5/4", "scan+coalesce")]["member_references"]
        > layouts[("raid0/4", "scan+coalesce")]["member_references"]
    )
    assert (
        layouts[("raid5/4", "scan+coalesce")]["member_sectors_written"]
        > layouts[("raid0/4", "scan+coalesce")]["member_sectors_written"]
    )
    # Bigger chunks reference fewer platters per op at every width.
    for width in WIDTHS:
        assert (
            widths[(width, 64)]["member_references"]
            <= widths[(width, 4)]["member_references"]
        )

    # Mode ranking: degraded service is slower than optimal (lost-column
    # reads fan out to every survivor), rebuilding slower still (the
    # rebuilder's reconstruction traffic shares the spindles).
    assert modes["optimal"]["state"] == "OPTIMAL"
    assert modes["degraded"]["state"] == "DEGRADED"
    assert modes["optimal"]["degraded_reads"] == 0
    assert modes["degraded"]["degraded_reads"] > 0
    assert modes["degraded"]["segments_reconstructed"] > 0
    assert modes["rebuilding"]["rebuild_chunks"] > 0
    assert (
        modes["degraded"]["elapsed_us"] > modes["optimal"]["elapsed_us"]
    )
    assert (
        modes["rebuilding"]["elapsed_us"] > modes["degraded"]["elapsed_us"]
    )
    # Every read in every mode verified byte-exact against its primed
    # pattern — reconstruction included.
    for mode in MODES:
        assert modes[mode]["reads_verified"] > 0

    # The small-write penalty, in member references per logical write:
    # raid0 pays one, the 4-way mirror pays four (all writes, no
    # reads), raid5 pays the read-modify-write (two reads + two writes)
    # — unless the write covers a whole row, where parity comes from
    # the payload and nothing is read back.
    assert small["raid0"]["references_per_op"] == 1.0
    assert small["raid0"]["sectors_read_per_op"] == 0.0
    assert small["raid1"]["references_per_op"] == 4.0
    assert small["raid1"]["sectors_read_per_op"] == 0.0
    assert small["raid5"]["references_per_op"] == 4.0
    assert small["raid5"]["sectors_read_per_op"] == 2.0
    assert small["raid5 full-row"]["sectors_read_per_op"] == 0.0
    assert small["raid5 full-row"]["references_per_op"] == 4.0
    # What the array costs a caller who waits (no pipeline frame): the
    # members of one reference work concurrently, so a striped or a
    # mirrored write waits for one member write and the parity
    # read-modify-write for its slower read plus its slower write —
    # not for the 1, 4 and 4 references above laid end to end.
    assert member_refs_waited(small["raid0"]) < 2.0
    assert member_refs_waited(small["raid1"]) < 2.0
    assert member_refs_waited(small["raid5"]) < 3.0
