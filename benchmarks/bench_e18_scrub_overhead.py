"""E18 — scrub overhead vs foreground throughput (PR 6).

The background scrubber (DESIGN.md §11) must never become the paper's
own anti-goal: a reliability mechanism that costs the "high
performance" half of the title.  Its two defenses are the idle gate
(``step()`` refuses to start while the pipeline has foreground work)
and the two-class pipeline priority (scrub reads are ``low_priority``
and only served from idle slots).  This experiment measures what those
defenses buy by driving the same foreground read stream against one
pipelined volume under three scrub disciplines:

* **off** — no scrubbing at all: the foreground latency baseline.
* **background** — a real :class:`Scrubber` stepped once while each
  foreground batch is in flight (the idle gate must yield) and once
  after it drains (the step verifies a slice), finishing its first
  full cycle in the idle tail.
* **rude** — a control arm without PR 6's defenses: the same
  verification reads submitted at *normal* priority ahead of every
  foreground batch, the way a naive scrubber would issue them.

Shape asserted: the gated background scrubber completes a full
verification cycle while inflating mean foreground batch latency by
under 25%, and yields at least once to the busy pipeline; the rude
discipline — same work, no priority/gating — costs strictly more
foreground latency than the background discipline.
"""

from _helpers import print_table
from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.disk_service.addresses import Extent
from repro.disk_service.pipeline import DiskPipeline
from repro.disk_service.scheduler import make_scheduler
from repro.disk_service.scrub import Scrubber
from repro.disk_service.server import DiskServer
from repro.simdisk.disk import SimDisk
from repro.simdisk.geometry import DiskGeometry
from repro.simdisk.stable import StableStore
from repro.simkernel.loop import EventLoop

MODES = ("off", "background", "rude")
DATA_FRAGMENTS = 192
ROUNDS = 12
BATCH = 8
SCRUB_STEP = 16  # fragments per scrub step; covers the region in ROUNDS steps


def _build_volume(disk_id: str, clock, metrics) -> DiskServer:
    disk = SimDisk(disk_id, DiskGeometry.small(), clock, metrics)
    stable = StableStore(
        SimDisk(f"{disk_id}.sa", DiskGeometry.small(), clock, metrics),
        SimDisk(f"{disk_id}.sb", DiskGeometry.small(), clock, metrics),
    )
    return DiskServer(disk, stable, clock, metrics)


def _populate(server: DiskServer) -> Extent:
    """Allocate and fill the scrubbed region (checksums recorded)."""
    region = server.allocate(DATA_FRAGMENTS)
    chunk = 16
    for offset in range(0, region.length, chunk):
        extent = Extent(region.start + offset, chunk)
        payload = bytes(
            (offset * 31 + index * 7 + 5) % 251 + 1
            for index in range(extent.byte_size)
        )
        server.put(extent, payload)
    return region


def _foreground_slot(round_index: int, client: int, length: int) -> int:
    """Alternate platter ends, as in E16, for realistic seek pressure."""
    index = round_index * BATCH + client
    half = (length - 1) // 2
    if index % 2 == 0:
        return (index * 17) % half
    return length - 1 - ((index * 23) % half)


def run_scrub_point(mode: str):
    """One discipline: ROUNDS foreground batches with scrub interleaved."""
    clock, metrics = SimClock(), Metrics()
    loop = EventLoop(clock)
    server = _build_volume("0", clock, metrics)
    region = _populate(server)
    pipeline = DiskPipeline(server, loop, make_scheduler("scan+coalesce"))
    scrubber = Scrubber(server, fragments_per_step=SCRUB_STEP)
    latencies = []
    rude_cursor = 0
    rude_reads = []
    for round_index in range(ROUNDS):
        if mode == "rude":
            # The control arm: same verification reads, but at normal
            # priority and without consulting the idle gate.
            for _ in range(SCRUB_STEP):
                fragment = region.start + (rude_cursor % region.length)
                rude_cursor += 1
                rude_reads.append(
                    server.submit_get(Extent(fragment, 1), use_cache=False)
                )
        started_us = clock.now_us
        batch = [
            server.submit_get(
                Extent(
                    region.start
                    + _foreground_slot(round_index, client, region.length),
                    1,
                ),
                use_cache=False,
            )
            for client in range(BATCH)
        ]
        if mode == "background":
            # The pipeline is busy with the batch just submitted, so
            # the idle gate must make this a no-op (steps_yielded).
            scrubber.step()
        loop.run_until(lambda: all(completion.done for completion in batch))
        latencies.append(clock.now_us - started_us)
        if mode == "background":
            scrubber.step()  # idle now: verify one slice
    # Idle tail: finish the first full verification pass.
    if mode == "background":
        while scrubber.cycles_completed < 1:
            scrubber.step(force=True)
    if mode == "rude":
        while rude_cursor < region.length:
            rude_reads.append(
                server.submit_get(
                    Extent(region.start + rude_cursor, 1), use_cache=False
                )
            )
            rude_cursor += 1
        loop.run_until(lambda: all(completion.done for completion in rude_reads))
    ordered = sorted(latencies)
    return {
        "fg_ops": ROUNDS * BATCH,
        "mean_batch_us": sum(latencies) / len(latencies),
        "p95_batch_us": ordered[(len(ordered) * 95 - 1) // 100],
        "elapsed_us": clock.now_us,
        "fragments_verified": metrics.get("scrub.0.fragments_verified"),
        "steps_yielded": metrics.get("scrub.0.steps_yielded"),
        "cycles": metrics.get("scrub.0.cycles"),
        "checksum_failures": metrics.get("disk_server.0.checksum_failures"),
    }


def run_modes():
    return {mode: run_scrub_point(mode) for mode in MODES}


def test_e18_scrub_overhead():
    results = run_modes()

    print_table(
        "E18  Foreground latency under three scrub disciplines",
        [
            "discipline",
            "mean batch (us)",
            "p95 batch (us)",
            "elapsed (ms)",
            "verified",
            "yielded",
            "cycles",
        ],
        [
            (
                mode,
                f"{results[mode]['mean_batch_us']:.0f}",
                results[mode]["p95_batch_us"],
                f"{results[mode]['elapsed_us'] / 1000.0:.1f}",
                results[mode]["fragments_verified"],
                results[mode]["steps_yielded"],
                results[mode]["cycles"],
            )
            for mode in MODES
        ],
    )

    off = results["off"]
    background = results["background"]
    rude = results["rude"]
    # Clean media: verification must find nothing in any discipline.
    for mode in MODES:
        assert results[mode]["checksum_failures"] == 0
    # The gated scrubber did real work: a full cycle, every data
    # fragment verified, and the idle gate exercised at least once.
    assert background["cycles"] >= 1
    assert background["fragments_verified"] >= DATA_FRAGMENTS
    assert background["steps_yielded"] >= 1
    # The PR's acceptance floor: background scrubbing costs foreground
    # batches under 25% mean latency against the no-scrub baseline.
    assert background["mean_batch_us"] <= 1.25 * off["mean_batch_us"], (
        f"background scrub inflated foreground latency "
        f"{background['mean_batch_us'] / off['mean_batch_us']:.2f}x"
    )
    # And the defenses are what buys it: the same verification reads
    # without gating/priority cost strictly more foreground latency.
    assert rude["mean_batch_us"] > background["mean_batch_us"]
