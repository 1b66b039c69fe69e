"""What is durably allocated, against a model: the free-space log.

Free space reaches stable storage as a base (the whole bitmap) plus a
tail of the changes since, and every stable-bound put and every flush
settles it: appends the changes, or rebases when the tail is full.  A
mutation site that forgets to record its change loses (or leaks) space
across a crash.  The model is the durable allocated set: every
stable-bound put and every flush makes it the live ordinary
allocations, and a crash returns the live bitmap to exactly it, with
all scratch space free.  Bursts of allocations overflow the tail and
force rebases; a torn settle crashes inside one careful write (the
tail's, or a rebase's base, on either mirror — including the first
tail write after a rebase, while the previous epoch's tail is still on
disk) and must recover to the set before it or the set after it.
"""

from hypothesis import example, given, settings, strategies as st

from repro.chaos.trace import CrashPointMonitor
from repro.common.clock import SimClock
from repro.common.errors import DiskCrashedError
from repro.common.metrics import Metrics
from repro.disk_service.addresses import Extent
from repro.disk_service.server import Stability
from tests.conftest import build_disk_server

#: One step of the script: (op, argument).
STEPS = st.one_of(
    st.tuples(st.just("alloc"), st.integers(1, 40)),
    st.tuples(st.just("burst"), st.integers(1, 40)),
    st.tuples(st.just("scratch"), st.integers(1, 12)),
    st.tuples(st.just("low"), st.integers(1, 12)),
    st.tuples(st.just("piece"), st.integers(0, 1000)),
    st.tuples(st.just("at"), st.integers(0, 30)),
    st.tuples(st.just("adopt"), st.integers(0, 1000)),
    st.tuples(st.just("free"), st.integers(0, 1000)),
    st.tuples(st.just("put"), st.integers(0, 1000)),
    st.tuples(st.just("flush"), st.just(0)),
    st.tuples(st.just("torn"), st.integers(1, 2)),
    st.tuples(st.just("crash"), st.just(0)),
)

#: Bursts of single-fragment allocations fill the tail: the first flush
#: writes the base, the next two append, the fourth rebases, and a torn
#: settle after it is the first tail write of the new epoch.
OVERFLOW = [("burst", 40), ("flush", 0)] * 4 + [("burst", 3)]


def fill(extent: Extent) -> bytes:
    return bytes([extent.start % 251]) * extent.byte_size


def allocated(server):
    return {
        fragment
        for run in server.bitmap.allocated_runs()
        for fragment in range(run.start, run.end)
    }


def fragments(extents):
    return {fragment for extent in extents for fragment in extent.fragments()}


def torn_settle(server, write: int) -> bool:
    """Settle free space, crashing both mirrors during its ``write``-th
    write; restart the machine.  Whether the crash fired."""
    mirrors = (server.stable.mirror_a, server.stable.mirror_b)
    monitor = CrashPointMonitor().attach(*mirrors)
    monitor.arm(write)
    try:
        server.settle_free_space()
    except DiskCrashedError:
        assert monitor.fired_at == write
    monitor.disarm()
    for mirror in mirrors:
        mirror.repair()
    server.stable.rebuild_directory()
    server.stable.recover()
    server.recover()
    return monitor.fired_at is not None


@settings(max_examples=150, deadline=None)
@given(st.lists(STEPS, min_size=1, max_size=60))
@example(OVERFLOW + [("torn", 1)])
@example(OVERFLOW + [("torn", 2)])
@example(OVERFLOW[:-1] + [("torn", 1)])
@example(OVERFLOW[:-1] + [("burst", 3), ("flush", 0), ("torn", 2), ("crash", 0)])
def test_recovery_restores_exactly_the_durable_allocations(steps):
    server = build_disk_server(SimClock(), Metrics())
    live: list[Extent] = []  # ordinary allocations, oldest first
    scratch: list[Extent] = []
    durable: list[Extent] = []  # the ordinary allocations on disk

    for op, value in steps + [("crash", 0)]:
        if op == "alloc":
            live.append(server.allocate(value))
        elif op == "burst":
            live.extend(server.allocate(1) for _ in range(value))
        elif op == "scratch":
            scratch.append(server.allocate(value, scratch=True))
        elif op == "low":
            scratch.append(server.allocate(value, scratch=True, high=False))
        elif op == "piece" and any(extent.length > 1 for extent in scratch):
            # Adopt or free one end of a scratch extent; the rest stays
            # scratch (a basic file's reservation surplus, or one block).
            extent = [extent for extent in scratch if extent.length > 1][
                value % sum(extent.length > 1 for extent in scratch)
            ]
            scratch.remove(extent)
            head, tail = extent.split(1 + value % (extent.length - 1))
            piece, rest = (head, tail) if value % 4 < 2 else (tail, head)
            scratch.append(rest)
            if value % 2:
                server.adopt(piece)
                live.append(piece)
            else:
                server.free(piece)
        elif op == "at" and live:
            extent = server.try_allocate_at(live[-1].end + value, 3)
            if extent is not None:
                live.append(extent)
        elif op == "adopt" and scratch:
            extent = scratch.pop(value % len(scratch))
            server.adopt(extent)
            live.append(extent)
        elif op == "free" and (live or scratch):
            pool = scratch if scratch and (value % 2 or not live) else live
            server.free(pool.pop(value % len(pool)))
        elif op == "put" and live:
            extent = live[value % len(live)]
            server.put(extent, fill(extent), stability=Stability.BOTH)
            durable = list(live)
        elif op == "flush":
            server.flush()
            durable = list(live)
        elif op == "torn":
            fired = torn_settle(server, value)
            recovered = allocated(server)
            if recovered == fragments(live):
                durable = list(live)
            else:
                assert fired, "a settle that completed lost its changes"
                assert recovered == fragments(durable)
            assert server.scratch_extents() == []
            server.extent_table.check_against(server.bitmap)
            live, scratch = list(durable), []
        elif op == "crash":
            server.recover()
            assert allocated(server) == fragments(durable)
            assert server.scratch_extents() == []
            server.extent_table.check_against(server.bitmap)
            live, scratch = list(durable), []


def test_the_overflow_script_rebases_before_its_last_settle():
    server = build_disk_server(SimClock(), Metrics())
    bases = []
    checkpoint = server.free_space_log.checkpoint

    def counting(base):
        bases.append(len(base))
        checkpoint(base)

    server.free_space_log.checkpoint = counting
    for op, value in OVERFLOW:
        if op == "burst":
            for _ in range(value):
                server.allocate(1)
        else:
            server.flush()
    assert len(bases) == 2  # the format, then one rebase
    # The previous epoch's tail is still on disk, and is not applied.
    assert server.free_space_log.tail_key in server.stable
    assert server.free_space_log.load()[1] == []
