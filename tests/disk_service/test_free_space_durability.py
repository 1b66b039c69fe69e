"""What is durably allocated, against a model: the bitmap's dirty flag.

A flush writes the bitmap only when it is stale, and so does every
stable-bound put, so a mutation site that forgets to mark the bitmap
stale loses (or leaks) space across a crash.  The model is the durable
allocated set: every stable-bound put and every flush makes it the
live ordinary allocations, and a crash returns the live bitmap to
exactly it, with all scratch space free.
"""

from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.disk_service.addresses import Extent
from repro.disk_service.server import Stability
from tests.conftest import build_disk_server

#: One step of the script: (op, argument).
STEPS = st.one_of(
    st.tuples(st.just("alloc"), st.integers(1, 40)),
    st.tuples(st.just("scratch"), st.integers(1, 12)),
    st.tuples(st.just("at"), st.integers(0, 30)),
    st.tuples(st.just("adopt"), st.integers(0, 1000)),
    st.tuples(st.just("free"), st.integers(0, 1000)),
    st.tuples(st.just("put"), st.integers(0, 1000)),
    st.tuples(st.just("flush"), st.just(0)),
    st.tuples(st.just("crash"), st.just(0)),
)


def fill(extent: Extent) -> bytes:
    return bytes([extent.start % 251]) * extent.byte_size


def allocated(server):
    return {
        fragment
        for run in server.bitmap.allocated_runs()
        for fragment in range(run.start, run.end)
    }


@settings(max_examples=150, deadline=None)
@given(st.lists(STEPS, min_size=1, max_size=60))
def test_recovery_restores_exactly_the_durable_allocations(steps):
    server = build_disk_server(SimClock(), Metrics())
    live: list[Extent] = []  # ordinary allocations, oldest first
    scratch: list[Extent] = []
    durable: list[Extent] = []  # the ordinary allocations on disk

    for op, value in steps + [("crash", 0)]:
        if op == "alloc":
            live.append(server.allocate(value))
        elif op == "scratch":
            scratch.append(server.allocate(value, scratch=True))
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
        elif op == "crash":
            server.recover()
            assert allocated(server) == {
                fragment for extent in durable for fragment in extent.fragments()
            }
            assert server.scratch_extents() == []
            server.extent_table.check_against(server.bitmap)
            live, scratch = list(durable), []
