"""Property tests: free-space management vs a brute-force model.

The disk server's pairing of fragment bitmap and 64x64 free-extent
array is fuzzed with arbitrary allocate/free interleavings and checked
after every operation against a brute-force model (a plain set of
allocated fragment numbers):

* the bitmap agrees with the model fragment-for-fragment;
* every extent-array entry is a maximal free run of the bitmap
  (:meth:`FreeExtentTable.check_against`);
* allocations never overlap live extents, contiguous requests return
  contiguous runs, and ``DiskFullError`` is only raised when the model
  confirms no adequate contiguous run exists.
"""

from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.common.errors import DiskFullError
from repro.common.metrics import Metrics
from repro.disk_service.addresses import Extent
from repro.disk_service.bitmap import FragmentBitmap
from repro.disk_service.extent_table import FreeExtentTable
from repro.disk_service.server import DiskServer
from repro.simdisk.disk import SimDisk
from repro.simdisk.geometry import DiskGeometry
from repro.simdisk.stable import StableStore

#: 8 cylinders x 2 heads x 64 sectors = 512 KB = 256 fragments: small
#: enough that the brute-force model is cheap to compare exhaustively.
_TINY = DiskGeometry(cylinders=8, heads=2, sectors_per_track=64)


def build_server() -> DiskServer:
    clock, metrics = SimClock(), Metrics()
    disk = SimDisk("fuzz", _TINY, clock, metrics)
    stable = StableStore(
        SimDisk("fuzz.stable_a", DiskGeometry.small(), clock, metrics),
        SimDisk("fuzz.stable_b", DiskGeometry.small(), clock, metrics),
    )
    return DiskServer(disk, stable, clock, metrics, cache_tracks=0)


@st.composite
def op_sequences(draw):
    n_ops = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n_ops):
        kind = draw(
            st.sampled_from(["alloc", "alloc", "alloc_at", "free", "free"])
        )
        size = draw(st.integers(min_value=1, max_value=48))
        start = draw(st.integers(min_value=0, max_value=255))
        victim = draw(st.integers(min_value=0, max_value=10**6))
        scratch = draw(st.booleans())
        ops.append((kind, size, start, victim, scratch))
    return ops


def _max_free_run(allocated: set[int], n_fragments: int) -> int:
    best = run = 0
    for fragment in range(n_fragments):
        run = 0 if fragment in allocated else run + 1
        best = max(best, run)
    return best


class TestFreeSpaceFuzz:
    @given(op_sequences())
    @settings(max_examples=80, deadline=None)
    def test_interleaved_allocate_free_matches_model(self, ops):
        server = build_server()
        n = server.n_fragments
        allocated: set[int] = set()  # the brute-force model
        live: list[Extent] = []
        for kind, size, start, victim, scratch in ops:
            if kind == "alloc":
                try:
                    extent = server.allocate(size, scratch=scratch)
                except DiskFullError:
                    assert _max_free_run(allocated, n) < size, (
                        f"DiskFullError for {size} fragments but the model "
                        f"has a run of {_max_free_run(allocated, n)}"
                    )
                    continue
                span = set(range(extent.start, extent.end))
                assert extent.length == size
                assert not span & allocated, "allocation overlaps live data"
                allocated |= span
                live.append(extent)
            elif kind == "alloc_at":
                extent = server.try_allocate_at(start, size)
                range_free = start + size <= n and not (
                    set(range(start, start + size)) & allocated
                )
                assert (extent is not None) == range_free
                if extent is not None:
                    allocated |= set(range(extent.start, extent.end))
                    live.append(extent)
            else:  # free
                if not live:
                    continue
                extent = live.pop(victim % len(live))
                server.free(extent)
                allocated -= set(range(extent.start, extent.end))
            # The invariants, after every single operation.
            assert server.bitmap.free_count == n - len(allocated)
            server.extent_table.check_against(server.bitmap)
        # Full fragment-for-fragment reconciliation at the end.
        for fragment in range(n):
            assert server.bitmap.is_free(fragment) == (
                fragment not in allocated
            ), f"bitmap and model disagree at fragment {fragment}"

    @given(op_sequences())
    @settings(max_examples=40, deadline=None)
    def test_refill_reindexes_every_maximal_run(self, ops):
        """A refill from any reachable bitmap state indexes exactly the
        maximal free runs (up to row capacity)."""
        server = build_server()
        live: list[Extent] = []
        for kind, size, start, victim, scratch in ops:
            try:
                if kind == "alloc":
                    live.append(server.allocate(size, scratch=scratch))
                elif kind == "alloc_at":
                    extent = server.try_allocate_at(start, size)
                    if extent is not None:
                        live.append(extent)
                elif live:
                    server.free(live.pop(victim % len(live)))
            except DiskFullError:
                continue
        table = FreeExtentTable(64, 64)
        table.refill(server.bitmap)
        table.check_against(server.bitmap)
        indexed = table.entry_count()
        true_runs = sum(1 for _ in server.bitmap.free_runs())
        assert indexed == min(true_runs, indexed)  # capacity may truncate
        if true_runs <= 64:  # no row can overflow with so few runs
            assert indexed == true_runs


class TestBitmapModel:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=250),
                st.integers(min_value=1, max_value=6),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_mark_roundtrip_and_run_lengths(self, marks):
        bitmap = FragmentBitmap(256)
        model = set()
        for start, length, alloc in marks:
            length = min(length, 256 - start)
            if length <= 0:
                continue
            span = set(range(start, start + length))
            # The bitmap rejects double-allocate and double-free, so only
            # legal transitions are issued (matching real caller usage).
            if alloc and not (span & model):
                bitmap.mark_allocated(Extent(start, length))
                model |= span
            elif not alloc and span <= model:
                bitmap.mark_free(Extent(start, length))
                model -= span
        for fragment in range(256):
            assert bitmap.is_free(fragment) == (fragment not in model)
        for run in bitmap.free_runs():
            assert all(f not in model for f in range(run.start, run.end))
            assert run.start == 0 or (run.start - 1) in model
            assert run.end == 256 or run.end in model
