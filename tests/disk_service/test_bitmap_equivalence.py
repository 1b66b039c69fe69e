"""The C-speed fragment bitmap against the per-bit oracle it replaced.

PR 14 rewrote :class:`~repro.disk_service.bitmap.FragmentBitmap` so that
no scan runs in Python (DESIGN.md §13, "free-space path").  The PR 8
contract for a speed-up is a *defeated lane*: the old implementation
leaves ``src/`` and survives here, verbatim, as the reference every
observable of the new one is compared with — return values, iteration
order, raised error type and message, and race-monitor events — after
every step of a generated script.  (``find_free_run`` is omitted: the
method was deleted, having no caller.)

Two deliberate differences, each pinned by a regression test in
``test_bitmap.py``, are kept out of the oracle's way: a *rejected*
update left the old bitmap torn (so the script re-synchronises the
oracle after one), and a blob with set padding bits was stored as-is.
"""

from __future__ import annotations

import timeit
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import monitor as _monitor
from repro.common.errors import BadAddressError
from repro.disk_service.addresses import Extent
from repro.disk_service.bitmap import FragmentBitmap
from repro.disk_service.extent_table import FreeExtentTable


class _ReferenceBitmap:
    """The pre-PR-14 per-bit ``FragmentBitmap``, kept as the oracle."""

    def __init__(self, n_fragments: int, *, all_free: bool = True) -> None:
        if n_fragments <= 0:
            raise ValueError("bitmap must cover at least one fragment")
        self.n_fragments = n_fragments
        self._bits = bytearray(
            (0xFF if all_free else 0x00) for _ in range(-(-n_fragments // 8))
        )
        # Mask off padding bits beyond n_fragments so free counts are exact.
        excess = 8 * len(self._bits) - n_fragments
        if excess and all_free:
            self._bits[-1] &= 0xFF >> excess
        self._free_count = n_fragments if all_free else 0

    # -------------------------------------------------------- queries

    def is_free(self, fragment: int) -> bool:
        self._check(fragment)
        return bool(self._bits[fragment >> 3] & (1 << (fragment & 7)))

    def is_free_run(self, extent: Extent) -> bool:
        """True if every fragment of ``extent`` is free."""
        self._check(extent.end - 1)
        _monitor.active().read(
            self, extent.start, extent.end, site="bitmap.is_free_run"
        )
        return all(self.is_free(fragment) for fragment in extent.fragments())

    def is_allocated_run(self, extent: Extent) -> bool:
        """True if every fragment of ``extent`` is allocated."""
        self._check(extent.end - 1)
        _monitor.active().read(
            self, extent.start, extent.end, site="bitmap.is_allocated_run"
        )
        return not any(self.is_free(fragment) for fragment in extent.fragments())

    @property
    def free_count(self) -> int:
        return self._free_count

    def run_length_at(self, start: int) -> int:
        """Length of the free run beginning exactly at ``start`` (0 if allocated).

        Scans byte-at-a-time over all-free bytes so long runs on big
        disks are measured in O(bytes), not O(bits).
        """
        self._check(start)
        n = self.n_fragments
        bits = self._bits
        fragment = start
        # Leading bits up to the next byte boundary.
        while fragment < n and fragment & 7:
            if not bits[fragment >> 3] & (1 << (fragment & 7)):
                return fragment - start
            fragment += 1
        if fragment == start and fragment < n and not (
            bits[fragment >> 3] & (1 << (fragment & 7))
        ):
            return 0
        # Whole free bytes.
        while fragment + 8 <= n and bits[fragment >> 3] == 0xFF:
            fragment += 8
        # Trailing bits.
        while fragment < n and bits[fragment >> 3] & (1 << (fragment & 7)):
            fragment += 1
        return fragment - start

    def run_containing(self, fragment: int) -> Extent | None:
        """The maximal free run containing ``fragment``, or None."""
        if not self.is_free(fragment):
            return None
        bits = self._bits
        start = fragment
        # Walk left to the run's beginning, skipping all-free bytes.
        while start > 0:
            prev = start - 1
            if prev & 7 == 7 and bits[prev >> 3] == 0xFF:
                start = prev - 7
                continue
            if bits[prev >> 3] & (1 << (prev & 7)):
                start = prev
                continue
            break
        return Extent(start, self.run_length_at(start))

    def free_runs(self) -> Iterator[Extent]:
        """Scan the whole bitmap yielding maximal free runs in address order.

        This is the paper's "initialization and subsequent updation of
        this array is carried out by scanning the bitmap".  The scan
        works a byte at a time, skipping all-free and all-allocated
        bytes without touching individual bits, so full-disk scans of
        large volumes stay cheap.
        """
        _monitor.active().read_all(self, site="bitmap.free_runs")
        n = self.n_fragments
        bits = self._bits
        start = None
        for byte_index, byte in enumerate(bits):
            base = byte_index << 3
            if base >= n:
                break
            whole_byte = base + 8 <= n
            if whole_byte and byte == 0xFF:
                if start is None:
                    start = base
                continue
            if whole_byte and byte == 0x00:
                if start is not None:
                    yield Extent(start, base - start)
                    start = None
                continue
            limit = min(8, n - base)
            for bit in range(limit):
                if byte & (1 << bit):
                    if start is None:
                        start = base + bit
                elif start is not None:
                    yield Extent(start, base + bit - start)
                    start = None
        if start is not None:
            yield Extent(start, n - start)

    # ------------------------------------------------------- updates

    def mark_allocated(self, extent: Extent) -> None:
        """Clear the bits of ``extent``; every fragment must be free."""
        self._check(extent.end - 1)
        _monitor.active().write(
            self, extent.start, extent.end, site="bitmap.mark_allocated"
        )
        for fragment in extent.fragments():
            if not self.is_free(fragment):
                raise BadAddressError(f"fragment {fragment} already allocated")
            self._bits[fragment >> 3] &= ~(1 << (fragment & 7)) & 0xFF
        self._free_count -= extent.length

    def mark_free(self, extent: Extent) -> None:
        """Set the bits of ``extent``; every fragment must be allocated."""
        self._check(extent.end - 1)
        _monitor.active().write(
            self, extent.start, extent.end, site="bitmap.mark_free"
        )
        for fragment in extent.fragments():
            if self.is_free(fragment):
                raise BadAddressError(f"fragment {fragment} already free")
            self._bits[fragment >> 3] |= 1 << (fragment & 7)
        self._free_count += extent.length

    # -------------------------------------------------- persistence

    def to_bytes(self) -> bytes:
        """Serialise for storage on stable storage."""
        _monitor.active().read_all(self, site="bitmap.to_bytes")
        return bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes, n_fragments: int) -> "_ReferenceBitmap":
        bitmap = cls(n_fragments, all_free=False)
        expected = -(-n_fragments // 8)
        if len(data) != expected:
            raise ValueError(f"bitmap blob is {len(data)} bytes, expected {expected}")
        bitmap._bits = bytearray(data)
        bitmap._free_count = sum(
            1 for fragment in range(n_fragments) if bitmap.is_free(fragment)
        )
        return bitmap

    # ------------------------------------------------------ internal

    def _check(self, fragment: int) -> None:
        if not 0 <= fragment < self.n_fragments:
            raise BadAddressError(
                f"fragment {fragment} outside disk of {self.n_fragments} fragments"
            )

    def __repr__(self) -> str:
        return f"_ReferenceBitmap({self._free_count}/{self.n_fragments} free)"


# ------------------------------------------------------------ script

SIZES = [1, 7, 8, 9, 63, 64, 65, 4099]


def outcome(call, *args):
    """What a caller can observe of one call: its value, or its error."""
    try:
        value = call(*args)
    except (BadAddressError, ValueError) as exc:
        return type(exc), str(exc)
    return list(value) if hasattr(value, "__next__") else value


#: Byte values the C-level scans treat specially (all free, all
#: allocated) or stop inside of (one bit short at either end, a run in
#: the middle, alternating bits), drawn far more often than by chance.
EDGE_BYTES = [0xFF, 0xFF, 0x00, 0x00, 0xFE, 0x7F, 0x01, 0x80, 0x3C, 0xC3, 0x55]


@st.composite
def scripts(draw):
    """An initial checkpoint blob and a list of update steps with probes."""
    n = draw(st.sampled_from(SIZES))
    n_bytes = -(-n // 8)
    blob = bytearray(
        draw(
            st.one_of(
                st.sampled_from([b"\xff" * n_bytes, b"\x00" * n_bytes]),
                st.lists(
                    st.one_of(
                        st.sampled_from(EDGE_BYTES),
                        st.integers(min_value=0, max_value=255),
                    ),
                    min_size=n_bytes,
                    max_size=n_bytes,
                ).map(bytes),
            )
        )
    )
    blob[-1] &= 0xFF >> (-n & 7)  # the oracle stores padding bits as given
    position = st.integers(min_value=0, max_value=n + 1)
    length = st.one_of(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=n + 1),
    )
    steps = draw(
        st.lists(
            st.tuples(
                # "flip" always succeeds (it fragments the disk); the raw
                # marks are free to be rejected or out of range.
                st.sampled_from(["flip", "flip", "mark_allocated", "mark_free"]),
                position,
                length,
                st.lists(st.tuples(position, length), max_size=4),
            ),
            max_size=12,
        )
    )
    return n, bytes(blob), steps


def flip_extent(oracle, start, length):
    """The longest prefix of ``[start, start+length)`` in one state, and the
    update that is legal on it."""
    start = min(start, oracle.n_fragments - 1)
    free = oracle.is_free(start)
    end = start + 1
    while (
        end < min(start + length, oracle.n_fragments)
        and oracle.is_free(end) == free
    ):
        end += 1
    return ("mark_allocated" if free else "mark_free"), Extent(start, end - start)


def assert_same_observables(bitmap, oracle, probes):
    n = oracle.n_fragments
    assert bitmap.to_bytes() == oracle.to_bytes()
    assert bitmap.free_count == oracle.free_count
    assert repr(bitmap) == repr(oracle).replace("_Reference", "Fragment")
    runs = list(oracle.free_runs())
    assert list(bitmap.free_runs()) == runs
    # Every run boundary, both ends of the disk, and the drawn probes
    # (which may lie outside the disk: the errors must match too).
    fragments = {0, n - 1, n}
    for run in runs:
        fragments.update((run.start - 1, run.start, run.end - 1, run.end))
    fragments.update(start for start, _ in probes)
    for fragment in sorted(fragments):
        if fragment < 0:
            continue
        for query in ("is_free", "run_length_at", "run_containing"):
            assert outcome(getattr(bitmap, query), fragment) == outcome(
                getattr(oracle, query), fragment
            ), (query, fragment)
    spans = list(probes) + [(run.start, run.length) for run in runs]
    spans += [(max(run.start - 1, 0), run.length + 1) for run in runs]
    for start, length in spans:
        for query in ("is_free_run", "is_allocated_run"):
            assert outcome(
                lambda: getattr(bitmap, query)(Extent(start, length))
            ) == outcome(
                lambda: getattr(oracle, query)(Extent(start, length))
            ), (query, start, length)
    restored = FragmentBitmap.from_bytes(oracle.to_bytes(), n)
    assert restored.to_bytes() == oracle.to_bytes()
    assert restored.free_count == oracle.free_count


def assert_allocated_runs_enumerate_the_allocated_bits(bitmap, oracle):
    """``allocated_runs`` (PR 15) has no oracle twin: per-bit enumeration
    is the reference, and the runs must be maximal (a free gap between)."""
    allocated = list(bitmap.allocated_runs())
    assert [f for run in allocated for f in range(run.start, run.end)] == [
        f for f in range(oracle.n_fragments) if not oracle.is_free(f)
    ]
    assert all(a.end < b.start for a, b in zip(allocated, allocated[1:]))


def assert_same_index(bitmap, oracle):
    """The extent array refilled from either bitmap is the same array."""
    table, reference = FreeExtentTable(), FreeExtentTable()
    assert table.refill(bitmap) == reference.refill(oracle)
    table.check_against(bitmap)
    assert table._rows == reference._rows
    for n_fragments in (1, 5, 64, 200):
        assert table.take_run(n_fragments, bitmap) == reference.take_run(
            n_fragments, oracle
        )
        assert table.take_run(
            n_fragments, bitmap, prefer_high=True
        ) == reference.take_run(n_fragments, oracle, prefer_high=True)
    assert table._rows == reference._rows


class TestAgainstReference:
    @given(scripts())
    @settings(max_examples=200, deadline=None)
    def test_every_observable_matches_after_every_step(self, script):
        n, blob, steps = script
        bitmap = FragmentBitmap.from_bytes(blob, n)
        oracle = _ReferenceBitmap.from_bytes(blob, n)
        assert_same_observables(bitmap, oracle, [])
        assert_same_index(bitmap, oracle)
        assert_allocated_runs_enumerate_the_allocated_bits(bitmap, oracle)
        for op, start, length, probes in steps:
            if op == "flip":
                op, target = flip_extent(oracle, start, length)
                start, length = target.start, target.length
            before = oracle.to_bytes(), oracle.free_count
            got = outcome(lambda: getattr(bitmap, op)(Extent(start, length)))
            want = outcome(lambda: getattr(oracle, op)(Extent(start, length)))
            assert got == want, (op, start, length)
            if want is not None:
                # Rejected: the oracle is torn (the bug PR 14 fixed);
                # the new bitmap must be exactly as it was.
                oracle = _ReferenceBitmap.from_bytes(before[0], n)
                assert oracle.free_count == before[1]
            assert_same_observables(bitmap, oracle, probes)
            assert_same_index(bitmap, oracle)
        assert_allocated_runs_enumerate_the_allocated_bits(bitmap, oracle)

    @pytest.mark.parametrize("n", SIZES)
    def test_whole_disk_updates(self, n):
        for cls in (FragmentBitmap, _ReferenceBitmap):
            bitmap = cls(n)
            bitmap.mark_allocated(Extent(0, n))
            assert bitmap.free_count == 0
            assert bitmap.to_bytes() == bytes(-(-n // 8))
            assert bitmap.is_allocated_run(Extent(0, n))
            bitmap.mark_free(Extent(0, n))
            assert bitmap.to_bytes() == cls(n).to_bytes()
            assert list(bitmap.free_runs()) == [Extent(0, n)]

    def test_monitor_events_are_the_same_sites_and_ranges(self):
        def events(cls):
            monitor = _monitor.install(_monitor.AccessMonitor())
            try:
                bitmap = cls(70)
                bitmap.mark_allocated(Extent(3, 9))
                bitmap.mark_allocated(Extent(40, 30))
                outcome(lambda: bitmap.mark_allocated(Extent(10, 4)))  # rejected
                outcome(lambda: bitmap.mark_free(Extent(0, 5)))  # rejected
                outcome(lambda: bitmap.mark_free(Extent(60, 11)))  # out of range
                bitmap.mark_free(Extent(5, 2))
                bitmap.is_free_run(Extent(12, 20))
                bitmap.is_allocated_run(Extent(3, 2))
                bitmap.run_length_at(12)
                bitmap.run_containing(20)
                runs = bitmap.free_runs()
                before_first_next = len(monitor.accesses)
                list(runs)
                assert len(monitor.accesses) == before_first_next + 1
                cls.from_bytes(bitmap.to_bytes(), 70)
            finally:
                _monitor.uninstall()
            return [
                (access.structure, access.lo, access.hi, access.kind, access.site)
                for access in monitor.accesses
            ]

        assert events(FragmentBitmap) == events(_ReferenceBitmap)


class TestSpeedRatio:
    def test_long_run_measured_far_faster_than_reference(self):
        """A same-process ratio, not an absolute time: the megabit walk
        behind every allocation on a fresh 1 GB volume."""
        n = 524_288
        bitmap, oracle = FragmentBitmap(n), _ReferenceBitmap(n)
        assert bitmap.run_length_at(0) == oracle.run_length_at(0) == n
        slow = min(timeit.repeat(lambda: oracle.run_length_at(0), number=1, repeat=3))
        fast = min(timeit.repeat(lambda: bitmap.run_length_at(0), number=20, repeat=3)) / 20
        assert slow >= 20 * fast, f"reference {slow:.6f}s vs {fast:.6f}s per call"
