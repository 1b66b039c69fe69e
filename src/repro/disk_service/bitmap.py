"""The per-disk fragment bitmap.

Paper section 4: "Each disk server maintains a bitmap of the disk to
which it is associated.  A bitmap is updated when block(s) or
fragment(s) are freed."  The bitmap is the *authoritative* record of
free space; the 64x64 free-extent array is an index over it and is
initialised and refreshed "by scanning the bitmap".

Bit convention: 1 = free, 0 = allocated; fragment ``f`` is bit ``f & 7``
of byte ``f >> 3``.  The ``bytearray`` is the stable-storage checkpoint
format, so it stays the one representation; every scan over it runs
inside a C-level primitive (a compiled byte-class ``re``, ``rstrip``,
big-int arithmetic on the bytes an extent covers), never a Python loop
over bytes or bits (DESIGN.md §13, "free-space path").

Invariant: padding bits beyond ``n_fragments`` in the last byte are 0,
so a scan for the end of a free run stops at the end of the disk
without a bounds test.
"""

from __future__ import annotations

import re
from typing import Iterator, Sequence

from repro.analysis import monitor as _monitor
from repro.common.errors import BadAddressError
from repro.disk_service.addresses import Extent

#: Maximal stretches of all-free / all-allocated bytes; ``match(bits,
#: pos).end()`` is the first byte at or after ``pos`` that is not one.
_FULL_BYTES = re.compile(rb"\xff*")
_EMPTY_BYTES = re.compile(rb"\x00*")


def _trailing_ones(value: int) -> int:
    """How many consecutive 1 bits ``value`` has from bit 0 up."""
    return (~value & (value + 1)).bit_length() - 1


def _trailing_zeros(value: int) -> int:
    """How many consecutive 0 bits a non-zero ``value`` has from bit 0 up."""
    return (value & -value).bit_length() - 1


def _leading_ones(byte: int) -> int:
    """How many consecutive 1 bits ``byte`` has from bit 7 down."""
    return 8 - (byte ^ 0xFF).bit_length()


def _flip(bits: bytearray, extent: Extent) -> None:
    """Invert every bit of ``extent`` in ``bits``, in one update.

    The callers know the extent is all free or all allocated, so
    inverting it *is* marking it the other way.
    """
    first, end = extent.start >> 3, (extent.end + 7) >> 3
    mask = ((1 << extent.length) - 1) << (extent.start & 7)
    covering = int.from_bytes(bits[first:end], "little") ^ mask
    bits[first:end] = covering.to_bytes(end - first, "little")


class FragmentBitmap:
    """A bitmap over ``n_fragments`` fragments, 1 bit each (1 = free)."""

    def __init__(self, n_fragments: int, *, all_free: bool = True) -> None:
        if n_fragments <= 0:
            raise ValueError("bitmap must cover at least one fragment")
        self.n_fragments = n_fragments
        self._bits = bytearray(b"\xff" if all_free else b"\x00") * (
            -(-n_fragments // 8)
        )
        self._clear_padding()
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
        return self._extent_bits(extent) == (1 << extent.length) - 1

    def is_allocated_run(self, extent: Extent) -> bool:
        """True if every fragment of ``extent`` is allocated."""
        self._check(extent.end - 1)
        _monitor.active().read(
            self, extent.start, extent.end, site="bitmap.is_allocated_run"
        )
        return self._extent_bits(extent) == 0

    @property
    def free_count(self) -> int:
        return self._free_count

    def run_length_at(self, start: int) -> int:
        """Length of the free run beginning exactly at ``start`` (0 if allocated).

        Host cost is a few integer operations plus one C-level scan over
        the run's all-free bytes — nothing proportional to the run's
        length executes in Python.
        """
        self._check(start)
        bits = self._bits
        index, shift = start >> 3, start & 7
        ones = _trailing_ones(bits[index] >> shift)
        if ones < 8 - shift:
            return ones
        # The run reaches the byte boundary: skip the all-free bytes,
        # then count the free bits the first other byte starts with.
        index = _FULL_BYTES.match(bits, index + 1).end()
        tail = _trailing_ones(bits[index]) if index < len(bits) else 0
        return (index << 3) + tail - start

    def run_containing(self, fragment: int) -> Extent | None:
        """The maximal free run containing ``fragment``, or None."""
        if not self.is_free(fragment):
            return None
        bits = self._bits
        index, shift = fragment >> 3, fragment & 7
        # Bits 0..shift of the byte, moved up so ``fragment`` is bit 7.
        ones = _leading_ones((bits[index] << (7 - shift)) & 0xFF)
        if ones <= shift:
            start = fragment - ones + 1
        else:
            # Free down to the byte boundary: drop the all-free bytes
            # before it, then count the free bits the last other byte
            # ends with.
            index = len(bits[:index].rstrip(b"\xff"))
            start = (index << 3) - (_leading_ones(bits[index - 1]) if index else 0)
        return Extent(start, self.run_length_at(start))

    def free_runs(self) -> Iterator[Extent]:
        """Scan the whole bitmap yielding maximal free runs in address order.

        This is the paper's "initialization and subsequent updation of
        this array is carried out by scanning the bitmap".  The scan
        visits runs, not bytes: each step is one C-level skip over the
        allocated bytes before a run and one over the free bytes inside
        it, so a full-disk scan costs Python time per *run* only.
        """
        _monitor.active().read_all(self, site="bitmap.free_runs")
        n = self.n_fragments
        position = 0
        while position < n:
            start = self._next_free(position)
            if start == n:
                return
            length = self.run_length_at(start)
            yield Extent(start, length)
            # The fragment ending the run is allocated (or is the end).
            position = start + length + 1

    def allocated_runs(self) -> Iterator[Extent]:
        """Maximal allocated runs in address order (what :meth:`free_runs` skips)."""
        position = 0
        for run in self.free_runs():
            if run.start > position:
                yield Extent(position, run.start - position)
            position = run.end
        if position < self.n_fragments:
            yield Extent(position, self.n_fragments - position)

    # ------------------------------------------------------- updates

    def mark_allocated(self, extent: Extent) -> None:
        """Clear the bits of ``extent``; every fragment must be free.

        All-or-nothing: a rejected call leaves the bitmap untouched.
        """
        self._check(extent.end - 1)
        _monitor.active().write(
            self, extent.start, extent.end, site="bitmap.mark_allocated"
        )
        window = self._extent_bits(extent)
        if window != (1 << extent.length) - 1:
            raise BadAddressError(
                f"fragment {extent.start + _trailing_ones(window)} "
                f"already allocated"
            )
        _flip(self._bits, extent)
        self._free_count -= extent.length

    def mark_free(self, extent: Extent) -> None:
        """Set the bits of ``extent``; every fragment must be allocated.

        All-or-nothing: a rejected call leaves the bitmap untouched.
        """
        self._check(extent.end - 1)
        _monitor.active().write(
            self, extent.start, extent.end, site="bitmap.mark_free"
        )
        window = self._extent_bits(extent)
        if window:
            raise BadAddressError(
                f"fragment {extent.start + _trailing_zeros(window)} already free"
            )
        _flip(self._bits, extent)
        self._free_count += extent.length

    # -------------------------------------------------- persistence

    def to_bytes(self, *, as_free: Sequence[Extent] = ()) -> bytes:
        """Serialise for storage on stable storage.

        The extents in ``as_free`` — allocated here — are written out as
        free space: the disk server's scratch extents, which a
        checkpoint must not contain.
        """
        _monitor.active().read_all(self, site="bitmap.to_bytes")
        if not as_free:
            return bytes(self._bits)
        image = bytearray(self._bits)
        for extent in as_free:
            _flip(image, extent)
        return bytes(image)

    @classmethod
    def from_bytes(cls, data: bytes, n_fragments: int) -> "FragmentBitmap":
        expected = -(-n_fragments // 8)
        if len(data) != expected:
            raise ValueError(f"bitmap blob is {len(data)} bytes, expected {expected}")
        bitmap = cls(n_fragments, all_free=False)
        bitmap._load(data)
        return bitmap

    # ------------------------------------------------------ internal

    def _check(self, fragment: int) -> None:
        if not 0 <= fragment < self.n_fragments:
            raise BadAddressError(
                f"fragment {fragment} outside disk of {self.n_fragments} fragments"
            )

    def _clear_padding(self) -> None:
        """Zero the bits of the last byte that lie beyond ``n_fragments``."""
        self._bits[-1] &= 0xFF >> (-self.n_fragments & 7)

    def _load(self, data: bytes) -> None:
        """Adopt a checkpoint blob of the right length (``from_bytes``)."""
        self._bits[:] = data
        # A blob is outside input: it may carry set padding bits, which
        # are neither free space nor allowed by the scans' invariant.
        self._clear_padding()
        self._free_count = int.from_bytes(self._bits, "little").bit_count()

    def _extent_bits(self, extent: Extent) -> int:
        """``extent``'s bits as an int: bit ``i`` is fragment ``start + i``."""
        covering = self._bits[extent.start >> 3 : (extent.end + 7) >> 3]
        return (int.from_bytes(covering, "little") >> (extent.start & 7)) & (
            (1 << extent.length) - 1
        )

    def _next_free(self, position: int) -> int:
        """First free fragment at or after ``position``; ``n_fragments`` if none."""
        bits = self._bits
        index, shift = position >> 3, position & 7
        rest = bits[index] >> shift
        if rest:
            return position + _trailing_zeros(rest)
        index = _EMPTY_BYTES.match(bits, index + 1).end()
        if index == len(bits):
            return self.n_fragments
        return (index << 3) + _trailing_zeros(bits[index])

    def __repr__(self) -> str:
        return f"FragmentBitmap({self._free_count}/{self.n_fragments} free)"
