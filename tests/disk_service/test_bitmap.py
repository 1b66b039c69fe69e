"""The fragment bitmap: the authoritative free-space record."""

import pytest

from repro.common.errors import BadAddressError
from repro.disk_service.addresses import Extent
from repro.disk_service.bitmap import FragmentBitmap


class TestBasics:
    def test_starts_all_free(self):
        bitmap = FragmentBitmap(100)
        assert bitmap.free_count == 100
        assert bitmap.is_free(0)
        assert bitmap.is_free(99)

    def test_starts_all_allocated(self):
        bitmap = FragmentBitmap(100, all_free=False)
        assert bitmap.free_count == 0

    def test_non_multiple_of_eight(self):
        bitmap = FragmentBitmap(13)
        assert bitmap.free_count == 13
        bitmap.mark_allocated(Extent(0, 13))
        assert bitmap.free_count == 0

    def test_allocate_and_free(self):
        bitmap = FragmentBitmap(64)
        bitmap.mark_allocated(Extent(10, 4))
        assert bitmap.free_count == 60
        assert not bitmap.is_free(10)
        assert not bitmap.is_free(13)
        assert bitmap.is_free(14)
        bitmap.mark_free(Extent(10, 4))
        assert bitmap.free_count == 64

    def test_double_allocate_rejected(self):
        bitmap = FragmentBitmap(32)
        bitmap.mark_allocated(Extent(0, 4))
        with pytest.raises(BadAddressError):
            bitmap.mark_allocated(Extent(2, 4))

    def test_double_free_rejected(self):
        bitmap = FragmentBitmap(32)
        with pytest.raises(BadAddressError):
            bitmap.mark_free(Extent(0, 1))

    def test_out_of_range(self):
        bitmap = FragmentBitmap(16)
        with pytest.raises(BadAddressError):
            bitmap.is_free(16)

    def test_rejected_allocate_changes_nothing(self):
        bitmap = FragmentBitmap(16)
        bitmap.mark_allocated(Extent(2, 1))
        before = bitmap.to_bytes()
        with pytest.raises(BadAddressError, match="fragment 2 already allocated"):
            bitmap.mark_allocated(Extent(0, 4))
        assert bitmap.to_bytes() == before
        assert bitmap.free_count == 15

    def test_rejected_free_changes_nothing(self):
        bitmap = FragmentBitmap(16, all_free=False)
        bitmap.mark_free(Extent(2, 1))
        before = bitmap.to_bytes()
        with pytest.raises(BadAddressError, match="fragment 2 already free"):
            bitmap.mark_free(Extent(0, 4))
        assert bitmap.to_bytes() == before
        assert bitmap.free_count == 1


class TestRuns:
    @pytest.fixture
    def holey(self):
        """free: [0,3) alloc [3,5) free [5,12) alloc [12,13) free [13,16)."""
        bitmap = FragmentBitmap(16)
        bitmap.mark_allocated(Extent(3, 2))
        bitmap.mark_allocated(Extent(12, 1))
        return bitmap

    def test_run_length_at(self, holey):
        assert holey.run_length_at(0) == 3
        assert holey.run_length_at(3) == 0
        assert holey.run_length_at(5) == 7
        assert holey.run_length_at(13) == 3

    def test_run_containing(self, holey):
        assert holey.run_containing(7) == Extent(5, 7)
        assert holey.run_containing(0) == Extent(0, 3)
        assert holey.run_containing(3) is None

    def test_free_runs_scan(self, holey):
        assert list(holey.free_runs()) == [Extent(0, 3), Extent(5, 7), Extent(13, 3)]

    def test_free_runs_full_disk(self):
        assert list(FragmentBitmap(8).free_runs()) == [Extent(0, 8)]

    def test_free_runs_empty_disk(self):
        assert list(FragmentBitmap(8, all_free=False).free_runs()) == []

    def test_is_free_run(self, holey):
        assert holey.is_free_run(Extent(5, 7))
        assert not holey.is_free_run(Extent(2, 3))

    def test_is_allocated_run(self, holey):
        assert holey.is_allocated_run(Extent(3, 2))
        assert not holey.is_allocated_run(Extent(2, 3))


class TestPersistence:
    def test_round_trip(self):
        bitmap = FragmentBitmap(40)
        bitmap.mark_allocated(Extent(7, 9))
        restored = FragmentBitmap.from_bytes(bitmap.to_bytes(), 40)
        assert restored.free_count == bitmap.free_count
        assert list(restored.free_runs()) == list(bitmap.free_runs())

    def test_extents_can_be_written_out_as_free(self):
        bitmap = FragmentBitmap(40)
        bitmap.mark_allocated(Extent(2, 3))
        for extent in (Extent(7, 9), Extent(30, 10)):  # byte-crossing, tail
            bitmap.mark_allocated(extent)
        live = bitmap.to_bytes()
        image = bitmap.to_bytes(as_free=[Extent(7, 9), Extent(30, 10)])
        assert bitmap.to_bytes() == live  # the live bitmap is untouched
        restored = FragmentBitmap.from_bytes(image, 40)
        assert list(restored.allocated_runs()) == [Extent(2, 3)]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            FragmentBitmap.from_bytes(b"\xff", 40)

    def test_set_padding_bits_are_not_free_space(self):
        # 13 fragments: bits 5..7 of the second byte are padding.
        restored = FragmentBitmap.from_bytes(b"\x0f\xf8", 13)
        assert restored.free_count == 6
        assert list(restored.free_runs()) == [Extent(0, 4), Extent(11, 2)]
        assert restored.run_length_at(11) == 2
        assert restored.run_containing(12) == Extent(11, 2)
        assert restored.to_bytes() == b"\x0f\x18"
