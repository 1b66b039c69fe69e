"""The file index table codec and contiguity counts."""

import pytest

from repro.common.errors import FileSizeError
from repro.common.units import BLOCK_SIZE, FRAGMENT_SIZE
from repro.file_service.attributes import FileAttributes, LockingLevel, ServiceType
from repro.file_service.fit import (
    DIRECT_COVERAGE_BYTES,
    DIRECT_DESCRIPTORS,
    MAX_FILE_BLOCKS,
    BlockDescriptor,
    FileIndexTable,
    contiguous_runs,
    decode_indirect_block,
    encode_indirect_block,
    recompute_counts,
)


class TestLayoutClaims:
    def test_direct_area_covers_half_a_megabyte(self):
        """Paper section 5/7: direct access to at least half a megabyte."""
        assert DIRECT_COVERAGE_BYTES == 512 * 1024
        assert DIRECT_DESCRIPTORS == 64

    def test_fit_fits_in_one_fragment(self):
        fit = FileIndexTable()
        for index in range(DIRECT_DESCRIPTORS):
            fit.direct[index] = BlockDescriptor(index * 4, 1)
        assert len(fit.encode()) == FRAGMENT_SIZE

    def test_max_file_blocks_is_large(self):
        """'Virtually no limitation on file size'."""
        assert MAX_FILE_BLOCKS * BLOCK_SIZE > 20 * 1024**3  # > 20 GB


class TestCodec:
    def test_empty_round_trip(self):
        fit = FileIndexTable()
        restored = FileIndexTable.decode(fit.encode())
        assert restored.direct == fit.direct
        assert restored.single_indirect == fit.single_indirect
        assert restored.double_indirect == fit.double_indirect

    def test_attributes_round_trip(self):
        fit = FileIndexTable(
            attributes=FileAttributes(
                file_size=123_456,
                created_us=111,
                last_read_us=222,
                last_write_us=333,
                ref_count=2,
                service_type=ServiceType.TRANSACTION,
                locking_level=LockingLevel.RECORD,
                extra_space=64,
                generation=77,
                open_count_total=9,
            )
        )
        attrs = FileIndexTable.decode(fit.encode()).attributes
        assert attrs.file_size == 123_456
        assert attrs.created_us == 111
        assert attrs.last_read_us == 222
        assert attrs.last_write_us == 333
        assert attrs.ref_count == 2
        assert attrs.service_type is ServiceType.TRANSACTION
        assert attrs.locking_level is LockingLevel.RECORD
        assert attrs.extra_space == 64
        assert attrs.generation == 77
        assert attrs.open_count_total == 9

    def test_descriptors_round_trip(self):
        fit = FileIndexTable()
        fit.direct[0] = BlockDescriptor(100, 3)
        fit.direct[5] = BlockDescriptor(400, 1)
        fit.single_indirect[2] = 9000
        fit.double_indirect[1] = 9004
        restored = FileIndexTable.decode(fit.encode())
        assert restored.direct[0] == BlockDescriptor(100, 3)
        assert restored.direct[1] is None
        assert restored.direct[5] == BlockDescriptor(400, 1)
        assert restored.single_indirect[2] == 9000
        assert restored.double_indirect[1] == 9004

    def test_bad_magic_rejected(self):
        with pytest.raises(FileSizeError):
            FileIndexTable.decode(bytes(FRAGMENT_SIZE))

    def test_truncated_rejected(self):
        with pytest.raises(FileSizeError):
            FileIndexTable.decode(b"RFIT")


class TestBlockDescriptor:
    def test_count_bounds(self):
        BlockDescriptor(0, 1)
        BlockDescriptor(0, 0xFFFF)
        with pytest.raises(FileSizeError):
            BlockDescriptor(0, 0)
        with pytest.raises(FileSizeError):
            BlockDescriptor(0, 0x10000)

    def test_address_bounds(self):
        with pytest.raises(FileSizeError):
            BlockDescriptor(-1, 1)
        with pytest.raises(FileSizeError):
            BlockDescriptor(0xFFFF_FFFF, 1)  # the NULL sentinel


class TestCounts:
    def test_fully_contiguous(self):
        """The paper's two-byte count: successive contiguous blocks."""
        descs = [BlockDescriptor(base, 1) for base in (100, 104, 108, 112)]
        counted = recompute_counts(descs)
        assert [d.count for d in counted] == [4, 3, 2, 1]

    def test_break_in_contiguity(self):
        descs = [
            BlockDescriptor(100, 1),
            BlockDescriptor(104, 1),
            BlockDescriptor(300, 1),  # jump
            BlockDescriptor(304, 1),
        ]
        counted = recompute_counts(descs)
        assert [d.count for d in counted] == [2, 1, 2, 1]

    def test_holes_break_runs(self):
        descs = [BlockDescriptor(100, 1), None, BlockDescriptor(108, 1)]
        counted = recompute_counts(descs)
        assert counted[0].count == 1
        assert counted[1] is None
        assert counted[2].count == 1

    def test_count_caps_at_two_bytes(self):
        descs = [BlockDescriptor(index * 4, 1) for index in range(70000)]
        counted = recompute_counts(descs)
        assert counted[0].count == 0xFFFF


class TestContiguousRuns:
    def test_single_run(self):
        descs = recompute_counts(
            [BlockDescriptor(100 + 4 * index, 1) for index in range(5)]
        )
        runs = list(contiguous_runs(descs, 0, 4))
        assert runs == [(0, 5, 100)]

    def test_runs_split_at_jumps(self):
        descs = recompute_counts(
            [
                BlockDescriptor(100, 1),
                BlockDescriptor(104, 1),
                BlockDescriptor(500, 1),
            ]
        )
        assert list(contiguous_runs(descs, 0, 2)) == [(0, 2, 100), (2, 1, 500)]

    def test_subrange(self):
        descs = recompute_counts(
            [BlockDescriptor(100 + 4 * index, 1) for index in range(8)]
        )
        assert list(contiguous_runs(descs, 2, 5)) == [(2, 4, 108)]

    def test_holes_reported(self):
        descs = [BlockDescriptor(100, 1), None, None, BlockDescriptor(200, 1)]
        runs = list(contiguous_runs(recompute_counts(descs), 0, 3))
        assert runs == [(0, 1, 100), (1, 2, -1), (3, 1, 200)]

    def test_range_past_map_end_is_a_hole(self):
        descs = [BlockDescriptor(100, 1)]
        runs = list(contiguous_runs(descs, 0, 2))
        assert runs == [(0, 1, 100), (1, 2, -1)]

    def test_hole_running_past_map_end_is_one_hole(self):
        descs = [BlockDescriptor(100, 1), None, None]
        assert list(contiguous_runs(descs, 0, 9)) == [(0, 1, 100), (1, 9, -1)]
        assert list(contiguous_runs(descs, 1, 2)) == [(1, 2, -1)]
        assert list(contiguous_runs(descs, 5, 1_000_000)) == [(5, 999_996, -1)]


class TestIndirectCodec:
    def test_round_trip(self):
        descs = [None] * 10
        descs[3] = BlockDescriptor(800, 2)
        blob = encode_indirect_block(descs)
        assert len(blob) == BLOCK_SIZE
        restored = decode_indirect_block(blob)
        assert restored[3] == BlockDescriptor(800, 2)
        assert restored[0] is None

    def test_wrong_size_rejected(self):
        with pytest.raises(FileSizeError):
            decode_indirect_block(b"x" * 100)
