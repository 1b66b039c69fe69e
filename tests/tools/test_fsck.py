"""The volume checker: clean volumes pass, every corruption is found."""

import tracemalloc

import pytest

from repro.common.clock import SimClock
from repro.common.errors import MediaError
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE
from repro.disk_service.addresses import Extent
from repro.verify.fsck import fsck_volume, scan_fits, verify_checksums
from tests.conftest import build_file_server


@pytest.fixture
def server():
    return build_file_server(SimClock(), Metrics())


def make_files(server, count=5, blocks=3):
    names = []
    for index in range(count):
        name = server.create()
        server.write(name, 0, bytes([index + 1]) * (blocks * BLOCK_SIZE))
        names.append(name)
    server.flush()
    return names


class TestCleanVolume:
    def test_empty_volume_is_clean(self, server):
        report = fsck_volume(server)
        assert report.clean
        assert report.files_found == 0

    def test_populated_volume_is_clean(self, server):
        make_files(server)
        report = fsck_volume(server)
        assert report.clean, report.errors
        assert report.files_found == 5
        # 3 written blocks per file plus any growth-batch preallocation.
        assert report.blocks_referenced >= 15
        assert report.orphaned_fragments == 0

    def test_after_deletes_still_clean(self, server):
        names = make_files(server)
        server.delete(names[2])
        server.flush()
        report = fsck_volume(server)
        assert report.clean
        assert report.files_found == 4

    def test_indirect_files_walked(self, server):
        name = server.create()
        server.write(name, 0, b"\x33" * (70 * BLOCK_SIZE))  # past direct
        server.flush()
        report = fsck_volume(server)
        assert report.clean, report.errors
        assert report.blocks_referenced >= 70

    def test_summary_format(self, server):
        make_files(server, count=2, blocks=1)
        summary = fsck_volume(server).summary()
        assert "CLEAN" in summary
        assert "2 files" in summary


class TestCorruptionDetection:
    def test_lost_block_detected(self, server):
        [name] = make_files(server, count=1)
        descriptor = server.block_descriptor(name, 1)
        server.disk.free(Extent.for_block_run(descriptor.address, 1))
        report = fsck_volume(server)
        assert not report.clean
        assert any("lost block" in error for error in report.errors)

    def test_cross_linked_files_detected(self, server):
        name_a, name_b = make_files(server, count=2)
        stolen = server.block_descriptor(name_a, 0)
        old = server.replace_block_descriptor(name_b, 0, stolen.address)
        server.disk.free(Extent.for_block_run(old, 1))
        server.flush()
        report = fsck_volume(server)
        assert any("cross-linked" in error for error in report.errors)

    def test_size_beyond_map_detected(self, server):
        [name] = make_files(server, count=1, blocks=1)
        server.set_file_size_at_least(name, 50 * BLOCK_SIZE)
        server.flush()
        report = fsck_volume(server)
        assert any("exceeds the mapped area" in error for error in report.errors)

    def test_orphaned_space_warned(self, server):
        make_files(server, count=1)
        server.disk.allocate(8)  # leak: allocated, never referenced
        report = fsck_volume(server)
        assert report.clean  # a warning, not an error
        assert report.orphaned_fragments == 8

    def test_stale_counts_warned(self, server):
        [name] = make_files(server, count=1, blocks=4)
        fit = server.load_fit(name)
        from repro.file_service.fit import BlockDescriptor

        # Corrupt the stored count without moving the block.
        fit.direct[0] = BlockDescriptor(fit.direct[0].address, 1)
        state = server._files[name.fit_address]
        state.fit_dirty = True
        server._store_fit(name.fit_address, state)
        report = fsck_volume(server)
        assert any("stale contiguity count" in w for w in report.warnings)


class TestMediaVerification:
    """PR 6: the optional checksum pass reports latent rot — it never
    repairs, reconciles, or caches anything as a side effect."""

    def _data_fragment(self, server):
        """A checksummed fragment holding file data (not a live FIT)."""
        [name] = make_files(server, count=1)
        descriptor = server.block_descriptor(name, 0)
        assert server.disk.has_checksum(descriptor.address)
        return descriptor.address

    def test_clean_volume_has_no_findings(self, server):
        self._data_fragment(server)
        assert verify_checksums(server.disk) == []
        assert fsck_volume(server, verify_media=True).clean

    def test_latent_rot_reported_as_error(self, server):
        fragment = self._data_fragment(server)
        extent = Extent(fragment, 1)
        server.disk.disk.corrupt_sectors(extent.first_sector, 1)
        report = fsck_volume(server, verify_media=True)
        assert not report.clean
        assert any(
            f"fragment {fragment}" in error and "checksum mismatch" in error
            for error in report.errors
        )
        # Without the media pass the rot stays latent: fsck's own walk
        # reads other fragments, so the default report is still clean.
        assert fsck_volume(server).clean

    def test_reporting_never_repairs(self, server):
        fragment = self._data_fragment(server)
        extent = Extent(fragment, 1)
        disk = server.disk
        recorded = disk.recorded_checksum(fragment)
        disk.disk.corrupt_sectors(extent.first_sector, 1)
        rotten = disk.disk.read_sectors(extent.first_sector, extent.n_sectors)
        assert verify_checksums(disk) != []
        # Raw bytes, the recorded CRC, and the repair counters are all
        # untouched — finding rot is the whole job.
        assert (
            disk.disk.read_sectors(extent.first_sector, extent.n_sectors)
            == rotten
        )
        assert disk.recorded_checksum(fragment) == recorded
        assert server.metrics.get("disk_server.0.read_repairs") == 0
        assert server.metrics.get("disk_server.0.stable_repairs") == 0

    def test_unreadable_fragment_reported(self, server):
        fragment = self._data_fragment(server)
        extent = Extent(fragment, 1)
        server.disk.disk.faults.schedule_media_error(extent.first_sector)
        findings = verify_checksums(server.disk)
        assert any(
            f"fragment {fragment}" in finding and "unreadable" in finding
            for finding in findings
        )

    def test_unreconciled_checksums_are_skipped(self, server):
        """Post-crash, a stale recorded CRC may simply lag an in-flux
        write — the raw pass cannot call that rot yet."""
        fragment = self._data_fragment(server)
        extent = Extent(fragment, 1)
        disk = server.disk
        disk.disk.corrupt_sectors(extent.first_sector, 1)
        disk.recover()  # reload the checkpoint: everything unreconciled
        assert disk.is_unreconciled(fragment)
        assert verify_checksums(disk) == []

    def test_fit_magic_with_garbage_body_is_a_warning(self, server):
        """The narrowed decode taxonomy: structural garbage behind the
        magic is reported as a torn write, never swallowed blindly and
        never a crash."""
        make_files(server, count=1)
        extent = server.disk.allocate(1)
        payload = b"RFIT" + bytes(
            (index * 13 + 7) % 256 for index in range(extent.byte_size - 4)
        )
        server.disk.put(extent, payload)
        report = fsck_volume(server)
        assert any("undecodable" in warning for warning in report.warnings)


class TestTreeBlockErrors:
    """A tree block that is free or unreadable is an error naming its
    role and address; whatever hangs below it goes unchecked."""

    BOUNDARY = 64 + 8 * 1365  # first double-indirect block

    def big_file(self, server):
        name = server.create()
        server.write(name, 0, b"\x44" * (70 * BLOCK_SIZE))
        server.write(name, self.BOUNDARY * BLOCK_SIZE, b"deep")
        server.flush()
        fit = server.load_fit(name)
        from repro.file_service.fit import decode_indirect_block

        pointer_block = fit.double_indirect[0]
        pointers = decode_indirect_block(
            server.disk.get(Extent.for_block_run(pointer_block, 1))
        )
        return name, fit.single_indirect[0], pointer_block, pointers[0].address

    @pytest.mark.parametrize(
        "which, role",
        [
            (1, "indirect block"),
            (2, "double-indirect pointer block"),
            (3, "inner indirect block"),
        ],
    )
    def test_freed_tree_block_is_reported_by_role(self, server, which, role):
        found = self.big_file(server)
        name, address = found[0], found[which]
        server.disk.free(Extent.for_block_run(address, 1))
        report = fsck_volume(server)
        assert report.errors[0] == (
            f"FIT {name.fit_address}: {role} {address} is free"
        )
        # The data blocks only that tree block named are now orphans.
        assert report.orphaned_fragments > 0

    def test_unreadable_tree_block_is_reported(self, server):
        name, leaf, _, _ = self.big_file(server)
        sector = Extent.for_block_run(leaf, 1).first_sector
        server.disk.disk.faults.schedule_media_error(sector)
        server.recover()  # drop the track cache so the walk hits the platter
        report = fsck_volume(server)
        assert any(
            error.startswith(
                f"FIT {name.fit_address}: indirect block {leaf} unreadable ("
            )
            for error in report.errors
        )


class TestScanFits:
    """Pass 1 on its own: the one FIT scan fsck and backup share."""

    def test_finds_exactly_the_live_fits(self, server):
        names = make_files(server, count=3)
        server.delete(names[1])
        server.flush()
        fits = scan_fits(server.disk)
        assert sorted(fits) == sorted(n.fit_address for n in (names[0], names[2]))
        for name in (names[0], names[2]):
            assert fits[name.fit_address].attributes.generation == name.generation

    def test_problems_go_to_the_warning_list_when_one_is_given(self, server):
        [name] = make_files(server, count=1, blocks=12)
        torn = server.disk.allocate(1)
        server.disk.put(torn, b"RFIT" + b"\xee" * (torn.byte_size - 4))
        server.flush()
        # A data block on a later track than the FIT's (reads are per track).
        data = server.block_descriptor(name, 10).address
        server.disk.disk.faults.schedule_media_error(Extent(data, 1).first_sector)
        server.recover()  # drop the track cache so the scan hits the platter
        warnings = []
        assert sorted(scan_fits(server.disk, warnings)) == [name.fit_address]
        assert any(f"fragment {data}: unreadable" in w for w in warnings)
        assert warnings[-1] == (
            f"fragment {torn.start}: FIT magic but undecodable (torn write?)"
        )
        assert all("unreadable" in warning for warning in warnings[:-1])

    def test_unreadable_fragment_is_loud_without_a_warning_list(self, server):
        [name] = make_files(server, count=1, blocks=12)
        data = server.block_descriptor(name, 10).address
        server.disk.disk.faults.schedule_media_error(Extent(data, 1).first_sector)
        server.recover()
        with pytest.raises(MediaError):
            scan_fits(server.disk)


class TestFootprint:
    def test_small_files_cost_nothing_proportional_to_the_maximum_file(
        self, server
    ):
        """PR 15: the checker used to pad every absent double-indirect
        slot with 1365**2 Nones — 42.8 MiB peak for five 20 KB files."""
        make_files(server, count=5, blocks=3)  # 24 KB each, 1 GB volume
        tracemalloc.start()
        try:
            report = fsck_volume(server)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.clean and report.files_found == 5
        assert peak < 4 * 1024 * 1024, f"fsck peak {peak / 2**20:.1f} MiB"


class TestDoubleIndirect:
    def test_double_indirect_file_is_clean(self, server):
        from repro.file_service.fit import (
            DESCRIPTORS_PER_INDIRECT,
            DIRECT_DESCRIPTORS,
            SINGLE_INDIRECT_SLOTS,
        )

        boundary = (
            DIRECT_DESCRIPTORS + SINGLE_INDIRECT_SLOTS * DESCRIPTORS_PER_INDIRECT
        )
        name = server.create()
        server.write(name, boundary * BLOCK_SIZE, b"deep" * 2048)
        server.flush()
        report = fsck_volume(server)
        assert report.clean, report.errors
        assert report.orphaned_fragments == 0
