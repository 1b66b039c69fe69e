"""Volume backup/restore: the defence against catastrophes."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import FileServiceError, MediaError
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE
from repro.disk_service.addresses import Extent
from repro.file_service.attributes import LockingLevel, ServiceType
from repro.tools.backup import dump_volume, restore_volume
from tests.conftest import build_file_server


def build_pair():
    clock, metrics = SimClock(), Metrics()
    source = build_file_server(clock, metrics, volume_id=0)
    target = build_file_server(clock, metrics, volume_id=1)
    return source, target


class TestDumpRestore:
    def test_round_trip_contents(self):
        source, target = build_pair()
        names = []
        for index in range(5):
            name = source.create()
            source.write(name, 0, bytes([index + 1]) * (index * 1000 + 10))
            names.append(name)
        source.flush()
        archive = dump_volume(source)
        mapping = restore_volume(target, archive)
        assert len(mapping) == 5
        for name in names:
            restored = mapping[(name.fit_address, name.generation)]
            original = source.read(name, 0, 10**6)
            assert target.read(restored, 0, 10**6) == original

    def test_attributes_preserved(self):
        source, target = build_pair()
        name = source.create(
            service_type=ServiceType.TRANSACTION,
            locking_level=LockingLevel.RECORD,
        )
        source.write(name, 0, b"attributed")
        source.flush()
        mapping = restore_volume(target, dump_volume(source))
        restored = mapping[(name.fit_address, name.generation)]
        attrs = target.get_attribute(restored)
        assert attrs.service_type is ServiceType.TRANSACTION
        assert attrs.locking_level is LockingLevel.RECORD
        assert attrs.file_size == 10

    def test_empty_volume(self):
        source, target = build_pair()
        assert restore_volume(target, dump_volume(source)) == {}

    def test_empty_file_restored(self):
        source, target = build_pair()
        name = source.create()
        source.flush()
        mapping = restore_volume(target, dump_volume(source))
        restored = mapping[(name.fit_address, name.generation)]
        assert target.get_attribute(restored).file_size == 0

    def test_large_file(self):
        source, target = build_pair()
        name = source.create()
        payload = bytes(range(256)) * (70 * BLOCK_SIZE // 256)  # indirect range
        source.write(name, 0, payload)
        source.flush()
        mapping = restore_volume(target, dump_volume(source))
        restored = mapping[(name.fit_address, name.generation)]
        assert target.read(restored, 0, len(payload)) == payload

    def test_restore_onto_same_volume_duplicates(self):
        source, _ = build_pair()
        name = source.create()
        source.write(name, 0, b"twin me")
        source.flush()
        mapping = restore_volume(source, dump_volume(source))
        clone = mapping[(name.fit_address, name.generation)]
        assert clone != name
        assert source.read(clone, 0, 7) == b"twin me"
        assert source.read(name, 0, 7) == b"twin me"


class TestCatastrophe:
    def test_survives_total_volume_loss(self):
        """The scenario section 6.6 excludes: volume destroyed outright.
        A backup taken beforehand restores every file elsewhere."""
        source, target = build_pair()
        name = source.create()
        source.write(name, 0, b"the only copy")
        source.flush()
        archive = dump_volume(source)
        # Catastrophe: data disk AND both stable mirrors lost.
        source.disk.disk.crash()
        source.disk.stable.mirror_a.crash()
        source.disk.stable.mirror_b.crash()
        mapping = restore_volume(target, archive)
        restored = mapping[(name.fit_address, name.generation)]
        assert target.read(restored, 0, 13) == b"the only copy"


class TestScanProblems:
    def test_unreadable_fragment_aborts_the_dump(self):
        """A backup that skipped what it could not read would silently
        lose a file; the scan's MediaError surfaces instead."""
        source, _ = build_pair()
        name = source.create()
        source.write(name, 0, b"precious")
        source.flush()
        fit_sector = Extent(name.fit_address, 1).first_sector
        source.disk.disk.faults.schedule_media_error(fit_sector)
        source.recover()  # drop caches so the scan hits the platter
        with pytest.raises(MediaError):
            dump_volume(source)

    def test_undecodable_fit_candidate_is_skipped(self):
        source, target = build_pair()
        name = source.create()
        source.write(name, 0, b"real file")
        torn = source.disk.allocate(1)
        source.disk.put(torn, b"RFIT" + b"\xee" * (torn.byte_size - 4))
        source.flush()
        mapping = restore_volume(target, dump_volume(source))
        assert list(mapping) == [(name.fit_address, name.generation)]


class TestValidation:
    def test_truncated_archive_rejected(self):
        _, target = build_pair()
        with pytest.raises(FileServiceError):
            restore_volume(target, b"RB")

    def test_wrong_magic_rejected(self):
        _, target = build_pair()
        with pytest.raises(FileServiceError):
            restore_volume(target, b"XXXX" + bytes(10))

    def test_mid_entry_truncation_rejected(self):
        source, target = build_pair()
        name = source.create()
        source.write(name, 0, b"will be cut")
        source.flush()
        archive = dump_volume(source)
        with pytest.raises(FileServiceError):
            restore_volume(target, archive[:-4])
