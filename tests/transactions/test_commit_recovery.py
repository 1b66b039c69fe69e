"""Commit techniques (WAL vs shadow) and crash recovery atomicity."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import DiskCrashedError, TransactionError
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE
from repro.file_service.attributes import LockingLevel
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService
from repro.transactions.agent import TransactionAgentHost
from repro.transactions.coordinator import TransactionCoordinator
from repro.transactions.intentions import (
    IntentionList,
    IntentionRecord,
    Technique,
)
from repro.transactions.transaction import TransactionStatus
from tests.conftest import build_file_server

NAME = AttributedName.file("/f")


def build(technique="auto"):
    clock, metrics = SimClock(), Metrics()
    server = build_file_server(clock, metrics)
    naming = NamingService(metrics)
    coordinator = TransactionCoordinator(clock, metrics, technique=technique)
    coordinator.register_volume(server)
    host = TransactionAgentHost("m0", naming, coordinator, clock, metrics)
    return host, server, naming, coordinator, metrics


def seed_file(host, *, blocks=4, level=LockingLevel.PAGE, fill=b"O"):
    tid = host.tbegin()
    descriptor = host.tcreate(tid, NAME, locking_level=level)
    host.twrite(tid, descriptor, fill * (blocks * BLOCK_SIZE))
    host.tend(tid)


class TestTechniqueChoice:
    def test_contiguous_blocks_use_wal(self):
        """Paper section 6.7: WAL when the data blocks are contiguous,
        preserving the contiguity the allocator achieved."""
        host, server, naming, coordinator, metrics = build(technique="auto")
        seed_file(host, blocks=4)
        tid = host.tbegin()
        descriptor = host.topen(tid, NAME)
        host.tpwrite(tid, descriptor, b"N" * BLOCK_SIZE, BLOCK_SIZE)
        host.tend(tid)
        assert metrics.get("transactions.wal_applies") >= 1
        assert metrics.get("transactions.shadow_applies") == 0

    def test_non_contiguous_blocks_use_shadow(self):
        host, server, naming, coordinator, metrics = build(technique="auto")
        seed_file(host, blocks=2)
        system_name = naming.resolve_file(NAME)
        # Make block 1 non-contiguous: swap it to an isolated block with
        # a gap before and after.
        server.disk.allocate_block(1)  # gap so the isolated block is lonely
        isolated = server.disk.allocate_block(1)
        server.write_block(
            isolated.start, server.read(system_name, BLOCK_SIZE, BLOCK_SIZE)
        )
        server.replace_block_descriptor(system_name, 1, isolated.start)
        tid = host.tbegin()
        descriptor = host.topen(tid, NAME)
        host.tpwrite(tid, descriptor, b"S" * 100, BLOCK_SIZE)
        host.tend(tid)
        assert metrics.get("transactions.shadow_applies") >= 1
        assert server.read(system_name, BLOCK_SIZE, 4) == b"SSSS"

    def test_record_level_always_wal(self):
        """'There is no justification to tie up a complete block or
        fragment' — record items use WAL."""
        host, server, naming, coordinator, metrics = build(technique="auto")
        seed_file(host, level=LockingLevel.RECORD)
        tid = host.tbegin()
        descriptor = host.topen(tid, NAME)
        host.tpwrite(tid, descriptor, b"rec", 17)
        host.tend(tid)
        assert metrics.get("transactions.wal_applies") >= 1
        assert metrics.get("transactions.shadow_applies") == 0

    def test_forced_shadow_swaps_descriptors(self):
        host, server, naming, coordinator, metrics = build(technique="shadow")
        seed_file(host, blocks=2)
        system_name = naming.resolve_file(NAME)
        old_descriptor = server.block_descriptor(system_name, 1)
        tid = host.tbegin()
        descriptor = host.topen(tid, NAME)
        host.tpwrite(tid, descriptor, b"W" * BLOCK_SIZE, BLOCK_SIZE)
        host.tend(tid)
        new_descriptor = server.block_descriptor(system_name, 1)
        assert new_descriptor.address != old_descriptor.address
        assert server.read(system_name, BLOCK_SIZE, 4) == b"WWWW"

    def test_wal_preserves_contiguity_shadow_destroys_it(self):
        """The E9 claim, in miniature."""
        for technique, expect_contiguous in (("wal", True), ("shadow", False)):
            host, server, naming, _, _ = build(technique=technique)
            seed_file(host, blocks=4)
            system_name = naming.resolve_file(NAME)
            tid = host.tbegin()
            descriptor = host.topen(tid, NAME)
            host.tpwrite(tid, descriptor, b"U" * BLOCK_SIZE, BLOCK_SIZE)
            host.tend(tid)
            first = server.block_descriptor(system_name, 0)
            assert (first.count >= 4) == expect_contiguous


class TestIntentionRecords:
    @staticmethod
    def a_list():
        from repro.common.ids import SystemName
        from repro.disk_service.addresses import Extent

        common = dict(name=SystemName(1, 55, 3), technique=Technique.WAL)
        return IntentionList(
            tid=9,
            status=TransactionStatus.TENTATIVE,
            records=(
                IntentionRecord(
                    sequence=1, level=LockingLevel.RECORD, lo=17, length=5,
                    data=b"a\n\x00\xffb", **common,
                ),
                IntentionRecord(
                    sequence=2, level=LockingLevel.PAGE, lo=8192, length=4096,
                    extent=Extent(700, 4), block_index=1,
                    name=SystemName(1, 55, 3), technique=Technique.SHADOW,
                ),
                IntentionRecord(
                    sequence=3, level=LockingLevel.RECORD, lo=40, length=2,
                    data=b"{}", **common,
                ),
            ),
            deletes=(SystemName(1, 90, 4),),
        )

    def test_codec_round_trip(self):
        intentions = self.a_list()
        assert IntentionList.from_bytes(intentions.to_bytes()) == intentions

    def test_inline_bytes_are_framed_raw(self):
        """Verbatim after the JSON line, in record order: a byte costs a byte."""
        assert self.a_list().to_bytes().endswith(b"\na\n\x00\xffb{}")

    def test_a_record_has_exactly_one_carrier(self):
        from repro.disk_service.addresses import Extent

        record = self.a_list().records[0]
        fields = dict(
            sequence=1, name=record.name, level=record.level, lo=0, length=1,
            technique=Technique.WAL,
        )
        with pytest.raises(TransactionError):
            IntentionRecord(**fields)
        with pytest.raises(TransactionError):
            IntentionRecord(**fields, extent=Extent(8, 1), data=b"x")

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda blob: b"not json",
            lambda blob: b"\xff\xfe" + blob,
            lambda blob: b"[1, 2]",
            lambda blob: blob.replace(b'"inline":5,', b""),  # no carrier
            lambda blob: blob.replace(  # both carriers
                b'"inline":5,', b'"inline":5,"extent":[8,1],'
            ),
            lambda blob: blob.replace(b'"seq":3', b'"sequence":3'),
            lambda blob: blob.replace(b'"level":"PAGE"', b'"level":"WORD"'),
            lambda blob: blob[:-1],  # inline bytes cut short
            lambda blob: blob + b"x",  # inline bytes nobody claims
        ],
    )
    def test_a_blob_that_does_not_decode_raises_a_transaction_error(self, mangle):
        blob = mangle(self.a_list().to_bytes())
        with pytest.raises(TransactionError):
            IntentionList.from_bytes(blob)

    def test_committed_transaction_leaves_no_intentions(self):
        host, server, naming, coordinator, _ = build()
        seed_file(host)
        tid = host.tbegin()
        descriptor = host.topen(tid, NAME)
        host.tpwrite(tid, descriptor, b"z", 0)
        host.tend(tid)
        stable = server.disk.stable
        assert not [key for key in stable.keys() if key.startswith("intentions:")]

    def test_abort_frees_tentative_space(self):
        host, server, naming, coordinator, _ = build()
        seed_file(host)
        free_before = server.disk.free_fragments
        tid = host.tbegin()
        descriptor = host.topen(tid, NAME)
        host.tpwrite(tid, descriptor, b"will abort", 0)
        host.tabort(tid)
        assert server.disk.free_fragments == free_before


class TestCrashAtomicity:
    @pytest.mark.parametrize("crash_at_write", range(1, 10))
    def test_every_crash_point_is_all_or_nothing(self, crash_at_write):
        """Crash the data disk at the k-th write during commit: after
        recovery the file holds entirely-old or entirely-new data."""
        host, server, naming, coordinator, _ = build()
        seed_file(host, blocks=2)
        system_name = naming.resolve_file(NAME)
        tid = host.tbegin()
        descriptor = host.topen(tid, NAME)
        host.tpwrite(tid, descriptor, b"N" * (2 * BLOCK_SIZE), 0)
        server.disk.disk.faults.crash_after_writes(crash_at_write)
        try:
            host.tend(tid)
        except DiskCrashedError:
            pass
        server.disk.disk.repair()
        coordinator.recover_volume(0)
        content = server.read(system_name, 0, 2 * BLOCK_SIZE)
        assert content in (b"O" * (2 * BLOCK_SIZE), b"N" * (2 * BLOCK_SIZE))

    @pytest.mark.parametrize("crash_at_write", range(1, 8))
    def test_stable_mirror_crash_during_commit(self, crash_at_write):
        """Crash stable mirror A during commit; atomicity must survive
        via the careful-write discipline."""
        host, server, naming, coordinator, _ = build()
        seed_file(host, blocks=1)
        system_name = naming.resolve_file(NAME)
        tid = host.tbegin()
        descriptor = host.topen(tid, NAME)
        host.tpwrite(tid, descriptor, b"N" * BLOCK_SIZE, 0)
        server.disk.stable.mirror_a.faults.crash_after_writes(crash_at_write)
        try:
            host.tend(tid)
        except DiskCrashedError:
            pass
        server.disk.stable.mirror_a.repair()
        server.disk.stable.recover()
        coordinator.recover_volume(0)
        content = server.read(system_name, 0, BLOCK_SIZE)
        assert content in (b"O" * BLOCK_SIZE, b"N" * BLOCK_SIZE)

    def test_recovery_is_idempotent(self):
        host, server, naming, coordinator, _ = build()
        seed_file(host, blocks=1)
        system_name = naming.resolve_file(NAME)
        tid = host.tbegin()
        descriptor = host.topen(tid, NAME)
        host.tpwrite(tid, descriptor, b"N" * BLOCK_SIZE, 0)
        server.disk.disk.faults.crash_after_writes(2)
        try:
            host.tend(tid)
        except DiskCrashedError:
            pass
        server.disk.disk.repair()
        coordinator.recover_volume(0)
        first = server.read(system_name, 0, BLOCK_SIZE)
        coordinator.recover_volume(0)  # run recovery again
        assert server.read(system_name, 0, BLOCK_SIZE) == first

    def test_crash_before_commit_point_aborts(self):
        """A crash before the intention flag flips leaves the old data."""
        host, server, naming, coordinator, _ = build()
        seed_file(host, blocks=1)
        system_name = naming.resolve_file(NAME)
        tid = host.tbegin()
        descriptor = host.topen(tid, NAME)
        host.tpwrite(tid, descriptor, b"N" * BLOCK_SIZE, 0)
        # Crash the stable store before any flag write can land.
        server.disk.stable.mirror_a.faults.crash_after_writes(1)
        server.disk.stable.mirror_b.crash()
        with pytest.raises(Exception):
            host.tend(tid)
        server.disk.stable.mirror_a.repair()
        server.disk.stable.mirror_b.repair()
        server.disk.stable.recover()
        coordinator.recover_volume(0)
        assert server.read(system_name, 0, BLOCK_SIZE) == b"O" * BLOCK_SIZE
