"""The record log: one base plus one epoch-stamped, fixed-size tail."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import DiskError, StableKeyError
from repro.common.metrics import Metrics
from repro.simdisk.record_log import TAIL_BYTES, RecordLog
from tests.conftest import build_stable


@pytest.fixture
def log():
    return RecordLog(build_stable(SimClock(), Metrics()), "things")


def reopened(log):
    """The same records, as a restarted machine finds them."""
    log.store.rebuild_directory()
    return RecordLog(log.store, "things")


class TestRoundTrip:
    def test_a_base_and_its_deltas_come_back_in_order(self, log):
        log.checkpoint(b"base")
        assert log.append(b"one")
        assert log.append(b"")
        assert log.append(b"three")
        assert reopened(log).load() == (b"base", [b"one", b"", b"three"])

    def test_a_base_alone_loads_with_no_deltas(self, log):
        log.checkpoint(b"base")
        assert reopened(log).load() == (b"base", [])

    def test_a_loaded_log_appends_to_the_tail_it_found(self, log):
        log.checkpoint(b"base")
        log.append(b"one")
        again = reopened(log)
        again.load()
        again.append(b"two")
        assert reopened(log).load() == (b"base", [b"one", b"two"])

    def test_the_tail_is_one_record_of_three_sectors_rewritten_in_place(self, log):
        log.checkpoint(b"base")
        mirror = log.store.mirror_a
        for delta in (b"a", b"b" * 300, b"c" * 500):
            writes = mirror.metrics.get("disk.0.stable_a.writes")
            sectors = mirror.metrics.get("disk.0.stable_a.sectors_written")
            log.append(delta)
            assert mirror.metrics.get("disk.0.stable_a.writes") == writes + 1
            assert mirror.metrics.get("disk.0.stable_a.sectors_written") == sectors + 3
        assert sorted(log.store.keys()) == ["things", "things.tail"]


class TestAFullTailForcesARebase:
    def test_an_append_that_does_not_fit_is_refused_and_writes_nothing(self, log):
        log.checkpoint(b"base")
        assert log.append(b"x" * (TAIL_BYTES - 100))
        writes = log.store.mirror_a.metrics.get("disk.0.stable_a.writes")
        assert not log.append(b"y" * 100)
        assert log.store.mirror_a.metrics.get("disk.0.stable_a.writes") == writes
        assert not log.append(b"z" * TAIL_BYTES * 80)  # larger than any tail

    def test_a_rebase_empties_the_tail(self, log):
        log.checkpoint(b"base")
        log.append(b"x" * (TAIL_BYTES - 100))
        log.checkpoint(b"rebased")
        assert log.append(b"y" * 100)
        assert reopened(log).load() == (b"rebased", [b"y" * 100])

    def test_the_stale_tail_a_rebase_leaves_is_not_applied(self, log):
        log.checkpoint(b"base")
        log.append(b"old")
        log.checkpoint(b"rebased")
        assert "things.tail" in log.store  # still on disk, one epoch behind
        assert reopened(log).load() == (b"rebased", [])

    def test_two_rebases_in_a_row_still_leave_the_tail_stale(self, log):
        log.checkpoint(b"base")
        log.append(b"old")
        log.checkpoint(b"second")
        log.checkpoint(b"third")
        assert reopened(log).load() == (b"third", [])


class TestATailIsNeverReadAsAnEmptyStructure:
    def test_nothing_written_is_a_missing_key(self, log):
        with pytest.raises(StableKeyError):
            log.load()
        assert not log.has_base

    def test_a_tail_with_no_base_raises(self, log):
        log.checkpoint(b"base")
        log.append(b"one")
        log.store.delete("things")
        with pytest.raises(DiskError) as raised:
            reopened(log).load()
        assert not isinstance(raised.value, KeyError)

    def test_a_tail_ahead_of_its_base_raises(self, log):
        log.checkpoint(b"base")
        first_base = log.store.get("things")
        log.checkpoint(b"rebased")
        log.append(b"new")
        log.store.put("things", first_base)  # the base rolled back
        with pytest.raises(DiskError) as raised:
            reopened(log).load()
        assert not isinstance(raised.value, KeyError)

    def test_an_append_before_any_base_raises(self, log):
        with pytest.raises(DiskError):
            log.append(b"one")


class TestTheBrokenRecoveryTwin:
    def test_ignoring_epochs_applies_a_stale_tail(self, log):
        log.checkpoint(b"base")
        log.append(b"old")
        log.checkpoint(b"rebased")
        broken = reopened(log)
        broken.unsafe_ignore_epochs = True
        assert broken.load() == (b"rebased", [b"old"])
