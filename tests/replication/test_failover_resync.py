"""Failure routing: transient vs permanent faults, orphans, auto-repair."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import DiskError
from repro.common.metrics import Metrics
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService
from repro.recovery.health import HealthRegistry, HealthState
from repro.replication.service import ReplicationService, volume_component
from tests.conftest import build_file_server

NAME = AttributedName.file("/replicated/data")


class _Flaky:
    """Delegates to a real file server, failing the next N operations
    with a transient (non-crash) disk error."""

    def __init__(self, server):
        self._server = server
        self.failures_left = 0

    def __getattr__(self, attr):
        real = getattr(self._server, attr)
        if not callable(real):
            return real

        def guarded(*args, **kwargs):
            if self.failures_left > 0:
                self.failures_left -= 1
                raise DiskError("transient sector hiccup (injected)")
            return real(*args, **kwargs)

        return guarded


def build(n_volumes=3, degree=3, *, tolerance=3, transient_retries=1):
    clock, metrics = SimClock(), Metrics()
    servers = {
        volume: build_file_server(clock, metrics, volume_id=volume)
        for volume in range(n_volumes)
    }
    flaky = {volume: _Flaky(server) for volume, server in servers.items()}
    health = HealthRegistry(metrics, transient_tolerance=tolerance)
    service = ReplicationService(
        NamingService(metrics),
        flaky,
        clock,
        metrics,
        default_degree=degree,
        health=health,
        transient_retries=transient_retries,
    )
    return service, servers, flaky, health, metrics


class TestTransientFaults:
    def test_transient_read_error_is_retried_in_place(self):
        service, _, flaky, health, metrics = build(transient_retries=1)
        service.create(NAME)
        service.write(NAME, 0, b"steady")
        flaky[0].failures_left = 1
        assert service.read(NAME, 0, 6) == b"steady"
        # The retry absorbed the hiccup: no failover, nothing stale.
        assert metrics.get("replication.transient_retries") == 1
        assert metrics.get("replication.failovers") == 0
        assert service.live_replicas(NAME) == 3
        assert health.state(volume_component(0)) is HealthState.UP

    def test_failed_read_fails_over_without_staling(self):
        """Satellite (b): a read failure does not mean missed writes —
        the replica's content is still current, so it must not be
        marked stale."""
        service, _, flaky, health, metrics = build(transient_retries=0)
        service.create(NAME)
        service.write(NAME, 0, b"current")
        flaky[0].failures_left = 1
        assert service.read(NAME, 0, 7) == b"current"
        assert metrics.get("replication.failovers") == 1
        # No staleness, and the volume is merely SUSPECT, not down.
        assert service.live_replicas(NAME) == 3
        assert health.state(volume_component(0)) is HealthState.SUSPECT
        assert service.resync(NAME) == 0

    def test_failed_write_marks_stale(self):
        service, _, flaky, _, _ = build(transient_retries=0)
        service.create(NAME)
        flaky[1].failures_left = 1
        service.write(NAME, 0, b"missed by volume 1")
        assert service.live_replicas(NAME) == 2

    def test_persistent_transient_errors_escalate_to_down(self):
        # Reads, not writes: a failed write stales the replica, and
        # stale replicas are skipped — reads keep probing the volume.
        service, _, flaky, health, _ = build(tolerance=2, transient_retries=0)
        service.create(NAME)
        service.write(NAME, 0, b"x")
        flaky[0].failures_left = 100
        service.read(NAME, 0, 1)  # transient error #1: SUSPECT
        service.read(NAME, 0, 1)  # transient error #2: escalates
        assert health.is_down(volume_component(0))
        # Once down, the volume is skipped, not retried.
        before = flaky[0].failures_left
        service.read(NAME, 0, 1)
        assert flaky[0].failures_left == before

    def test_crash_is_permanent_immediately(self):
        service, servers, _, health, _ = build()
        service.create(NAME)
        service.write(NAME, 0, b"v1")
        servers[0].crash()
        assert service.read(NAME, 0, 2) == b"v1"
        assert health.is_down(volume_component(0))


class TestOrphans:
    def test_delete_records_unreachable_replicas(self):
        """Satellite (a): delete no longer swallows per-replica errors."""
        service, servers, _, _, metrics = build()
        replica_set = service.create(NAME)
        service.write(NAME, 0, b"doomed")
        servers[2].crash()
        service.delete(NAME)
        # The name is gone either way; the unreachable replica is
        # recorded, not forgotten.
        orphans = service.orphans()
        assert [orphan.volume_id for orphan in orphans] == [2]
        assert metrics.get("replication.orphans_recorded") == 1
        for replica in replica_set.replicas[:2]:
            assert not servers[replica.volume_id].exists(replica)

    def test_sweep_reclaims_orphans_after_recovery(self):
        service, servers, _, _, metrics = build()
        service.create(NAME)
        service.write(NAME, 0, b"doomed")
        servers[2].crash()
        service.delete(NAME)
        orphan = service.orphans()[0]
        servers[2].disk.disk.repair()
        servers[2].recover()
        assert service.sweep_orphans() == 1
        assert service.orphans() == []
        assert not servers[2].exists(orphan)
        assert metrics.get("replication.orphans_swept") == 1

    def test_sweep_can_target_one_volume(self):
        service, servers, _, _, _ = build()
        service.create(NAME)
        other = AttributedName.file("/replicated/other")
        service.create(other)
        servers[1].crash()
        servers[2].crash()
        service.delete(NAME)
        service.delete(other)
        assert len(service.orphans()) == 4
        servers[1].disk.disk.repair()
        servers[1].recover()
        assert service.sweep_orphans(volume_id=1) == 2
        assert {o.volume_id for o in service.orphans()} == {2}

    def test_sweep_keeps_orphans_on_still_down_volumes(self):
        service, servers, _, _, _ = build()
        service.create(NAME)
        service.write(NAME, 0, b"x")
        servers[2].crash()
        service.delete(NAME)
        assert service.sweep_orphans() == 0
        assert len(service.orphans()) == 1

    def test_a_manual_sweep_reclaims_orphans(self):
        """A volume back without a recovery event is swept on demand."""
        service, servers, _, _, _ = build()
        service.create(NAME)
        servers[0].crash()
        service.delete(NAME)
        servers[0].disk.disk.repair()
        servers[0].recover()
        assert service.sweep_orphans() == 1
        assert service.orphans() == []


class TestAutoRepair:
    def test_recovery_event_triggers_resync(self):
        """The tentpole's repair path: a volume coming back resyncs its
        stale replicas without anyone calling resync explicitly."""
        service, servers, _, health, metrics = build()
        service.create(NAME)
        service.write(NAME, 0, b"v1")
        servers[0].crash()
        service.write(NAME, 0, b"v2")
        assert service.live_replicas(NAME) == 2
        servers[0].disk.disk.repair()
        servers[0].recover()
        health.note_recovered(volume_component(0))
        assert service.live_replicas(NAME) == 3
        assert metrics.get("replication.resyncs_verified") == 1
        # Force a read from the repaired replica: others crash.
        servers[1].crash()
        servers[2].crash()
        assert service.read(NAME, 0, 2) == b"v2"

    def test_recovery_event_sweeps_orphans_too(self):
        service, servers, _, health, _ = build()
        service.create(NAME)
        servers[0].crash()
        service.delete(NAME)
        assert len(service.orphans()) == 1
        servers[0].disk.disk.repair()
        servers[0].recover()
        health.note_recovered(volume_component(0))
        assert service.orphans() == []

    def test_resync_deferred_while_primary_down_then_converges(self):
        service, servers, _, health, metrics = build(n_volumes=2, degree=2)
        service.create(NAME)
        service.write(NAME, 0, b"v1")
        servers[0].crash()
        service.write(NAME, 0, b"v2")  # volume 0 stale; 1 is primary source
        servers[1].flush()  # FIT metadata is write-back: persist it
        servers[1].crash()
        # Volume 0 restarts first — but the only fresh copy (volume 1)
        # is down, so the resync defers instead of corrupting.
        servers[0].disk.disk.repair()
        servers[0].recover()
        health.note_recovered(volume_component(0))
        assert metrics.get("replication.resync_deferrals") >= 1
        assert service.live_replicas(NAME) < 2
        # Volume 1 returns: now the repair converges.
        servers[1].disk.disk.repair()
        servers[1].recover()
        health.note_recovered(volume_component(1))
        assert service.live_replicas(NAME) == 2
        # The repaired replica (volume 0) really holds the missed write.
        servers[1].crash()
        assert service.read(NAME, 0, 2) == b"v2"
