"""Primary-copy replication over the basic file service.

A replicated file is a set of ordinary files, one per volume; the
first live replica is the primary.  Reads go to the primary only
(read-one); writes go to every live replica (write-all), so any single
replica can serve a consistent read.  A crashed volume's replicas are
marked stale and resynchronised from the primary when the volume
recovers.

The replica set is recorded in the naming service as attributes of the
file's name, so replication survives naming-database persistence and
needs no extra metadata store.

Failure handling routes through a
:class:`~repro.recovery.health.HealthRegistry`:

* **transient vs permanent** — a ``DiskCrashedError`` is permanent; any
  other disk/file-service error is retried in place
  (``transient_retries``) and only escalates through the registry's
  tolerance rule.  A single torn-sector hiccup therefore no longer
  triggers a permanent failover.
* **staleness means content divergence** — a replica that missed (or
  may have missed) a write is marked stale; so is one whose read
  failed with a :class:`~repro.common.errors.MediaError` (checksum
  mismatch or latent sector error — its bytes are *wrong*, not merely
  unreachable).  Any other failed read fails over without staleness,
  because the replica's content is still current.
* **auto-repair** — the service subscribes to recovery events: when a
  volume comes back, every replica set with stale members is
  resynchronised and orphaned replicas from failed deletes are swept.
  Resynced content is read back and verified byte-identical
  (``replication.resyncs_verified``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.clock import SimClock
from repro.common.errors import (
    DiskCrashedError,
    DiskError,
    FileServiceError,
    MediaError,
    ReplicationError,
)
from repro.common.frames import fan_out
from repro.common.ids import SystemName, decode_system_names, encode_system_names
from repro.common.metrics import Metrics
from repro.common.weak import weak_method
from repro.file_service.attributes import FileAttributes
from repro.file_service.server import FileServer
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService
from repro.recovery.health import HealthRegistry

#: Exceptions a single replica operation may fail with.
_REPLICA_ERRORS = (DiskError, DiskCrashedError, FileServiceError)


def volume_component(volume_id: int) -> str:
    """The health-registry component name of one volume's servers."""
    return f"volume.{volume_id}"


def component_volume(component: str) -> Optional[int]:
    """Inverse of :func:`volume_component` (None for other components)."""
    prefix = "volume."
    if component.startswith(prefix) and component[len(prefix):].isdigit():
        return int(component[len(prefix):])
    return None


@dataclass
class ReplicaSet:
    """The live view of one replicated file."""

    name: AttributedName
    replicas: List[SystemName]
    stale: set[int] = field(default_factory=set)  # volume ids needing resync

    @property
    def degree(self) -> int:
        return len(self.replicas)


class ReplicationService:
    """Replicated create/read/write/delete with failover and resync.

    Args:
        health: the shared failure detector; a private one is built
            when the service runs stand-alone.  The service registers
            itself for recovery events either way, so restarting a
            volume automatically resynchronises its replicas.
        transient_retries: in-place retries of a replica operation that
            failed with a non-crash error before giving up on it.
    """

    def __init__(
        self,
        naming: NamingService,
        servers: Dict[int, FileServer],
        clock: SimClock,
        metrics: Metrics,
        *,
        default_degree: int = 2,
        health: Optional[HealthRegistry] = None,
        transient_retries: int = 1,
    ) -> None:
        if default_degree < 1:
            raise ReplicationError("replication degree must be >= 1")
        if transient_retries < 0:
            raise ReplicationError("transient retries cannot be negative")
        self.naming = naming
        self.servers = dict(servers)
        self.clock = clock
        self.metrics = metrics
        self.default_degree = default_degree
        self.health = health or HealthRegistry(metrics)
        self.transient_retries = transient_retries
        self._sets: Dict[AttributedName, ReplicaSet] = {}
        #: Replicas whose delete failed (e.g. their volume was down):
        #: tracked so the space is reclaimed by a later sweep instead of
        #: leaking forever once the name is unbound.
        self._orphans: List[SystemName] = []
        self.health.on_recovery(weak_method(self._on_component_recovered))

    # -------------------------------------------------------- create

    def create(
        self, name: AttributedName, *, degree: Optional[int] = None
    ) -> ReplicaSet:
        """Create a file replicated on ``degree`` distinct volumes."""
        degree = degree or self.default_degree
        volumes = sorted(self.servers)
        if degree > len(volumes):
            raise ReplicationError(
                f"degree {degree} exceeds the {len(volumes)} available volumes"
            )
        replicas = [self.servers[volume].create() for volume in volumes[:degree]]
        bound = name.with_attributes(replicas=encode_system_names(replicas))
        self.naming.bind(bound, replicas[0])
        replica_set = ReplicaSet(name=bound, replicas=replicas)
        self._sets[name] = replica_set
        self._sets[bound] = replica_set
        self.metrics.add("replication.creates")
        return replica_set

    def lookup(self, name: AttributedName) -> ReplicaSet:
        replica_set = self._sets.get(name)
        if replica_set is not None:
            return replica_set
        # Rebuild from the naming service (e.g. after restart).
        for bound, target in self.naming.lookup(name):
            encoded = bound.get("replicas")
            if encoded is None:
                continue
            replica_set = ReplicaSet(name=bound, replicas=decode_system_names(encoded))
            self._sets[name] = replica_set
            self._sets[bound] = replica_set
            return replica_set
        raise ReplicationError(f"{name} is not a replicated file")

    # ------------------------------------------------------------ io

    def read(self, name: AttributedName, offset: int, n_bytes: int) -> bytes:
        """Read-one: the first live replica serves the read.

        A failed read fails over without marking the replica stale (its
        content is still current); the health registry decides whether
        the failure counts against the volume.
        """
        replica_set = self.lookup(name)
        last_error: Optional[Exception] = None
        degraded = False
        for system_name in replica_set.replicas:
            volume_id = system_name.volume_id
            if volume_id in replica_set.stale:
                degraded = True
                continue
            if self.health.is_down(volume_component(volume_id)):
                self.metrics.add("replication.reads_skipped_down")
                degraded = True
                continue
            server = self.servers[volume_id]
            try:
                data = self._attempt(
                    lambda: server.read(system_name, offset, n_bytes)
                )
            except _REPLICA_ERRORS as exc:
                last_error = exc
                self._note_replica_error(volume_id, exc)
                if isinstance(exc, MediaError) and self._has_clean_peer(
                    replica_set, volume_id
                ):
                    # Rot: this replica's bytes are wrong, so it has
                    # diverged — stale until resync repairs it from a
                    # clean peer (never quarantine the last one).
                    replica_set.stale.add(volume_id)
                    self.metrics.add("replication.media_quarantines")
                self.metrics.add("replication.failovers")
                degraded = True
                continue
            self.health.note_ok(volume_component(volume_id))
            self.metrics.add("replication.reads")
            if degraded:
                self.metrics.add("replication.reads_degraded")
            return data
        raise ReplicationError(
            f"no live replica of {name} could serve the read"
        ) from last_error

    def write(self, name: AttributedName, offset: int, data: bytes) -> int:
        """Write-all: every live replica applies the write.

        A replica that fails (or is skipped because its volume is down)
        missed the write and is marked stale — staleness tracks content
        divergence, so here it is unavoidable; resync repairs it.  The
        write succeeds as long as one replica applies it.

        The replica writes are the branches of one :func:`fan_out`:
        each replays from the fork point and the exit joins at the
        slowest, so a write-all across N volumes costs the max of the
        replica services, not the sum (the volumes' disks work in
        parallel).  The rule is the RAID tier's: a blocking caller
        waits for exactly that max, and a caller already inside a frame
        (a pipeline, the concurrent driver) is charged it on its own
        cursor.
        """
        replica_set = self.lookup(name)
        applied = 0
        with fan_out(self.clock) as fork:
            for system_name in replica_set.replicas:
                volume_id = system_name.volume_id
                if volume_id in replica_set.stale:
                    continue
                if self.health.is_down(volume_component(volume_id)):
                    replica_set.stale.add(volume_id)
                    self.metrics.add("replication.writes_skipped_down")
                    self.metrics.add("replication.failovers")
                    continue
                server = self.servers[volume_id]
                try:
                    with fork.branch():
                        self._attempt(lambda: server.write(system_name, offset, data))
                except _REPLICA_ERRORS as exc:
                    self._note_replica_error(volume_id, exc)
                    replica_set.stale.add(volume_id)
                    self.metrics.add("replication.failovers")
                    continue
                self.health.note_ok(volume_component(volume_id))
                applied += 1
        if applied == 0:
            raise ReplicationError(f"no live replica of {name} accepted the write")
        self.metrics.add("replication.writes")
        self.metrics.add("replication.replica_writes", applied)
        return len(data)

    def get_attribute(self, name: AttributedName) -> FileAttributes:
        replica_set = self.lookup(name)
        for system_name in replica_set.replicas:
            volume_id = system_name.volume_id
            if volume_id in replica_set.stale:
                continue
            if self.health.is_down(volume_component(volume_id)):
                continue
            try:
                attributes = self._attempt(
                    lambda: self.servers[volume_id].get_attribute(system_name)
                )
            except _REPLICA_ERRORS as exc:
                self._note_replica_error(volume_id, exc)
                continue
            self.health.note_ok(volume_component(volume_id))
            return attributes
        raise ReplicationError(f"no live replica of {name}")

    def delete(self, name: AttributedName) -> None:
        """Delete every replica; unreachable replicas become orphans.

        The name is unbound regardless, so a replica whose volume was
        down at delete time would otherwise leak forever — it is
        recorded instead and reclaimed by :meth:`sweep_orphans` when
        its volume recovers (or by an fsck run).
        """
        replica_set = self.lookup(name)
        for system_name in replica_set.replicas:
            try:
                self.servers[system_name.volume_id].delete(system_name)
            except _REPLICA_ERRORS as exc:
                self._note_replica_error(system_name.volume_id, exc)
                self._orphans.append(system_name)
                self.metrics.add("replication.orphans_recorded")
        self.naming.unbind(replica_set.name)
        self._sets.pop(name, None)
        self._sets.pop(replica_set.name, None)
        self.metrics.add("replication.deletes")

    # -------------------------------------------------------- repair

    def live_replicas(self, name: AttributedName) -> int:
        """Replicas that are neither stale nor on a down volume."""
        replica_set = self.lookup(name)
        return sum(
            1
            for system_name in replica_set.replicas
            if system_name.volume_id not in replica_set.stale
            and not self.health.is_down(volume_component(system_name.volume_id))
        )

    def orphans(self) -> List[SystemName]:
        """Replicas leaked by failed deletes, still awaiting a sweep."""
        return list(self._orphans)

    def sweep_orphans(self, volume_id: Optional[int] = None) -> int:
        """Retry deleting orphaned replicas; returns how many went away.

        An orphan whose file no longer exists counts as swept (an fsck
        or a reformat got there first).  Orphans whose volume is still
        failing stay recorded for the next sweep.
        """
        swept = 0
        remaining: List[SystemName] = []
        for system_name in self._orphans:
            if volume_id is not None and system_name.volume_id != volume_id:
                remaining.append(system_name)
                continue
            server = self.servers.get(system_name.volume_id)
            try:
                if server is not None and server.exists(system_name):
                    server.delete(system_name)
            except _REPLICA_ERRORS:
                remaining.append(system_name)
                continue
            swept += 1
            self.metrics.add("replication.orphans_swept")
        self._orphans = remaining
        return swept

    def quarantine_volume_media(self, volume_id: int) -> int:
        """Quarantine a media-damaged volume's replicas, repair from peers.

        The scrubber's repair-from-replica hook: when a volume's
        scrubber reports corruption it cannot repair locally (the data
        had no stable-storage mirror), every replica set with a member
        on that volume is marked stale and immediately resynchronised
        from a clean peer — the replica's *content* is suspect even
        where reads still succeed, because rot may sit in blocks the
        finding did not name.  Sets with no clean live peer are left
        alone (quarantining the last copy would make them unreadable)
        and counted in ``replication.quarantine_deferrals``.

        Returns the number of replicas repaired by the resync.
        """
        quarantined = 0
        visited: set[int] = set()
        for replica_set in list(self._sets.values()):
            if id(replica_set) in visited:
                continue
            visited.add(id(replica_set))
            on_volume = any(
                system_name.volume_id == volume_id
                for system_name in replica_set.replicas
            )
            if not on_volume or volume_id in replica_set.stale:
                continue
            if not self._has_clean_peer(replica_set, volume_id):
                self.metrics.add("replication.quarantine_deferrals")
                continue
            replica_set.stale.add(volume_id)
            quarantined += 1
            self.metrics.add("replication.media_quarantines")
        if quarantined == 0:
            return 0
        return self.resync_all_stale()

    def resync(self, name: AttributedName) -> int:
        """Copy the primary's content onto every stale replica.

        Call after the crashed volume's file server has recovered (the
        recovery-event path does this automatically).  Each repaired
        replica is read back and verified byte-identical before its
        staleness clears.  Returns the number of replicas repaired.
        """
        replica_set = self.lookup(name)
        if not replica_set.stale:
            return 0
        primary: Optional[SystemName] = None
        for system_name in replica_set.replicas:
            if system_name.volume_id not in replica_set.stale:
                primary = system_name
                break
        if primary is None:
            raise ReplicationError(f"{name}: every replica is stale")
        source = self.servers[primary.volume_id]
        size = source.get_attribute(primary).file_size
        content = source.read(primary, 0, size)
        repaired = 0
        for system_name in list(replica_set.replicas):
            if system_name.volume_id not in replica_set.stale:
                continue
            server = self.servers[system_name.volume_id]
            try:
                if not server.exists(system_name):
                    fresh = server.create()
                    replica_set.replicas[
                        replica_set.replicas.index(system_name)
                    ] = fresh
                    system_name = fresh
                if content:
                    try:
                        server.write(system_name, 0, content)
                    except MediaError:
                        # The replica's own blocks are rotten or
                        # unreadable: a sub-block overwrite read-
                        # modify-writes through them and trips the
                        # very corruption being repaired.  Rebuild the
                        # replica from scratch instead of converging
                        # never.
                        server.delete(system_name)
                        fresh = server.create()
                        replica_set.replicas[
                            replica_set.replicas.index(system_name)
                        ] = fresh
                        system_name = fresh
                        server.write(system_name, 0, content)
                        self.metrics.add("replication.resync_rebuilds")
                if server.read(system_name, 0, size) != content:
                    self.metrics.add("replication.resync_mismatches")
                    continue  # stays stale; a later resync retries
                self.metrics.add("replication.resyncs_verified")
                replica_set.stale.discard(system_name.volume_id)
                self.health.note_ok(volume_component(system_name.volume_id))
                repaired += 1
                self.metrics.add("replication.resyncs")
            except _REPLICA_ERRORS as exc:
                self._note_replica_error(system_name.volume_id, exc)
                continue
        # Refresh the replica list recorded in the naming service.
        refreshed = replica_set.name.with_attributes(
            replicas=encode_system_names(replica_set.replicas)
        )
        self.naming.unbind(replica_set.name)
        self.naming.bind(refreshed, replica_set.replicas[0])
        self._sets.pop(replica_set.name, None)
        replica_set.name = refreshed
        self._sets[refreshed] = replica_set
        return repaired

    def resync_all_stale(self) -> int:
        """Resync every known replica set with stale members.

        Sets whose primary is still unreachable are deferred (counted
        in ``replication.resync_deferrals``) and retried on the next
        recovery event, so repeated partial failures still converge.
        Returns the total number of replicas repaired.
        """
        repaired = 0
        visited: set[int] = set()
        for replica_set in list(self._sets.values()):
            if id(replica_set) in visited:
                continue
            visited.add(id(replica_set))
            if not replica_set.stale:
                continue
            try:
                repaired += self.resync(replica_set.name)
            except (ReplicationError, *_REPLICA_ERRORS):
                self.metrics.add("replication.resync_deferrals")
        return repaired

    # ------------------------------------------------------ internal

    def _attempt(self, operation: Callable[[], object]):
        """Run one replica operation, absorbing transient hiccups.

        A crashed volume fails immediately (retrying cannot help); any
        other facility error is retried ``transient_retries`` times in
        place before the failure escapes to the failover logic.
        """
        retries = self.transient_retries
        while True:
            try:
                return operation()
            except DiskCrashedError:
                raise
            except (DiskError, FileServiceError):
                if retries <= 0:
                    raise
                retries -= 1
                self.metrics.add("replication.transient_retries")

    def _has_clean_peer(self, replica_set: ReplicaSet, volume_id: int) -> bool:
        """Whether another replica is neither stale nor on a down volume."""
        return any(
            system_name.volume_id != volume_id
            and system_name.volume_id not in replica_set.stale
            and not self.health.is_down(volume_component(system_name.volume_id))
            for system_name in replica_set.replicas
        )

    def _note_replica_error(self, volume_id: int, exc: Exception) -> bool:
        """Feed one replica failure to the detector; True = permanent."""
        return self.health.note_error(
            volume_component(volume_id),
            permanent=isinstance(exc, DiskCrashedError),
        )

    def _on_component_recovered(self, component: str) -> None:
        """Recovery event: sweep the volume's orphans, repair staleness.

        Every stale set is attempted — not only those stale on the
        recovered volume — because the blocker may have been the
        *primary* being down while other replicas went stale.
        """
        volume_id = component_volume(component)
        if volume_id is None or volume_id not in self.servers:
            return
        self.sweep_orphans(volume_id)
        self.resync_all_stale()
