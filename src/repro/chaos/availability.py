"""The availability campaign: ``python -m repro.chaos.availability``.

The crash-point sweep (:mod:`repro.chaos.sweep`) proves a single
volume recovers from a crash at *any* physical write.  This campaign
proves the complementary claim: the assembled facility stays **usable
while volumes crash and recover mid-workload** — the paper's
"operational in the face of various failures" promise, measured.

Each scenario builds a full :class:`~repro.cluster.system.RhodosCluster`
(three volumes, replication degree two, RPC bus with fault injection,
exponential backoff, circuit breaker feeding the health registry) and
runs a seeded mixed read/write workload while a
:class:`~repro.recovery.schedule.FailureSchedule` takes volumes down
and brings them back.  Three SLO invariants are asserted:

* **durability** — no acknowledged write is ever lost: after the last
  restart, every replica and the unreplicated bus-served file hold
  exactly the acknowledged content.  (Crashes land *between*
  operations — the single-threaded scheduler cannot crash inside a
  physical write — so this is op-granularity atomicity; sub-write
  torn-crash coverage belongs to the crash-point sweep.)
* **freshness** — reads are monotone and never stale: a replicated
  read always observes at least the last acknowledged version, and
  observed versions never go backwards (no stale-then-fresh-then-stale
  oscillation during failover or resync).
* **bounded unavailability** — every failed operation falls inside a
  scheduled downtime window extended by a *parametric* recovery
  allowance computed from the breaker cooldown, the worst-case failing
  call (breaker threshold x (timeout + max backoff)), and bus latency.
  Unavailability is bounded by configuration, not by luck.

Two further scenarios (``scrub_latent_rot``, ``scrub_media_errors``)
measure the media-failure SLOs instead of crash windows: deterministic
corruption is injected into one volume's checksummed fragments and the
background scrubber must find and repair **100 %** of it within a
bounded number of cycles — from the stable-storage mirror where one
exists, else from a peer replica via
:meth:`~repro.replication.service.ReplicationService.quarantine_volume_media`
— while **no corrupt byte ever reaches a client or the track cache**
(every read during the campaign is byte-checked).

The RAID scenarios (``raid_member_loss``, ``raid_rebuild_interrupted``)
measure the redundancy tier *below* volume replication: a volume whose
data disk is a RAID-5 :class:`~repro.simdisk.raid.StripedVolume` loses
member drives mid-workload via scripted
:class:`~repro.recovery.schedule.Outage` entries.  Unlike a
volume crash there is **no downtime window at all** — the SLOs are that
every operation succeeds throughout (reads never unavailable, zero
acked-write loss), the array walks OPTIMAL → DEGRADED → REBUILDING →
OPTIMAL, and losing the rebuild target mid-rebuild degrades again
rather than failing.  A destructive finale then exhausts redundancy on
purpose: with two members dead the array must report FAILED and *every*
read must raise — stale or reconstructed-from-garbage bytes are the one
unforgivable outcome.

Reports are byte-deterministic: the same seed emits the identical JSON
document, which CI diffs across a double run.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.errors import MediaError, ReplicationError, RhodosError, RpcError
from repro.common.units import BLOCK_SIZE
from repro.disk_service.addresses import Extent
from repro.disk_service.scrub import Scrubber, ScrubFinding
from repro.file_service.cache import WritePolicy
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService
from repro.recovery.schedule import FailureSchedule, Outage
from repro.replication.service import volume_component
from repro.rpc.bus import FaultProfile
from repro.rpc.retry import BackoffPolicy, BreakerPolicy
from repro.simdisk.geometry import DiskGeometry
from repro.simdisk.raid import ArrayFailedError, ArrayState
from repro.verify.fsck import verify_checksums

#: Fixed payload sizes keep every write the same shape, so version
#: content is a pure function of the version number (idempotent
#: retries) and replica comparison is byte-exact.
REPLICATED_LEN = 96
AGENT_LEN = 64

BACKOFF = BackoffPolicy(base_us=5_000, multiplier=2.0, max_us=40_000, jitter=0.5)
BREAKER = BreakerPolicy(threshold=4, cooldown_us=150_000)

#: What a replicated operation may legitimately raise while a volume
#: is down; anything else propagates as a harness crash.
REPLICATED_ERRORS = (ReplicationError, RpcError)


def version_content(version: int, length: int) -> bytes:
    """Deterministic content encoding one version (never the zero byte,
    so unwritten regions are distinguishable from any version)."""
    return bytes([version % 251 + 1]) * length


def decode_version(data: bytes, reference: int) -> Optional[int]:
    """Invert :func:`version_content` near a known reference version."""
    if not data:
        return None
    byte = data[0]
    if not 1 <= byte <= 251 or any(b != byte for b in data):
        return None  # torn content: not any whole version
    # The encoding repeats every 251 versions, and versions only move
    # in small steps between reads, so the plausible match is the one
    # nearest the reference: ``ahead`` versions past it, or the one a
    # whole period below that when that is closer (and not negative).
    ahead = (byte - 1 - reference) % 251
    if ahead > 125 and reference + ahead >= 251:
        return reference + ahead - 251
    return reference + ahead


@dataclass(frozen=True)
class Scenario:
    """One cell of the campaign grid: a scenario family x its script.

    Attributes:
        runner: the :class:`_Run` subclass — the scenario family — that
            executes this cell.
        profile: RPC fault injection; ``None`` = direct calls, no bus.
        events: the outage script, fired through one
            :class:`FailureSchedule` whatever the target kinds.
        steps: workload operations (one per think-step).
        smoke: part of the fast ``--smoke`` subset.
        inject: scrub family — ``"rot"`` (at-rest byte flips) or
            ``"media"`` (latent unreadable sectors).
        targets: scrub family — checksummed fragments corrupted on
            volume 0, chosen by the seeded
            :meth:`FaultInjector.pick_targets`.
        max_cycles: scrub family — cycles within which the volume must
            verify clean: the bounded-repair SLO.
        exhaust_finale: RAID family — after the scripted phase
            converges, kill two members on purpose and demand the array
            report FAILED and refuse, loudly, to serve a single byte.
        n_shards: naming shard servers the binding space partitions
            across (1 = the flat namespace).
    """

    name: str
    runner: type
    description: str
    profile: Optional[FaultProfile] = FaultProfile.reliable()
    events: Tuple[Outage, ...] = ()
    steps: int = 0
    think_us: int = 5_000
    seed: int = 0
    smoke: bool = False
    inject: str = ""
    targets: int = 4
    max_cycles: int = 3
    exhaust_finale: bool = False
    n_shards: int = 1


def recovery_allowance_us(scenario: Scenario, timeout_us: int) -> int:
    """The post-restart grace period failures may legally extend into.

    After a restart the breaker may stay open for up to its full
    cooldown (the last re-open can land just before the restart), one
    more call may then fail the slow way (threshold failed attempts,
    each the RPC client's ``timeout_us`` plus the backoff cap), and bus
    latency plus a few think-steps of slack pad the edges.  Everything
    here is a configured constant — the bound is parametric, not
    empirical.
    """
    worst_call_us = BREAKER.threshold * (timeout_us + BACKOFF.max_us)
    return (
        BREAKER.cooldown_us
        + worst_call_us
        + 4 * scenario.profile.latency_us
        + 10 * scenario.think_us
    )


class _Run:
    """One scenario execution: workload, bookkeeping, verdicts.

    Owns what every family needs — the cluster, the outage schedule and
    the seeded rng; the poll → pump-background → think → op loop and its
    run-out; the timed-op wrapper that files an exception as a budgeted
    failure or a violation; the scheduled-window-plus-allowance check;
    the acked-offset file workload; and the report skeleton.  A family
    supplies its cluster ``CONFIG``, its ``op`` mix, its ``converge``
    probes and its ``extras`` report keys.
    """

    #: Cluster settings beyond what the scenario record carries.
    CONFIG: Dict[str, object] = {}
    STATS: Tuple[str, ...] = ()
    COUNTERS: Tuple[str, ...] = ()
    #: How the family words the file workload's two byte-check verdicts.
    FILE_READ_WRONG = FILE_LOST = ""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.cluster = RhodosCluster(
            ClusterConfig(
                fault_profile=scenario.profile,
                n_shards=scenario.n_shards,
                client_cache_blocks=0,
                seed=scenario.seed,
                **self.CONFIG,
            )
        )
        self.schedule = FailureSchedule(
            scenario.events, self.cluster.clock, metrics=self.cluster.metrics
        )
        self.rng = random.Random(scenario.seed)
        self.action_log: List[str] = []
        #: Budgeted failures, (start_us, end_us, kind): legal only
        #: inside a scheduled window plus the recovery allowance.
        self.failures: List[Tuple[int, int, str]] = []
        self.violations: List[str] = []
        self.stats = dict.fromkeys(self.STATS, 0)
        #: The file workload's acknowledged writes: offset -> content.
        self.file_acked: Dict[int, bytes] = {}

    # --------------------------------------------------- family hooks

    def setup(self) -> None:
        """Create the files/bindings the workload runs against."""

    def op(self, step: int) -> None:
        """One workload operation, drawn from the family's mix."""

    def converge(self) -> None:
        """After run-out: finish repairs, then probe the durable state."""

    def extras(self) -> Dict[str, object]:
        """Report keys beyond the skeleton."""
        return {}

    # ------------------------------------------------------- campaign

    def run(self) -> Dict[str, object]:
        self.setup()
        self.workload()
        self.converge()
        extras = self.extras()  # first: its checks may still file violations
        metrics = self.cluster.metrics
        return {
            "counters": {name: metrics.get(name) for name in self.COUNTERS},
            "description": self.scenario.description,
            "seed": self.scenario.seed,
            "status": "pass" if not self.violations else "fail",
            "violations": list(self.violations),
            **extras,
        }

    def workload(self) -> None:
        """Ops under the outage script, then run the script out.

        Every step polls the schedule and advances background work (RAID
        rebuilds) one step before the think time and the op, so repairs
        interleave with foreground traffic.  Run-out fires what is
        left and delivers parked messages, leaving a fully repaired
        system for :meth:`converge`.
        """
        cluster, schedule = self.cluster, self.schedule
        for step in range(self.scenario.steps):
            self.action_log.extend(schedule.poll(cluster))
            cluster.step_rebuilds()
            cluster.clock.advance_us(self.scenario.think_us)
            self.op(step)
        self.action_log.extend(schedule.run_out(cluster))
        if cluster.bus is not None:
            cluster.bus.drain_delayed()

    def attempt(
        self,
        fn: Callable[[], object],
        *,
        budget: Optional[str] = None,
        violation: Optional[Callable[[int, Exception], str]] = None,
        stat: Optional[str] = None,
        catch: Tuple[type, ...] = (RhodosError,),
    ) -> Tuple[bool, object]:
        """Time one operation and file its failure; returns (ok, result).

        An exception in ``catch`` is either a *budgeted failure* —
        ``budget`` labels the sample the window check must cover — or,
        for an operation that must never fail, a *violation* worded by
        ``violation(start_us, exc)``.  ``stat`` names the ops counter a
        failure bumps.
        """
        clock = self.cluster.clock
        start = clock.now_us
        try:
            return True, fn()
        except catch as exc:
            if stat is not None:
                self.stats[stat] += 1
            if budget is not None:
                self.failures.append(
                    (start, clock.now_us, f"{budget}:{type(exc).__name__}")
                )
            else:
                self.violations.append(violation(start, exc))
            return False, None

    @staticmethod
    def must(what: str, slo: str) -> Callable[[int, Exception], str]:
        """Violation wording for an operation whose SLO forbids failure."""
        return lambda start, exc: (
            f"t={start}us {what} failed ({type(exc).__name__}) — {slo}"
        )

    # ------------------------------------------------- window check

    @property
    def rpc_timeout_us(self) -> int:
        """The timeout of the RPC client the cluster actually built."""
        return self.cluster.file_client.timeout_us

    def allowance_us(self) -> int:
        return recovery_allowance_us(self.scenario, self.rpc_timeout_us)

    def out_of_bound(self, what: str, spans: Sequence[Sequence]) -> List[List]:
        """The ``(start, end, ...)`` spans no scheduled window covers.

        A span is covered when it lies inside one scripted outage
        extended by the parametric recovery allowance; any that is not
        is a violation (``what`` names the spans).
        """
        allowance = self.allowance_us()
        outside = [
            list(span)
            for span in spans
            if not any(
                event.at_us <= span[0] and span[1] <= event.up_at_us + allowance
                for event in self.scenario.events
            )
        ]
        if outside:
            self.violations.append(
                f"{what} outside scheduled-downtime bound: {outside}"
            )
        return outside

    # ------------------------------------------------ file workload

    def open_file(self, path: str) -> None:
        """The unreplicated file on volume 0 the file workload drives."""
        self.agent = self.cluster.machine.file_agent
        self.descriptor = self.agent.create(
            AttributedName.file(path), volume_id=0
        )

    def file_write(self, *, slo: str = "", **filing) -> None:
        """Write the next version at its own offset; ack once flushed.

        Distinct per-version offsets make the eventual retry of a write
        that executed server-side (reply lost) idempotent either way.
        ``filing`` budgets a failure (see :meth:`attempt`); otherwise
        it is a violation, ``slo`` naming the promise it broke.
        """
        version = len(self.file_acked)
        offset = version * AGENT_LEN
        content = version_content(version, AGENT_LEN)

        def write() -> None:
            self.agent.pwrite(self.descriptor, content, offset)
            # Ack-then-fsync: the server's FIT (file size) is write-back,
            # so a crash could forget the write's extent without this.
            self.agent.router.flush_volume(0)

        ok, _ = self.attempt(
            write, violation=self.must(f"write v{version}", slo), **filing
        )
        if ok:
            self.file_acked[offset] = content

    def file_read(self, *, slo: str = "", **filing) -> None:
        """Read one acked offset back through the agent; byte-check it."""
        offsets = sorted(self.file_acked)
        offset = offsets[self.rng.randrange(len(offsets))]
        start = self.cluster.clock.now_us
        ok, data = self.attempt(
            lambda: self.agent.pread(self.descriptor, AGENT_LEN, offset),
            violation=self.must(f"read at {offset}", slo),
            **filing,
        )
        if ok and data != self.file_acked[offset]:
            self.violations.append(
                f"t={start}us {self.FILE_READ_WRONG.format(offset=offset)} "
                f"({data[:8]!r}...)"
            )

    def file_read_back(self) -> None:
        """Every acked write, against the *server's durable state*
        directly — the invariant is about what survived the outages,
        not about bus luck during the check itself."""
        name = self.agent.system_name(self.descriptor)
        server = self.cluster.file_servers[name.volume_id]
        for offset in sorted(self.file_acked):
            if server.read(name, offset, AGENT_LEN) != self.file_acked[offset]:
                self.violations.append(self.FILE_LOST.format(offset=offset))

    def check_none_stale(self, paths: Sequence[str], after: str) -> None:
        """No replica of any of ``paths`` may still be marked stale."""
        replication = self.cluster.replication
        for path in paths:
            stale = replication.lookup(AttributedName.file(path)).stale
            if stale:
                self.violations.append(
                    f"{path}: replicas still stale after {after}: "
                    f"{sorted(stale)}"
                )

    def script_report(self) -> Dict[str, object]:
        """The report keys of every family that runs an outage script."""
        return {
            "events": [
                [event.at_us, *event.ids, event.down_us]
                for event in self.scenario.events
            ],
            "lifecycle_log": self.action_log,
            "ops": dict(sorted(self.stats.items())),
        }


class _CrashRun(_Run):
    """Volume crashes under a mixed replicated + bus-served workload.

    Three volumes, replication degree two, a faulty RPC bus with
    backoff and a breaker feeding the health registry.  The
    unreplicated agent file rides the bus on volume 0 (the crashed
    volume) so its traffic exercises breaker + backoff.  SLOs:
    durability, freshness, bounded unavailability (module docstring).
    """

    CONFIG = dict(
        n_disks=3,
        replication_degree=2,
        rpc_backoff=BACKOFF,
        rpc_breaker=BREAKER,
        write_policy=WritePolicy.WRITE_THROUGH,
    )
    STATS = (
        "replicated_reads",
        "replicated_writes",
        "agent_reads",
        "agent_writes",
        "failed_ops",
    )
    COUNTERS = (
        "cluster.volume_failures",
        "cluster.volume_restarts",
        "health.marked_down",
        "health.recoveries",
        "health.transient_errors",
        "recovery.crashes_injected",
        "recovery.restarts_injected",
        "replication.failovers",
        "replication.orphans_recorded",
        "replication.orphans_swept",
        "replication.reads_degraded",
        "replication.reads_skipped_down",
        "replication.resyncs",
        "replication.resyncs_verified",
        "replication.writes_skipped_down",
        "rpc.breaker_closes",
        "rpc.breaker_opens",
        "rpc.breaker_probes",
        "rpc.breaker_rejections",
        "rpc.reordered_executions",
        "rpc.requests_delayed",
        "rpc.retransmissions",
        "transactions.recoveries",
    )
    FILE_READ_WRONG = "agent file: acked content lost at offset {offset}"
    FILE_LOST = "agent file: acked write at offset {offset} lost"
    RFILES = ("/availability/r0", "/availability/r1")

    def setup(self) -> None:
        # Replicated files: path -> acked version, last observed version.
        self.acked: Dict[str, int] = {}
        self.observed: Dict[str, int] = {}
        for path in self.RFILES:
            self.cluster.replication.create(AttributedName.file(path))
            self.acked[path] = self.observed[path] = 0
        self.open_file("/availability/agent")

    def op(self, step: int) -> None:
        choice = self.rng.random()
        path = self.RFILES[step % len(self.RFILES)]
        if choice < 0.30:
            self._replicated_write(path)
        elif choice < 0.60:
            self._replicated_read(path)
        elif choice < 0.80:
            self.stats["agent_writes"] += 1
            self.file_write(budget="agent_write", stat="failed_ops")
        elif self.file_acked:
            self.stats["agent_reads"] += 1
            self.file_read(budget="agent_read", stat="failed_ops")

    def _replicated_write(self, path: str) -> None:
        cluster = self.cluster
        name = AttributedName.file(path)
        version = self.acked[path] + 1
        self.stats["replicated_writes"] += 1
        ok, _ = self.attempt(
            lambda: cluster.replication.write(
                name, 0, version_content(version, REPLICATED_LEN)
            ),
            budget="replicated_write",
            stat="failed_ops",
            catch=REPLICATED_ERRORS,
        )
        if not ok:
            return
        # Ack-then-fsync: the write counts as acknowledged only once
        # the live replica servers flushed their FIT metadata (data
        # blocks are write-through already; file *size* is not).
        # Crashes land between steps, so these flushes cannot race a
        # new failure within the same step.
        for system_name in cluster.replication.lookup(name).replicas:
            volume_id = system_name.volume_id
            if cluster.health.is_down(volume_component(volume_id)):
                continue
            try:
                cluster.file_servers[volume_id].flush()
            except RhodosError:
                pass
        self.acked[path] = version

    def _replicated_read(self, path: str) -> None:
        start = self.cluster.clock.now_us
        self.stats["replicated_reads"] += 1
        ok, data = self.attempt(
            lambda: self.cluster.replication.read(
                AttributedName.file(path), 0, REPLICATED_LEN
            ),
            budget="replicated_read",
            stat="failed_ops",
            catch=REPLICATED_ERRORS,
        )
        if not ok or (data == b"" and self.acked[path] == 0):
            return  # nothing acknowledged yet: an empty file is correct
        version = decode_version(data, self.acked[path])
        if version is None:
            self.violations.append(
                f"t={start}us {path}: torn read {data[:8]!r}..."
            )
            return
        if version < self.acked[path]:
            self.violations.append(
                f"t={start}us {path}: stale read v{version} < acked "
                f"v{self.acked[path]}"
            )
        if version < self.observed[path]:
            self.violations.append(
                f"t={start}us {path}: non-monotonic read v{version} after "
                f"v{self.observed[path]}"
            )
        self.observed[path] = max(self.observed[path], version)

    def converge(self) -> None:
        cluster = self.cluster
        # Let the recovery hooks finish their repairs.
        cluster.replication.resync_all_stale()
        cluster.replication.sweep_orphans()
        self.check_none_stale(self.RFILES, "run-out")
        for path in self.RFILES:
            replica_set = cluster.replication.lookup(AttributedName.file(path))
            for system_name in replica_set.replicas:
                server = cluster.file_servers[system_name.volume_id]
                size = server.get_attribute(system_name).file_size
                data = server.read(system_name, 0, size)
                if self.acked[path] and data != version_content(
                    self.acked[path], REPLICATED_LEN
                ):
                    self.violations.append(
                        f"{path}: replica on volume {system_name.volume_id} "
                        f"diverged from acked v{self.acked[path]}"
                    )
        self.file_read_back()
        remaining = cluster.replication.orphans()
        if remaining:
            self.violations.append(
                f"{len(remaining)} delete orphan(s) survived the final sweep"
            )

    def _unavailability(self) -> Dict[str, object]:
        """Merge failure samples into windows; check each against the
        schedule extended by the parametric recovery allowance."""
        merge_gap = 4 * self.scenario.think_us + 2 * self.rpc_timeout_us
        windows: List[List[int]] = []
        for start, end, _kind in sorted(self.failures):
            if windows and start - windows[-1][1] <= merge_gap:
                windows[-1][1] = max(windows[-1][1], end)
            else:
                windows.append([start, end])
        return {
            "allowance_us": self.allowance_us(),
            "merge_gap_us": merge_gap,
            "out_of_bound": self.out_of_bound("unavailability", windows),
            "total_us": sum(end - start for start, end in windows),
            "windows": windows,
        }

    def extras(self) -> Dict[str, object]:
        return {
            **self.script_report(),
            "failures": [list(sample) for sample in self.failures],
            "final_versions": {
                "acked": dict(self.acked),
                "agent_writes_acked": len(self.file_acked),
            },
            "profile": asdict(self.scenario.profile),
            "unavailability": self._unavailability(),
        }


class _ScrubRun(_Run):
    """One scrub scenario: inject, byte-check reads, scrub, verify.

    The run seeds two replicated files (degree two, volumes 0 and 1),
    corrupts ``targets`` checksummed fragments on volume 0, then
    drives full scrub cycles over every volume.  Mirrored fragments
    (the FITs) repair locally from stable storage; everything else is
    routed through ``on_corruption`` to
    :meth:`ReplicationService.quarantine_volume_media`, which resyncs
    the damaged replicas from their clean peers.  The scenario passes
    when a whole cycle finds nothing — within ``max_cycles`` — and no
    read anywhere in the campaign observed corrupt bytes.
    """

    CONFIG = dict(
        n_disks=3,
        replication_degree=2,
        write_policy=WritePolicy.WRITE_THROUGH,
    )
    COUNTERS = (
        "disk_server.0.checksum_failures",
        "disk_server.0.read_repairs",
        "disk_server.0.stable_repairs",
        "replication.media_quarantines",
        "replication.quarantine_deferrals",
        "replication.resyncs",
        "replication.resyncs_verified",
        "scrub.0.cycles",
        "scrub.0.fragments_verified",
        "scrub.0.mirrors_verified",
        "scrub.0.repairs",
        "scrub.0.repair_failures",
    )
    FILE_BLOCKS = 4
    PATHS = ("/scrub/r0", "/scrub/r1")

    def setup(self) -> None:
        cluster = self.cluster
        self.expected: Dict[str, bytes] = {}
        for index, path in enumerate(self.PATHS):
            cluster.replication.create(AttributedName.file(path))
            content = bytes(
                (index * 37 + offset * 7 + 13) % 251 + 1
                for offset in range(self.FILE_BLOCKS * BLOCK_SIZE)
            )
            cluster.replication.write(AttributedName.file(path), 0, content)
            self.expected[path] = content
        for volume_id in sorted(cluster.file_servers):
            cluster.file_servers[volume_id].flush()
        self.reads_checked = 0
        self.findings_log: List[List[object]] = []

    def workload(self) -> None:
        """The fault script is corruption, the repair is the scrubber."""
        cluster, scenario = self.cluster, self.scenario
        disk_server = cluster.file_servers[0].disk
        sim_disk = disk_server.disk
        self.targets = sim_disk.faults.pick_targets(
            disk_server.checksummed_fragments(), scenario.targets, salt=17
        )
        # Pre-corruption ground truth for the direct-read byte checks.
        self.pristine = {
            fragment: disk_server.get(Extent(fragment, 1), use_cache=False)
            for fragment in self.targets
        }
        for fragment in self.targets:
            extent = Extent(fragment, 1)
            if scenario.inject == "rot":
                sim_disk.corrupt_sectors(extent.first_sector, extent.n_sectors)
            else:
                sim_disk.faults.schedule_media_error(extent.first_sector)

        # SLO 2, before any repair ran: a read of a damaged fragment
        # either raises (checksum/media error) or returns exact bytes
        # (an uncorrupted cached copy) — never silently wrong data.
        self.direct_errors = 0
        for fragment in sorted(self.targets):
            try:
                data = disk_server.get(Extent(fragment, 1))
            except MediaError:
                self.direct_errors += 1
                continue
            self.reads_checked += 1
            if data != self.pristine[fragment]:
                self.violations.append(
                    f"fragment {fragment}: corrupt bytes served to a "
                    f"direct read before scrub"
                )
        self._client_reads()

        # The scrub loop: every volume, full cycles, repair callbacks.
        self.unrepaired: List[Tuple[int, ScrubFinding]] = []
        scrubbers = {
            volume_id: Scrubber(
                cluster.file_servers[volume_id].disk,
                on_corruption=lambda finding, volume_id=volume_id: (
                    self.unrepaired.append((volume_id, finding))
                ),
            )
            for volume_id in sorted(cluster.file_servers)
        }
        self.cycles_to_clean: Optional[int] = None
        self.first_cycle_found: set[int] = set()
        for cycle in range(1, scenario.max_cycles + 1):
            cycle_findings: List[Tuple[int, ScrubFinding]] = []
            for volume_id in sorted(scrubbers):
                for finding in scrubbers[volume_id].run_cycle():
                    cycle_findings.append((volume_id, finding))
                    self.findings_log.append(
                        [
                            cycle,
                            volume_id,
                            finding.kind,
                            finding.extent.start,
                            finding.extent.length,
                            finding.repaired,
                        ]
                    )
            if cycle == 1:
                for _, finding in cycle_findings:
                    self.first_cycle_found.update(
                        range(finding.extent.start, finding.extent.end)
                    )
            if not cycle_findings:
                self.cycles_to_clean = cycle
                break
            for volume_id in sorted(
                {vid for vid, finding in cycle_findings if not finding.repaired}
            ):
                cluster.replication.quarantine_volume_media(volume_id)

    def _client_reads(self) -> None:
        """Read every replicated file end to end; byte-check the result.

        Read-one failover means these reads succeed with exact content
        even while volume 0 is damaged — a wrong byte is an SLO 2
        violation, not a degraded read.
        """
        for path, expected in self.expected.items():
            ok, data = self.attempt(
                lambda: self.cluster.replication.read(
                    AttributedName.file(path), 0, len(expected)
                ),
                violation=lambda _start, exc: (
                    f"{path}: replicated read failed outright ({exc})"
                ),
                catch=REPLICATED_ERRORS,
            )
            if not ok:
                continue
            self.reads_checked += 1
            if data != expected:
                self.violations.append(
                    f"{path}: corrupt bytes reached the client"
                )

    def converge(self) -> None:
        cluster = self.cluster
        # SLO 1: everything injected was found, and a clean cycle
        # arrived within the bound.
        if self.cycles_to_clean is None:
            self.violations.append(
                f"scrub still finding corruption after "
                f"{self.scenario.max_cycles} cycles"
            )
        missed = sorted(set(self.targets) - self.first_cycle_found)
        if missed:
            self.violations.append(
                f"injected corruption never found by the scrubber: "
                f"fragments {missed}"
            )
        # Every damaged fragment reads clean — through the cache and
        # around it — so nothing corrupt survived into the cache.
        disk_server = cluster.file_servers[0].disk
        for fragment in sorted(self.targets):
            for use_cache in (True, False):
                try:
                    data = disk_server.get(
                        Extent(fragment, 1), use_cache=use_cache
                    )
                except MediaError as exc:
                    self.violations.append(
                        f"fragment {fragment}: still unreadable after "
                        f"scrub repair ({exc})"
                    )
                    continue
                self.reads_checked += 1
                if data != self.pristine[fragment]:
                    self.violations.append(
                        f"fragment {fragment}: content wrong after repair "
                        f"(cache={use_cache})"
                    )
        # The raw recompute pass agrees: zero latent findings anywhere.
        for volume_id in sorted(cluster.file_servers):
            findings = verify_checksums(cluster.file_servers[volume_id].disk)
            for finding in findings:
                self.violations.append(f"volume {volume_id} fsck: {finding}")
        # Client-visible content, and no replica left stale.
        self._client_reads()
        self.check_none_stale(self.PATHS, "scrub repair")

    def extras(self) -> Dict[str, object]:
        return {
            "cycles_to_clean": self.cycles_to_clean,
            "direct_read_errors": self.direct_errors,
            "findings": self.findings_log,
            "injected": {
                "fragments": sorted(self.targets),
                "kind": self.scenario.inject,
            },
            "reads_checked": self.reads_checked,
            "routed_to_replication": len(self.unrepaired),
        }


class _RaidRun(_Run):
    """One RAID scenario: member kills mid-workload, rebuild, verdicts.

    A single volume backed by a :class:`StripedVolume` serves a mixed
    read/write workload over the client agent path (reliable bus — any
    failed operation is attributable to the RAID tier, not bus luck).
    The schedule kills and replaces member drives between operations;
    the workload loop pumps :meth:`RhodosCluster.step_rebuilds` each
    step so the background rebuild interleaves with foreground
    traffic.  Unlike the volume-crash scenarios there is no
    unavailability budget to spend: **every** operation must succeed,
    and at the end every acked byte must read back exactly from the
    server's durable state.
    """

    #: The array backing the volume's data disk.
    LAYOUT = {"level": "raid5", "members": 4}
    CONFIG = dict(
        # 64 MB members keep the rebuild long enough to overlap
        # dozens of foreground steps yet finish within the run.
        geometry=DiskGeometry.small(),
        replication_degree=1,
        write_policy=WritePolicy.WRITE_THROUGH,
        # Every cache off: each read reaches the platters, so
        # degraded reads really exercise XOR reconstruction on
        # the client path rather than a cached block.
        server_cache_blocks=0,
        disk_cache_tracks=0,
        **{f"raid_{key}": value for key, value in LAYOUT.items()},
    )
    STATS = ("reads", "writes", "reads_degraded", "writes_degraded")
    COUNTERS = (
        "cluster.member_failures",
        "cluster.member_replacements",
        "health.marked_down",
        "health.recoveries",
        "health.transient_errors",
        "recovery.member_kills_injected",
        "recovery.member_replacements_injected",
        "raid.0.degraded_reads",
        "raid.0.degraded_writes",
        "raid.0.journal_arms",
        "raid.0.member_failures",
        "raid.0.member_replacements",
        "raid.0.parity_writes",
        "raid.0.rebuild.chunks",
        "raid.0.segments_reconstructed",
    )
    FILE_READ_WRONG = "read at {offset} returned wrong bytes"
    FILE_LOST = "acked write at offset {offset} lost after rebuild"

    def setup(self) -> None:
        self.array = self.cluster.arrays[0]
        self.state_log: List[List[object]] = []
        self.finale: Optional[Dict[str, object]] = None
        # Chain onto the cluster's health wiring so the campaign sees
        # the same transitions the failure detector does.
        chain = self.array.on_state_change

        def observe(old: ArrayState, new: ArrayState) -> None:
            self.state_log.append(
                [self.cluster.clock.now_us, old.name, new.name]
            )
            if chain is not None:
                chain(old, new)

        self.array.on_state_change = observe
        self.open_file("/availability/raid")

    def op(self, step: int) -> None:
        degraded = self.array.state is not ArrayState.OPTIMAL
        if self.rng.random() < 0.55 or not self.file_acked:
            self.stats["writes"] += 1
            self.stats["writes_degraded"] += degraded
            self.file_write(slo="the volume must keep serving")
        else:
            self.stats["reads"] += 1
            self.stats["reads_degraded"] += degraded
            self.file_read(slo="reads are never unavailable")

    def converge(self) -> None:
        cluster = self.cluster
        # Pump the rebuild alone until the array is whole.
        for _ in range(8 * self.scenario.steps):
            if not cluster.rebuilders:
                break
            cluster.clock.advance_us(self.scenario.think_us)
            cluster.step_rebuilds()
        else:
            self.violations.append("rebuild never completed at run-out")
        if self.array.state is not ArrayState.OPTIMAL:
            self.violations.append(
                f"array ended {self.array.state.name}, not OPTIMAL"
            )
        for entry in self.state_log:
            if entry[2] == "FAILED":
                self.violations.append(
                    f"t={entry[0]}us array went FAILED with redundancy "
                    f"remaining"
                )
        self.file_read_back()
        if cluster.health.is_down(volume_component(0)):
            self.violations.append(
                "health registry still holds the volume down after the "
                "array returned to OPTIMAL"
            )
        if self.scenario.exhaust_finale:
            self.finale = self._exhaust_redundancy()

    def _exhaust_redundancy(self) -> Dict[str, object]:
        """Kill two members: FAILED is mandatory, silence is forbidden."""
        cluster = self.cluster
        cluster.fail_member(0, 0)
        cluster.fail_member(0, 1)
        if self.array.state is not ArrayState.FAILED:
            self.violations.append(
                f"two members dead but array is {self.array.state.name}"
            )
        refused = served = 0
        for sector in (0, 8, 64):
            try:
                data = cluster.disks[0].read_sectors(sector, 1)
            except ArrayFailedError:
                refused += 1
                continue
            served += 1
            self.violations.append(
                f"FAILED array served {len(data)} bytes at sector {sector}"
            )
        return {
            "health_down": cluster.health.is_down(volume_component(0)),
            "reads_refused": refused,
            "reads_served": served,
            "state": self.array.state.name,
        }

    def extras(self) -> Dict[str, object]:
        return {
            **self.script_report(),
            "finale": self.finale,
            "final_versions": {"writes_acked": len(self.file_acked)},
            "layout": {"chunk_sectors": self.array.chunk_sectors, **self.LAYOUT},
            "member_windows": self.schedule.windows("member"),
            "state_log": self.state_log,
        }


class _ShardRun(_Run):
    """The sharded-namespace families: kills, failover, verdicts."""

    CONFIG = dict(rpc_backoff=BACKOFF, rpc_breaker=BREAKER)
    STATS = ("binds", "resolves", "failed_binds", "failed_resolves")
    COUNTERS = (
        "cluster.shard_failures",
        "cluster.shard_restarts",
        "cluster.shards_added",
        "health.marked_down",
        "health.recoveries",
        "naming_shard.failovers",
        "naming_shard.fan_outs",
        "naming_shard.migrations_aborted",
        "naming_shard.migrations_completed",
        "naming_shard.migrations_started",
        "naming_shard.redirects",
        "naming_shard.resyncs",
        "naming_shard.streamed_bindings",
        "recovery.shard_kills_injected",
        "recovery.shard_restarts_injected",
        "rpc.breaker_opens",
        "rpc.retransmissions",
    )
    #: Directory the family binds under; only these names are policed.
    PREFIX = ""

    def setup(self) -> None:
        # path -> (name, target), acknowledged and merely attempted.
        self.acked: Dict[str, Tuple[AttributedName, str]] = {}
        self.attempted: Dict[str, Tuple[AttributedName, str]] = {}

    def binding(self, index: int) -> Tuple[str, AttributedName, str]:
        """The index-th (path, name, target) the family binds."""
        path = f"{self.PREFIX}dev{index}"
        name = AttributedName.tty(f"dev{index}", path=path)
        return path, name, f"host{index % 4}:{path}"

    def resolve_compare(
        self,
        path: str,
        failed: Callable[[int, Exception], str],
        wrong: Callable[[str, str], str],
        *,
        counted: bool = True,
    ) -> None:
        """Resolve one acked name; it must succeed with the acked target."""
        name, target = self.acked[path]
        if counted:
            self.stats["resolves"] += 1
        ok, observed = self.attempt(
            lambda: self.cluster.naming.resolve(name),
            violation=failed,
            stat="failed_resolves" if counted else None,
        )
        if ok and observed != target:
            self.violations.append(wrong(observed, target))

    def converge(self) -> None:
        cluster = self.cluster
        for path in sorted(self.acked):
            self.resolve_compare(
                path,
                lambda _start, exc: (
                    f"{path}: acked binding lost after run-out ({exc})"
                ),
                lambda observed, target: (
                    f"{path}: resolves to {observed!r} after run-out, "
                    f"acked {target!r}"
                ),
                counted=False,
            )
        # The partition invariant: per-shard dumps pairwise disjoint,
        # every acked binding present, nothing present that was never
        # attempted (a failed bind may have applied server-side — its
        # reply was lost — so the union may exceed the acked set, but
        # never the attempted set).
        seen: Dict[str, int] = {}
        union: Dict[str, str] = {}
        for shard_id, blob in sorted(cluster.naming.shard_dumps().items()):
            part = NamingService.from_bytes(blob)
            for name in part:
                path = name.get("path") or repr(name)
                if path in seen:
                    self.violations.append(
                        f"{path} lives on shards {seen[path]} and {shard_id}"
                    )
                seen[path] = shard_id
                union[path] = part.resolve(name)
        for path in sorted(self.acked):
            _name, target = self.acked[path]
            if union.get(path) != target:
                self.violations.append(
                    f"{path}: acked {target!r} but the dumps hold "
                    f"{union.get(path)!r}"
                )
        # Only the campaign's own names are policed — the cluster seeds
        # bindings of its own (the root directory).
        for path in sorted(set(union) - set(self.attempted)):
            if path.startswith(self.PREFIX):
                self.violations.append(
                    f"{path}: present in a shard dump but never attempted"
                )

    def extras(self) -> Dict[str, object]:
        return {
            **self.script_report(),
            "failures": [list(sample) for sample in self.failures],
            "final_versions": {
                "acked_bindings": len(self.acked),
                "attempted_bindings": len(self.attempted),
            },
            "n_shards": self.scenario.n_shards,
            "shard_windows": self.schedule.windows("shard"),
        }


class _StormRun(_ShardRun):
    """A metadata storm over the lossy bus while a shard server dies.

    Binds fresh names and resolves acked ones while the schedule kills
    and restarts one shard server.  SLOs: an acked name **never** fails
    to resolve (reads fail over to the replica peer), bind failures
    fall only inside the scheduled kill window plus the parametric
    recovery allowance, and after the restart every acked binding
    resolves with its exact target while the per-shard dumps stay
    pairwise disjoint.
    """

    PREFIX = "/storm/"

    def op(self, step: int) -> None:
        if self.rng.random() < 0.45 or not self.acked:
            path, name, target = self.binding(step)
            self.stats["binds"] += 1
            self.attempted[path] = (name, target)
            # rebind, not bind: a reply lost after the server applied
            # the write makes a retried bind a duplicate — rebind is
            # idempotent at the workload layer, and the shard's reply
            # cache absorbs bus-level duplicates below it.
            ok, _ = self.attempt(
                lambda: self.cluster.naming.rebind(name, target),
                budget="bind",
                stat="failed_binds",
            )
            if ok:
                self.acked[path] = (name, target)
            return
        paths = sorted(self.acked)
        path = paths[self.rng.randrange(len(paths))]
        start = self.cluster.clock.now_us
        self.resolve_compare(
            path,
            self.must(f"resolve {path}", "acked names must fail over"),
            lambda observed, target: (
                f"t={start}us resolve {path} returned {observed!r}, "
                f"acked {target!r}"
            ),
        )

    def converge(self) -> None:
        super().converge()
        self.out_of_bound("bind failures", self.failures)
        if self.cluster.metrics.get("naming_shard.failovers") == 0:
            self.violations.append(
                "the storm never exercised a failover read — the kill "
                "window missed the workload entirely"
            )


class _RebalanceRun(_ShardRun):
    """An online migration whose destination dies mid-stream.

    Direct calls — the interruption under test is the shard's, not the
    bus's.  The migration must abort (sources keep sole ownership —
    zero resolve misses at every step), then re-run to completion after
    the restart with the map epoch bumped.
    """

    PREFIX = "/reb/"

    def setup(self) -> None:
        super().setup()
        for index in range(40):
            path, name, target = self.binding(index)
            self.cluster.naming.rebind(name, target)
            self.acked[path] = self.attempted[path] = (name, target)
            self.stats["binds"] += 1

    def workload(self) -> None:
        """The fault script is hand-placed inside the migration."""
        cluster = self.cluster
        manager = cluster.shard_manager
        epoch_before = cluster.naming.map_epoch

        spare = cluster.add_shard()
        slots = manager.begin_rebalance(spare)
        self.action_log.append(
            f"rebalance {len(slots)} slot(s) -> shard {spare}"
        )
        for _round in range(3):
            if manager.rebalance_done:
                break
            manager.step_rebalance(max_bindings=4)
            self._resolve_all("mid-stream")
        cluster.fail_shard(spare)
        self.action_log.append(f"kill migration target shard {spare}")
        manager.step_rebalance(max_bindings=4)
        if manager.rebalance_in_flight:
            self.violations.append(
                "migration survived its destination's death"
            )
        self._resolve_all("post-abort")

        cluster.restart_shard(spare)
        self.action_log.append(f"restart shard {spare}")
        slots = manager.begin_rebalance(spare)
        while not manager.rebalance_done:
            manager.step_rebalance(max_bindings=8)
            self._resolve_all("re-run")
        manager.complete_rebalance()
        self.action_log.append(f"cutover: {len(slots)} slot(s) moved")
        if manager.map.epoch <= epoch_before:
            self.violations.append(
                f"map epoch never advanced past {epoch_before}"
            )
        if cluster.shards[spare].size() == 0:
            self.violations.append(
                f"shard {spare} owns no bindings after the cutover"
            )
        self._resolve_all("post-cutover")
        # The router learns the new map lazily — a post-cutover resolve
        # of a moved name hits WrongShardError and re-fetches.
        if cluster.naming.map_epoch != manager.map.epoch:
            self.violations.append(
                f"router stuck at epoch {cluster.naming.map_epoch}, "
                f"manager at {manager.map.epoch}"
            )

    def _resolve_all(self, stage: str) -> None:
        for path in sorted(self.acked):
            self.resolve_compare(
                path,
                lambda _start, exc: (
                    f"{stage}: resolve {path} missed "
                    f"({type(exc).__name__}) — migration must be invisible"
                ),
                lambda observed, target: (
                    f"{stage}: resolve {path} returned {observed!r}, "
                    f"acked {target!r}"
                ),
            )


#: Crash volume 0 once, then volume 1, windows disjoint so one replica
#: of every replicated file is live at all times.
ALTERNATING = (
    Outage(at_us=300_000, down_us=400_000, target=("volume", 0)),
    Outage(at_us=1_400_000, down_us=400_000, target=("volume", 1)),
)

#: The one registry: ``--all`` / ``--list`` order is insertion order.
SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "clean_restarts",
            _CrashRun,
            "reliable bus; alternating single-volume crashes",
            events=ALTERNATING,
            steps=420,
            smoke=True,
        ),
        Scenario(
            "lossy_bus",
            _CrashRun,
            "message loss/duplication/reordering during the crashes",
            profile=FaultProfile(
                request_loss=0.05, reply_loss=0.05, duplication=0.02, reorder=0.02
            ),
            events=ALTERNATING,
            steps=420,
            smoke=True,
        ),
        Scenario(
            "reorder_heavy",
            _CrashRun,
            "heavy reordering; one crash window",
            profile=FaultProfile(duplication=0.05, reorder=0.10),
            events=(Outage(at_us=500_000, down_us=400_000, target=("volume", 0)),),
            steps=360,
        ),
        # Volume 0 crashes twice with a short recovered gap in between:
        # the second crash hits while the breaker's memory of the first
        # is fresh.
        Scenario(
            "back_to_back",
            _CrashRun,
            "volume 0 crashes twice in quick succession",
            profile=FaultProfile(request_loss=0.03, reply_loss=0.03),
            events=(
                Outage(at_us=300_000, down_us=300_000, target=("volume", 0)),
                Outage(at_us=1_000_000, down_us=300_000, target=("volume", 0)),
            ),
            steps=420,
        ),
        Scenario(
            "scrub_latent_rot",
            _ScrubRun,
            "silent at-rest byte flips; scrub + mirror/replica repair",
            inject="rot",
        ),
        Scenario(
            "scrub_media_errors",
            _ScrubRun,
            "latent unreadable sectors; scrub + rewrite repair",
            inject="media",
        ),
        # One member dies at 300 ms; its blank replacement arrives
        # 400 ms later and rebuilds one step between operations.
        Scenario(
            "raid_member_loss",
            _RaidRun,
            "single member dies under mixed load; degraded "
            "service, background rebuild, zero unavailability",
            events=(
                Outage(at_us=300_000, down_us=400_000, target=("member", 0, 1)),
            ),
            steps=240,
        ),
        # Member 2 dies, is replaced, then dies *again* 60 ms into its
        # own rebuild — the second kill must cancel the rebuild and drop
        # the array back to degraded, never to FAILED (three healthy
        # members remain).
        Scenario(
            "raid_rebuild_interrupted",
            _RaidRun,
            "rebuild target dies mid-rebuild (degrade, never "
            "fail); finale exhausts redundancy and demands loud refusal",
            events=(
                Outage(at_us=200_000, down_us=300_000, target=("member", 0, 2)),
                Outage(at_us=560_000, down_us=340_000, target=("member", 0, 2)),
            ),
            steps=240,
            exhaust_finale=True,
        ),
        Scenario(
            "shard_death_metadata_storm",
            _StormRun,
            "a shard server dies mid-metadata-storm over a lossy "
            "bus; resolves fail over to the replica, binds bounded to the "
            "window, restart resyncs every acked binding",
            profile=FaultProfile(
                request_loss=0.03, reply_loss=0.03, duplication=0.02
            ),
            events=(Outage(at_us=400_000, down_us=400_000, target=("shard", 1)),),
            steps=360,
            n_shards=4,
        ),
        Scenario(
            "rebalance_interrupted",
            _RebalanceRun,
            "the migration destination dies mid-stream; the "
            "migration aborts with zero resolve misses, then re-runs to "
            "completion after the restart",
            profile=None,
            n_shards=2,
        ),
    )
}


def run_scenario(scenario: Scenario) -> Dict[str, object]:
    """Execute one scenario; returns its deterministic report dict."""
    return scenario.runner(scenario).run()


def run_campaign(names: List[str]) -> Dict[str, object]:
    """Run the named scenarios; returns the full JSON document."""
    unknown = sorted(set(names) - set(SCENARIOS))
    if unknown:
        raise SystemExit(
            f"unknown scenario(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(SCENARIOS))})"
        )
    return {
        "schema_version": 1,
        "suite": "repro-availability",
        "scenarios": {name: run_scenario(SCENARIOS[name]) for name in names},
    }


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.availability",
        description=(
            "Crash/restart availability campaign: mixed workload under "
            "fault injection, SLO invariants, machine-readable report."
        ),
    )
    scope = parser.add_mutually_exclusive_group()
    scope.add_argument(
        "--all", action="store_true", help="run every scenario (default)"
    )
    scope.add_argument(
        "--smoke",
        action="store_true",
        help="run the fast subset only: "
        + ", ".join(name for name, s in SCENARIOS.items() if s.smoke),
    )
    scope.add_argument(
        "--only", nargs="+", metavar="NAME", help="run the named scenarios only"
    )
    parser.add_argument(
        "--out",
        default="AVAILABILITY_pr40.json",
        help="output path (default: %(default)s)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenario names and exit"
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    if args.list:
        for scenario in SCENARIOS.values():
            print(f"{scenario.name:24s} {scenario.description}")
        return 0
    names = args.only or [
        name for name, s in SCENARIOS.items() if s.smoke or not args.smoke
    ]
    document = run_campaign(names)
    out_path = Path(args.out)
    out_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    statuses = {
        name: str(report["status"])
        for name, report in document["scenarios"].items()  # type: ignore[union-attr]
    }
    for name, status in statuses.items():
        print(f"{name:20s} {status}", file=sys.stderr)
    passed = sum(1 for status in statuses.values() if status == "pass")
    print(
        f"{len(statuses)} scenario(s): {passed} pass, "
        f"{len(statuses) - passed} fail -> {out_path}",
        file=sys.stderr,
    )
    return 0 if passed == len(statuses) else 1


if __name__ == "__main__":
    raise SystemExit(main())
