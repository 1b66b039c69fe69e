"""Every ``ClusterConfig`` field must change something a run records.

Each field is flipped from its default in a named context (a handful
of overrides that give the knob something to act on) and a short
canonical workload runs on both configurations.  The field is live if
the two runs differ in at least one of: the simulated clock, a
counter, a gauge, a histogram, or the raised exception.  A field
neither registered in :data:`FLIPS` nor exempted in :data:`EXEMPT`
fails the suite, so a knob that stops mattering, or a new one nobody
exercises, is caught here.  DESIGN.md §6 lists the
contexts and the exemptions with their reasons.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.errors import RhodosError
from repro.file_service.cache import WritePolicy
from repro.naming.attributed import AttributedName
from repro.rpc.bus import FaultProfile
from repro.rpc.retry import BackoffPolicy, BreakerPolicy
from repro.simdisk.geometry import DiskGeometry
from repro.transactions.lock_manager import TimeoutPolicy

PAYLOAD = bytes(range(256)) * 48  # three 4 KiB blocks
#: A transaction's think time before the lock-timeout sweep: well
#: inside the default LT, so only a shorter LT expires the lock.
THINK_US = 1_000

#: Context name -> overrides the flip is measured on top of.
CONTEXTS: Dict[str, dict] = {
    "default": {},
    "two volumes": {"n_disks": 2},
    "lossy bus": {
        "fault_profile": FaultProfile(request_loss=0.2, reply_loss=0.2),
    },
    "raid5 volume": {"raid_level": "raid5"},
}

#: Field -> (context, flipped value).
FLIPS: Dict[str, Tuple[str, object]] = {
    "n_machines": ("default", 2),
    "n_disks": ("default", 2),
    "geometry": ("default", DiskGeometry.small()),
    "client_cache_blocks": ("default", 0),
    "server_cache_blocks": ("default", 0),
    "disk_cache_tracks": ("default", 0),
    "write_policy": ("default", WritePolicy.WRITE_THROUGH),
    "timeout_policy": ("default", TimeoutPolicy(lt_us=1, max_renewals=1)),
    "commit_technique": ("default", "shadow"),
    "fault_profile": ("default", FaultProfile.reliable()),
    "rpc_backoff": ("lossy bus", BackoffPolicy()),
    "rpc_breaker": ("lossy bus", BreakerPolicy(threshold=1)),
    "n_shards": ("default", 2),
    "shard_service_us": ("default", 100),
    "placement_policy": ("two volumes", "round_robin"),
    "replication_degree": ("two volumes", 1),
    "raid_level": ("default", "raid5"),
    "raid_members": ("raid5 volume", 3),
    "seed": ("lossy bus", 1),
}

#: Field -> where the knob is live instead (none at present).
EXEMPT: Dict[str, str] = {}


def canonical_workload(cluster: RhodosCluster) -> None:
    """Every machine writes, closes and re-reads two files; one file is
    replicated; one transaction passes a lock-timeout sweep and commits."""
    for machine in cluster.machines:
        agent = machine.file_agent
        for leaf in ("a", "b"):
            name = AttributedName.file(f"/{machine.machine_id}/{leaf}")
            descriptor = agent.create(name)
            agent.write(descriptor, PAYLOAD)
            agent.close(descriptor)
            descriptor = agent.open(name)
            agent.read(descriptor, len(PAYLOAD))
            agent.close(descriptor)
    replicated = AttributedName.file("/replicated")
    cluster.replication.create(replicated)
    cluster.replication.write(replicated, 0, PAYLOAD)
    transactions = cluster.machine.transactions
    tid = transactions.tbegin()
    descriptor = transactions.tcreate(tid, AttributedName.file("/txn"))
    transactions.twrite(tid, descriptor, PAYLOAD)
    cluster.clock.advance_us(THINK_US)
    cluster.coordinator.expire_locks(cluster.clock.now_us)
    transactions.tend(tid)
    cluster.flush_all()


def observe(config: ClusterConfig) -> dict:
    """Everything a run records, as one comparable value."""
    cluster = RhodosCluster(config)
    raised: Optional[str] = None
    try:
        canonical_workload(cluster)
    except RhodosError as error:  # the raised exception is an observable
        raised = f"{type(error).__name__}: {error}"
    metrics = cluster.metrics
    return {
        "clock_us": cluster.clock.now_us,
        "counters": metrics.snapshot(),
        "gauges": metrics.gauges(),
        "histograms": {
            name: metrics.histogram_samples(name)
            for name in metrics.histogram_names()
        },
        "raised": raised,
    }


def observe_flip(context: str, field: Optional[str] = None) -> dict:
    """The run in ``context``, with ``field`` flipped if given."""
    overrides = dict(CONTEXTS[context])
    if field is not None:
        overrides[field] = FLIPS[field][1]
    return observe(ClusterConfig(**overrides))


FIELDS = [field.name for field in dataclasses.fields(ClusterConfig)]


def test_every_field_is_registered_once():
    registered = set(FLIPS) | set(EXEMPT)
    unregistered = sorted(set(FIELDS) - registered)
    assert (unregistered, sorted(registered - set(FIELDS))) == ([], [])
    assert not set(FLIPS) & set(EXEMPT)
    assert all(reason.strip() for reason in EXEMPT.values())


def test_the_canonical_workload_runs_clean_in_every_context():
    for context in CONTEXTS:
        assert observe_flip(context)["raised"] is None, context


@pytest.mark.parametrize("field", sorted(FLIPS))
def test_flipping_the_field_moves_a_recorded_value(field):
    context, flipped = FLIPS[field]
    assert field not in CONTEXTS[context]
    assert flipped != getattr(ClusterConfig(), field)
    baseline = observe_flip(context)
    flipped_run = observe_flip(context, field)
    moved = [key for key in baseline if baseline[key] != flipped_run[key]]
    assert moved, f"{field} flipped to {flipped!r} in {context!r} moved nothing"
