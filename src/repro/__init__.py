"""repro — a reproduction of the RHODOS distributed file facility.

Panadiwal & Goscinski, "A High Performance and Reliable Distributed
File Facility", ICDCS 1994.

The package implements the paper's five-service architecture over a
simulated substrate:

* :mod:`repro.simdisk` — seek/rotation/transfer disk model + mirrored
  stable storage (careful writes);
* :mod:`repro.disk_service` — fragments (2 KB) and blocks (8 KB),
  bitmap + 64x64 free-extent array, track cache, stability-aware
  get/put;
* :mod:`repro.file_service` — file index tables with contiguity
  counts, 512 KB direct coverage, delayed-write/write-through caching;
* :mod:`repro.naming` — attributed names -> system names, optionally
  partitioned across shard servers with rebalancing and failover;
* :mod:`repro.agents` — device/file agents, object descriptors,
  client caching, the process model;
* :mod:`repro.transactions` — 2PL (RO/IR/IW, Table 1) at record/page/
  file granularity, LT/N timeout deadlock resolution, intentions list,
  WAL + shadow-page commit, crash recovery;
* :mod:`repro.replication` — primary-copy read-one/write-all with
  health-routed failover and verified resync;
* :mod:`repro.recovery` — the failure detector (health registry) and
  scripted crash/restart schedules;
* :mod:`repro.cluster` — whole-system assembly and cross-disk file
  striping;
* :mod:`repro.workloads` — the experiment drivers.

Quick start::

    from repro import RhodosCluster, ClusterConfig, AttributedName

    cluster = RhodosCluster(ClusterConfig(n_machines=1, n_disks=2))
    agent = cluster.machine.file_agent
    fd = agent.create(AttributedName.file("/hello.txt"))
    agent.write(fd, b"hello, RHODOS")
    agent.lseek(fd, 0)
    print(agent.read(fd, 64))
    agent.close(fd)
"""

from repro.cluster.config import ClusterConfig
from repro.cluster.driver import ConcurrentDriver, DriverReport
from repro.cluster.system import RhodosCluster
from repro.cluster.striping import StripedFile
from repro.common.clock import SimClock
from repro.common.errors import RhodosError
from repro.common.ids import SystemName
from repro.common.metrics import Metrics
from repro.common.errors import ShardDownError, WrongShardError
from repro.naming.attributed import AttributedName, ObjectType
from repro.naming.directory import DirectoryService
from repro.naming.shard import (
    NamingShard,
    PlacementPolicy,
    ShardedNamespace,
    ShardManager,
    ShardMap,
)
from repro.naming.tdirectory import TransactionalDirectory
from repro.file_service.attributes import LockingLevel, ServiceType
from repro.file_service.cache import WritePolicy
from repro.recovery.health import HealthRegistry, HealthState
from repro.recovery.schedule import FailureSchedule, Outage
from repro.rpc.bus import FaultProfile
from repro.rpc.retry import BackoffPolicy, BreakerPolicy
from repro.simkernel.runner import InterleavedRunner, LockWaitPending
from repro.transactions.lock_manager import TimeoutPolicy

__version__ = "1.0.0"

__all__ = [
    "ClusterConfig",
    "ConcurrentDriver",
    "DriverReport",
    "RhodosCluster",
    "StripedFile",
    "SimClock",
    "Metrics",
    "RhodosError",
    "SystemName",
    "AttributedName",
    "ObjectType",
    "DirectoryService",
    "NamingShard",
    "PlacementPolicy",
    "ShardedNamespace",
    "ShardManager",
    "ShardMap",
    "ShardDownError",
    "WrongShardError",
    "TransactionalDirectory",
    "LockingLevel",
    "ServiceType",
    "WritePolicy",
    "FaultProfile",
    "BackoffPolicy",
    "BreakerPolicy",
    "HealthRegistry",
    "HealthState",
    "FailureSchedule",
    "Outage",
    "InterleavedRunner",
    "LockWaitPending",
    "TimeoutPolicy",
    "__version__",
]
