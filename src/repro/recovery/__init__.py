"""Failure detection and crash/restart lifecycle.

The paper's reliability claim (sections 5, 7) is not that components
never fail but that the facility *recovers*: stable storage and careful
writes preserve vital structures, replicated volumes keep data
reachable, and recovery runs while ordinary traffic continues.  This
package provides the two pieces that close the injure→degrade→recover→
repair loop:

* :class:`HealthRegistry` — a failure detector fed by RPC circuit-
  breaker transitions and per-replica I/O errors.  It distinguishes
  *transient* faults (a torn-sector retry, one lost message) from
  *permanent* ones (a crashed volume), and broadcasts recovery events
  so repair work (replica resync, orphan sweeps) starts automatically.
* :class:`FailureSchedule` — a deterministic script of :class:`Outage`
  entries in simulated time.  Driven from the shared clock it takes
  named targets (volumes, RAID members, naming shards) down
  mid-workload and repairs them through the ordinary recovery path, so
  recovery is always exercised against concurrent traffic rather than
  a quiesced system.

Both are pure state machines over :mod:`repro.common` — the layers
that act on them (``rpc``, ``replication``, ``cluster``, ``chaos``)
import downward into this package, never the reverse.
"""
